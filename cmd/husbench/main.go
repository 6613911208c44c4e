// Command husbench regenerates the paper's tables and figures.
//
// Usage:
//
//	husbench [-exp all|NAME[,NAME...]] [-threads N] [-p P] [-quick] [-csv|-md]
//
// NAME is one of the experiments -h lists: the paper's tables and figures,
// then the devices and ablations extensions; all runs every one of them, in
// that order. Each experiment prints one or more tables; -csv
// switches to CSV output for plotting, -md to markdown. Every number is
// modeled (simulated device time; compute is work ÷ threads), so a run is
// reproducible at a fixed -threads: docs/husbench_all_output.txt is
// `-exp all -threads 4`, and CI diffs a fresh run against it.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"husgraph/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments.ExperimentNames(), "|")+"|all")
	threads := flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS; paper uses 16)")
	p := flag.Int("p", 0, "partition count (0 = 8)")
	quick := flag.Bool("quick", false, "shrink datasets ~10x for a fast smoke run")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	md := flag.Bool("md", false, "emit markdown tables (EXPERIMENTS.md style)")
	flag.Parse()

	r := experiments.NewRunner(experiments.Options{Threads: *threads, P: *p, Quick: *quick})
	names := strings.Split(*exp, ",")
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		start := time.Now()
		tables, err := r.ByName(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "husbench: %v\n", err)
			os.Exit(1)
		}
		for _, t := range tables {
			var renderErr error
			switch {
			case *csv:
				fmt.Printf("# %s\n", t.Title)
				renderErr = t.RenderCSV(os.Stdout)
			case *md:
				renderErr = t.RenderMarkdown(os.Stdout)
			default:
				renderErr = t.Render(os.Stdout)
			}
			if renderErr != nil {
				fmt.Fprintf(os.Stderr, "husbench: render: %v\n", renderErr)
				os.Exit(1)
			}
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}
