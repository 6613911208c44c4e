// Command husbench regenerates the paper's tables and figures.
//
// Usage:
//
//	husbench [-exp all|table2|fig1|fig7|fig8|table3|fig9|fig10|fig11[,...]]
//	         [-threads N] [-p P] [-quick] [-csv]
//	         [-bench-json DIR [-datasets a,b,...]]
//	         [-bench-check DIR]
//
// Each experiment prints one or more tables; -csv switches to CSV output
// for plotting.
//
// With -bench-json, instead of rendering tables, PageRank is run on each
// dataset under the synchronous, prefetch-pipelined and prefetch+cache
// engine configurations, and one machine-readable BENCH_<dataset>.json is
// written per dataset into DIR (modeled ns/iter, bytes read, cache hit
// rate, speedups) — the repo's performance-trajectory artifacts. Modeled
// compute is work ÷ threads, so -bench-json runs at 4 threads (the count
// the committed artifacts record) unless -threads is given.
//
// With -bench-check, the committed BENCH_*.json artifacts in DIR are
// replayed under their recorded configurations and the modeled ns/iter is
// compared: any entry more than 20% slower than its artifact fails the run
// with exit status 1. The modeled runtime is deterministic, so this is a
// machine-independent CI regression gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"husgraph/internal/experiments"
	"husgraph/internal/gen"
	"husgraph/internal/storage"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments.ExperimentNames(), "|")+"|all")
	threads := flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS, or 4 with -bench-json; paper uses 16)")
	p := flag.Int("p", 0, "partition count (0 = 8)")
	quick := flag.Bool("quick", false, "shrink datasets ~10x for a fast smoke run")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	md := flag.Bool("md", false, "emit markdown tables (EXPERIMENTS.md style)")
	benchJSON := flag.String("bench-json", "", "write machine-readable BENCH_<dataset>.json perf artifacts into this directory and exit")
	benchCheck := flag.String("bench-check", "", "replay the BENCH_*.json artifacts in this directory and fail on >20% modeled-runtime regression")
	datasets := flag.String("datasets", "", "comma-separated datasets for -bench-json (default: all registry datasets)")
	deviceName := flag.String("device", "hdd", "device profile for -bench-json: hdd|ssd|nvme|ram")
	flag.Parse()

	if *benchJSON != "" && *threads == 0 {
		// The committed artifacts record their thread count and modeled
		// compute scales with it: regenerate them at the count they were
		// written with, not at this host's.
		*threads = experiments.BenchThreads
	}
	r := experiments.NewRunner(experiments.Options{Threads: *threads, P: *p, Quick: *quick})
	if *benchCheck != "" {
		start := time.Now()
		trends, err := experiments.CheckBenchTrend(*benchCheck, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "husbench: bench-check: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-18s %-10s %-15s %14s %14s %7s\n", "dataset", "algo", "config", "old ns/iter", "new ns/iter", "ratio")
		for _, tr := range trends {
			mark := ""
			if tr.Regressed {
				mark = "  REGRESSED"
			}
			fmt.Printf("%-18s %-10s %-15s %14d %14d %7.3f%s\n", tr.Dataset, tr.Algo, tr.Config, tr.OldNs, tr.NewNs, tr.Ratio, mark)
		}
		fmt.Fprintf(os.Stderr, "[bench-check completed in %v]\n", time.Since(start).Round(time.Millisecond))
		if bad := experiments.Regressions(trends); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "husbench: %d modeled-runtime regression(s) above the %.0f%% threshold\n",
				len(bad), (experiments.BenchRegressionThreshold-1)*100)
			os.Exit(1)
		}
		return
	}
	if *benchJSON != "" {
		prof, err := storage.ProfileByName(*deviceName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "husbench: %v\n", err)
			os.Exit(1)
		}
		names := gen.Names()
		if *datasets != "" {
			names = nil
			for _, n := range strings.Split(*datasets, ",") {
				if n = strings.TrimSpace(n); n != "" {
					names = append(names, n)
				}
			}
		}
		start := time.Now()
		paths, err := r.WriteBenchJSON(*benchJSON, names, prof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "husbench: %v\n", err)
			os.Exit(1)
		}
		for _, p := range paths {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "[bench-json completed in %v]\n", time.Since(start).Round(time.Millisecond))
		return
	}
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
