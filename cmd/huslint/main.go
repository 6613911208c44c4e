// Command huslint runs the project-invariant analyzer suite over the
// repository. It enforces the three contracts no test run can see: file
// data flows through storage.Store (rawio), errors crossing the storage
// boundary are classified and matched structurally (errclass), and no mutex
// is held across a may-block call nor any mutex pair taken in both orders
// (lockhold). Races, leaked goroutines and scratch used after its Put are
// caught by `go test -race` and internal/leaktest, not here.
//
// Usage:
//
//	go run ./cmd/huslint [flags] ./internal/... ./cmd/...
//
// Flags:
//
//	-analyzers a,b   run only the named analyzers (default: all)
//	-list            list available analyzers and exit
//	-timing          print per-analyzer wall time to stderr
//
// Exit status: 0 clean, 1 findings, 2 load or internal failure. Findings
// print in vet style: file:line:col: message [huslint/analyzer] — the form
// .github/huslint-problem-matcher.json turns into PR annotations. A finding
// is suppressed by a `//lint:ignore huslint/<name> <reason>` comment: a
// trailing comment suppresses its own line, a standalone comment the line
// below; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"husgraph/internal/lint"
)

func main() {
	names := flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	timing := flag.Bool("timing", false, "print per-analyzer timing to stderr")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *names != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, n := range strings.Split(*names, ",") {
			a, ok := byName[strings.TrimSpace(n)]
			if !ok {
				fmt.Fprintf(os.Stderr, "huslint: unknown analyzer %q (have %s)\n",
					n, strings.Join(lint.AnalyzerNames(), ", "))
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "huslint: %v\n", err)
		os.Exit(2)
	}
	res, err := lint.Run(wd, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "huslint: %v\n", err)
		os.Exit(2)
	}

	if *timing {
		fmt.Fprintf(os.Stderr, "huslint: load %v, facts %v\n", res.LoadTime, res.FactTime)
		for _, t := range res.Timings {
			fmt.Fprintf(os.Stderr, "huslint: %-12s %v\n", t.Name, t.Duration)
		}
	}

	for _, d := range res.Diags {
		fmt.Println(d)
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(os.Stderr, "huslint: %d finding(s)\n", len(res.Diags))
		os.Exit(1)
	}
}
