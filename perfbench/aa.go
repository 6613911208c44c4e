package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// runAA is the A/A self-check: the same code measured as if it were two
// commits. Every workload is run o.aa times per side, the sides taking
// turns to go first and run i using seed o.seed+i, exactly the shape of a
// parent-versus-change comparison. It writes a markdown report and returns
// a non-zero exit code if, on any workload, the two sides' medians of an
// end-to-end metric differ by more than the metric's bound, a side's own
// quartile spread exceeds the bound, or an operation failed.
func runAA(o options, out io.Writer) int {
	type key struct {
		workload, metric string
		side             int
	}
	samples := map[key][]float64{}
	var report []metricDef
	for _, d := range metricDefs {
		if !d.layer {
			report = append(report, d)
		}
	}
	// The raw seconds ride along ungated, to show what the normalisation
	// by the reference kernel buys.
	report = append(report, metricDef{name: "core.raw_wall_s", unit: "s", bound: math.Inf(1)})

	ops, failed := 0, 0
	for i := 0; i < o.aa; i++ {
		for _, w := range workloads {
			for turn := 0; turn < 2; turn++ {
				side := (turn + i) % 2
				ro := o
				ro.seed = o.seed + int64(i)
				ro.trace = 0
				r, err := runWorkload(ro, w)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench -aa: %s: %v\n", w.name, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "aa %d/%d %s side %c: wall_vs_ref %.4f raw %.4fs setup %.3fs failed %d/%d\n",
					i+1, o.aa, w.name, 'A'+side, r.metrics["wall_vs_ref"], r.metrics["core.raw_wall_s"], r.metrics["setup_s"], r.failed, r.ops)
				ops += r.ops
				failed += r.failed
				for _, d := range report {
					k := key{w.name, d.name, side}
					samples[k] = append(samples[k], r.metrics[d.name])
				}
			}
		}
	}

	fmt.Fprintf(out, "Runs per side and workload: %d (seeds %d..%d), %.0f s timed section, scale %d. Operations: %d, failed: %d.\n\n",
		o.aa, o.seed, o.seed+int64(o.aa)-1, o.seconds, o.scale, ops, failed)
	fmt.Fprintln(out, "A repetition whose iteration count, `read_bytes`, `modeled_s` or `read_ops` differs from the other")
	fmt.Fprintln(out, "repetitions of its run is a failed operation, so 0 failed means these counts were bit-equal across")
	fmt.Fprintln(out, "repetitions in every run of all four workloads, `pr_shard2_cached` included. Spread is the distance")
	fmt.Fprintln(out, "between the quartiles (Python's `statistics.quantiles`) of a side's runs as a share of their median.")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| workload | metric | median A | median B | B vs A | spread A | spread B | bound | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|")
	bad := failed
	for _, w := range workloads {
		for _, d := range report {
			a, b := samples[key{w.name, d.name, 0}], samples[key{w.name, d.name, 1}]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			sa, sb := iqrSpread(a), iqrSpread(b)
			verdict := "ok"
			switch {
			case math.IsInf(d.bound, 1):
				verdict = "not gated"
			case math.Abs(diff) > d.bound:
				verdict = "FAIL: sides differ"
				bad++
			case d.name != "setup_s" && (sa > d.bound || sb > d.bound):
				verdict = "FAIL: spread"
				bad++
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.bound)
			if math.IsInf(d.bound, 1) {
				bound = "—"
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.2f%% | %s | %s |\n",
				w.name, d.name, ma, mb, 100*diff, 100*sa, 100*sb, bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "\nA/A check FAILED (%d).\n", bad)
		return 1
	}
	fmt.Fprintln(out, "\nA/A check passed: on every workload both sides agree within each end-to-end metric's bound.")
	return 0
}
