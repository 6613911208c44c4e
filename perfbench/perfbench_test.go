package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the perfbench binary when the
// harness re-executes itself as the timed child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestBestComposite(t *testing.T) {
	walls := [][]float64{
		{3, 1, 5},
		{2, 4, 1},
		{9, 2, 2},
	}
	if got, want := bestComposite(walls), 2.0+1+1; got != want {
		t.Errorf("bestComposite = %v, want %v", got, want)
	}
	if got := bestPerIndex(walls); got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("bestPerIndex = %v, want [2 1 1]", got)
	}
	if got := bestComposite([][]float64{{1, 2}, {1}}); !math.IsNaN(got) {
		t.Errorf("ragged repetitions gave %v, want NaN", got)
	}
	if got := bestComposite(nil); !math.IsNaN(got) {
		t.Errorf("no repetitions gave %v, want NaN", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.125, 15}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Python: statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45].
	if got, want := iqrSpread(xs), (45.0-15)/30; got != want {
		t.Errorf("iqrSpread = %v, want %v", got, want)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got, want := iqrSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread of 1..10 = %v, want %v", got, want)
	}
	if !math.IsNaN(quantile(nil, 0.25)) {
		t.Error("quantile of nothing should be NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1},
		{Name: "exec", Start: 10, End: 90, Parent: 0},
		// Two engine threads reading at once: 20..50 and 40..60 cover 40 ns
		// of exec between them, not 50.
		{Name: "read", Start: 20, End: 50, Parent: 1},
		{Name: "read", Start: 40, End: 60, Parent: 1},
		{Name: "read", Start: 70, End: 80, Parent: 1},
		// A child that overruns its parent is clipped to it.
		{Name: "end", Start: 95, End: 120, Parent: 0},
	}
	want := []int64{100 - 80 - 5, 80 - 40 - 10, 30, 20, 10, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestRefKernelChecksum(t *testing.T) {
	for _, threads := range []int{1, 2, 3} {
		sum, d := newRefKernel(threads).run()
		if sum != refChecksum {
			t.Errorf("%d threads: checksum %.0f, want %d — the reference kernel is frozen; see refkernel.go", threads, sum, refChecksum)
		}
		if d <= 0 {
			t.Errorf("%d threads: no time measured", threads)
		}
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
		if !d.layer && (d.bound <= 0 || d.bound > 0.25) {
			t.Errorf("end-to-end metric %s has bound %v", d.name, d.bound)
		}
	}
}

// TestBenchmarkJSONMatches: every name BENCHMARK.json declares is printed
// by the harness, with the same unit and bound, and the other way round.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the perfbench directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d is %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	declared := map[string]metric{}
	for _, m := range b.EndToEnd {
		declared[m.Name] = m
	}
	layer := map[string]metric{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m
	}
	for _, d := range metricDefs {
		from, kind := declared, "end_to_end"
		if d.layer {
			from, kind = layer, "per_layer"
		}
		m, ok := from[d.name]
		if !ok {
			t.Errorf("harness prints %s but BENCHMARK.json %s does not declare it", d.name, kind)
			continue
		}
		if m.Unit != d.unit || m.Bound != d.bound {
			t.Errorf("%s: BENCHMARK.json says unit %q bound %v, harness says unit %q bound %v", d.name, m.Unit, m.Bound, d.unit, d.bound)
		}
		delete(from, d.name)
	}
	for name := range declared {
		t.Errorf("BENCHMARK.json end_to_end declares %s, which the harness does not print", name)
	}
	for name := range layer {
		t.Errorf("BENCHMARK.json per_layer declares %s, which the harness does not print", name)
	}
}

// TestSmokeAllWorkloads runs the whole harness — generate, build, timed
// child, checks — on 2¹² vertices, untraced and traced, so that the
// repository's ordinary `go test ./...` covers it.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			o := options{seed: 7, scale: 12, seconds: 0.2, reps: 2, trace: trace, outDir: t.TempDir()}
			r, err := runWorkload(o, w)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if r.failed != 0 || r.ops < 3 {
				t.Errorf("%s trace=%d: %d of %d operations failed: %v", w.name, trace, r.failed, r.ops, r.info.Failures)
			}
			if r.info.GoldenCheck != "skipped" {
				t.Errorf("%s: golden check %q on a non-default scale", w.name, r.info.GoldenCheck)
			}
			f := r.final()
			for _, d := range metricDefs {
				v, ok := f.Metrics[d.name]
				if ok != (d.layer == (trace == 1)) {
					t.Errorf("%s trace=%d: metric %s printed=%v", w.name, trace, d.name, ok)
				}
				if !ok {
					continue
				}
				if _, measured := r.metrics[d.name]; !measured {
					t.Errorf("%s trace=%d: metric %s was never measured", w.name, trace, d.name)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s trace=%d: metric %s = %v", w.name, trace, d.name, v.Value)
				}
				if !d.layer && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
				}
			}
		}
	}
	// Reported, not asserted: a wall-clock limit inside the ordinary test
	// suite would fail on a busy machine for reasons that are not a defect.
	t.Logf("smoke run took %v (target < 10 s)", time.Since(start))
}

// TestGoldenPinsDefaults: the golden file must cover every workload at the
// default seed and scale, or the pin silently stops pinning.
func TestGoldenPinsDefaults(t *testing.T) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	if g.Seed != defaultSeed || g.Scale != defaultScale {
		t.Errorf("golden.json is for seed %d scale %d, defaults are %d and %d", g.Seed, g.Scale, defaultSeed, defaultScale)
	}
	for _, w := range workloads {
		if _, ok := g.Workloads[w.name]; !ok {
			t.Errorf("golden.json has no entry for %s", w.name)
		}
	}
}
