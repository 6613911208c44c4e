// Command perfbench is the repository's measured benchmark (BENCHMARK.json
// at the repository root names it). It generates a graph from a seed, builds
// a dual-block store onto a real storage.FileStore, runs one of four
// workloads in a fresh child process and prints the end-to-end metrics —
// or, with -trace 1, the per-layer ones. It measures the layers from outside,
// through their exported functions only. See README.md in this directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"husgraph/internal/blockstore"
	"husgraph/internal/gen"
	"husgraph/internal/storage"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    int
	reps     int
	outDir   string
	aa       int
}

func main() {
	if os.Getenv(childEnv) != "" {
		if err := childMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the graphs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the timed section per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.IntVar(&o.scale, "scale", defaultScale, "log2 of the vertex count")
	flag.IntVar(&o.reps, "reps", 0, "fixed repetition count (0 = as many as fit in -seconds)")
	flag.StringVar(&o.outDir, "out", filepath.Join("perfbench", "out"), "scratch directory for stores and trace.json")
	flag.IntVar(&o.aa, "aa", 0, "A/A self-check: run every workload this many times on each of two alternating sides and compare")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: unexpected arguments", flag.Args())
		os.Exit(2)
	}
	if o.aa > 0 {
		os.Exit(runAA(o, os.Stdout))
	}
	ws := workloads
	if o.workload != "all" {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	for _, w := range ws {
		r, err := runWorkload(o, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		r.print(os.Stdout)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runInfo is the record of how a run was made; it is printed as its own
// JSON line before the result line.
type runInfo struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Scale       int         `json:"scale"`
	Trace       bool        `json:"trace"`
	NumCPU      int         `json:"nproc"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	GoVersion   string      `json:"go_version"`
	Reps        int         `json:"reps"`
	Iterations  int         `json:"iterations_per_rep"`
	TimedS      float64     `json:"timed_section_s"`
	Builds      int         `json:"builds"`
	Graph       fingerprint `json:"graph"`
	ValuesHash  string      `json:"values_hash"`
	GoldenCheck string      `json:"golden_check"`
	Failures    []string    `json:"failures,omitempty"`
}

// result is one finished run of one workload.
type result struct {
	info    runInfo
	ops     int
	failed  int
	metrics map[string]float64
}

// finalLine is the contract's last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r result) final() finalLine {
	out := finalLine{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range metricDefs {
		if d.layer == r.info.Trace {
			out.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
		}
	}
	return out
}

func (r result) print(w io.Writer) {
	f := r.final()
	fmt.Fprintf(w, "# %s  seed %d  scale %d  ops %d  failed_ops %d (%.3f)\n",
		r.info.Workload, r.info.Seed, r.info.Scale, r.ops, r.failed, float64(r.failed)/float64(r.ops))
	for _, d := range metricDefs {
		if v, ok := f.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-36s %16.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	info, _ := json.Marshal(r.info)
	fmt.Fprintf(w, "%s\n", info)
	line, _ := json.Marshal(f)
	fmt.Fprintf(w, "%s\n", line)
}

// setupRepeats is how many times a run builds the store to take setup_s as
// a median.
const setupRepeats = 3

func threadCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runWorkload is one whole run: generate, build (several times), hand the
// store to a timed child process, check, and collect the metrics.
func runWorkload(o options, w workload) (result, error) {
	traced := o.trace != 0
	metrics := map[string]float64{}

	t0 := time.Now()
	g := buildGraph(w, o.seed, o.scale)
	metrics["gen.graph_s"] = time.Since(t0).Seconds()
	metrics["graph.vertices"] = float64(g.NumVertices)
	metrics["graph.edges"] = float64(len(g.Edges))
	source := gen.BFSSource(g)
	fp := fingerprintOf(g)
	expect := expectedHash(w, g, source)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	runDir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)

	builds := setupRepeats
	if traced {
		builds = 1 // setup_s is an end-to-end metric; the traced run only needs a store
	}
	var setups []float64
	var storeDir string
	for k := 0; k < builds; k++ {
		if storeDir != "" {
			if err := os.RemoveAll(storeDir); err != nil {
				return result{}, err
			}
		}
		storeDir = filepath.Join(runDir, fmt.Sprintf("store-%d", k))
		t0 := time.Now()
		fs, err := storage.NewFileStore(storage.NewDevice(storage.SSD), storeDir)
		if err != nil {
			return result{}, err
		}
		ms := newMeterStore(fs)
		ms.timed = traced
		ds, err := blockstore.BuildOpts(ms, g, blockstore.Options{P: numIntervals, Format: w.format})
		if err != nil {
			return result{}, fmt.Errorf("build: %w", err)
		}
		built := time.Since(t0)
		if _, err := blockstore.Open(ms); err != nil {
			return result{}, fmt.Errorf("open: %w", err)
		}
		total := time.Since(t0)
		setups = append(setups, total.Seconds())
		c := ms.counts()
		metrics["storage.put_ops"] = float64(c.putOps)
		metrics["storage.put_bytes"] = float64(c.putBytes)
		metrics["storage.put_busy_s"] = c.putBusy.Seconds()
		metrics["blockstore.build_s"] = built.Seconds()
		metrics["blockstore.open_s"] = (total - built).Seconds()
		metrics["blockstore.stored_bytes"] = float64(c.putBytes)
		metrics["blockstore.bytes_per_edge"] = float64(ds.TotalEdgeBytes()) / float64(ds.NumEdges())
	}
	metrics["setup_s"] = median(setups)

	threads := threadCount()
	cr, err := execChild(job{
		Workload: w.name, StoreDir: storeDir, Source: source, Expect: expect,
		Seconds: o.seconds, Reps: o.reps, Threads: threads,
		Trace: traced, TraceOut: filepath.Join(o.outDir, "trace.json"),
	})
	if err != nil {
		return result{}, err
	}
	for k, v := range cr.Metrics {
		metrics[k] = v
	}
	r := result{
		ops: cr.Ops, failed: cr.Failed, metrics: metrics,
		info: runInfo{
			Workload: w.name, Seed: o.seed, Scale: o.scale, Trace: traced,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: threads, GoVersion: runtime.Version(),
			Reps: cr.Ops, Iterations: cr.Iters, TimedS: cr.TimedS, Builds: builds,
			Graph: fp, ValuesHash: expect, Failures: cr.Failures,
		},
	}
	r.info.GoldenCheck = checkGolden(o, w, fp, expect)
	if r.info.GoldenCheck != "ok" && r.info.GoldenCheck != "skipped" {
		// The inputs or the correct outputs moved: every operation ran on
		// a workload other than the pinned one.
		r.failed = r.ops
	}
	return r, nil
}

// execChild re-executes this binary as the timed child, hands it the job
// on stdin and decodes what it prints.
func execChild(j job) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("timed child: %w", err)
	}
	var cr childResult
	if err := json.Unmarshal(out.Bytes(), &cr); err != nil {
		return childResult{}, fmt.Errorf("timed child output: %w", err)
	}
	return cr, nil
}

// metricDef declares one metric the harness prints. BENCHMARK.json lists
// the same names, units and bounds; TestBenchmarkJSONMatches keeps the two
// in step.
type metricDef struct {
	name  string
	unit  string
	layer bool    // per-layer (traced run) rather than end-to-end
	bound float64 // end-to-end only
}

func layerMetric(name, unit string) metricDef {
	return metricDef{name: name, unit: unit, layer: true}
}

var metricDefs = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "wall_vs_ref", unit: "x", bound: 0.20},
	{name: "read_bytes", unit: "B", bound: 0.08},
	{name: "read_ops", unit: "count", bound: 0.08},
	{name: "modeled_s", unit: "s", bound: 0.08},
	{name: "allocs_per_iter", unit: "count", bound: 0.10},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},

	layerMetric("gen.graph_s", "s"),
	layerMetric("graph.vertices", "count"),
	layerMetric("graph.edges", "count"),

	layerMetric("storage.put_ops", "count"),
	layerMetric("storage.put_bytes", "B"),
	layerMetric("storage.put_busy_s", "s"),
	layerMetric("blockstore.build_s", "s"),
	layerMetric("blockstore.open_s", "s"),
	layerMetric("blockstore.stored_bytes", "B"),
	layerMetric("blockstore.bytes_per_edge", "B/edge"),

	layerMetric("storage.read_ops", "count"),
	layerMetric("storage.read_bytes", "B"),
	layerMetric("storage.read_busy_s", "s"),
	layerMetric("storage.seq_ops", "count"),
	layerMetric("storage.rand_ops", "count"),
	layerMetric("storage.bytes_per_op", "B/op"),
	layerMetric("storage.read_errors", "count"),

	layerMetric("blockstore.load_in_sweep_s", "s"),
	layerMetric("blockstore.verify_decode_self_s", "s"),
	layerMetric("blockstore.load_outidx_sweep_s", "s"),
	layerMetric("blockstore.decode_s", "s"),
	layerMetric("blockstore.decoded_bytes", "B"),
	layerMetric("blockstore.compressed_bytes", "B"),

	layerMetric("blockstore.cache_hits", "count"),
	layerMetric("blockstore.cache_misses", "count"),
	layerMetric("blockstore.cache_evictions", "count"),
	layerMetric("blockstore.cache_hit_ratio", "x"),
	layerMetric("blockstore.cache_getput_ns", "ns"),

	layerMetric("blockstore.prefetch_stall_s", "s"),
	layerMetric("blockstore.prefetch_unused_bytes", "B"),

	layerMetric("ioplan.cop_plan_s", "s"),
	layerMetric("ioplan.rop_plan_s", "s"),
	layerMetric("ioplan.plan_keys", "count"),
	layerMetric("ioplan.drain_s", "s"),

	layerMetric("core.begin_s", "s"),
	layerMetric("core.predict_s", "s"),
	layerMetric("core.exec_s", "s"),
	layerMetric("core.exec_self_s", "s"),
	layerMetric("core.finalize_s", "s"),
	layerMetric("core.end_s", "s"),
	layerMetric("core.iters", "count"),
	layerMetric("core.rop_iters", "count"),
	layerMetric("core.cop_iters", "count"),
	layerMetric("core.active_edges", "count"),
	layerMetric("core.rop_wall_share", "x"),

	layerMetric("core.raw_wall_s", "s"),
	layerMetric("core.cpu_s", "s"),
	layerMetric("core.edges_per_s", "1/s"),
	layerMetric("core.gc_pause_s", "s"),
	layerMetric("core.alloc_bytes_per_iter", "B"),

	layerMetric("bitset.countin_ns", "ns"),
	layerMetric("bitset.rangein_ns_per_member", "ns"),
	layerMetric("bitset.merge_ns", "ns"),

	layerMetric("shard.skew", "x"),
	layerMetric("shard.exchange_bytes", "B"),
	layerMetric("shard.merge_modeled_s", "s"),
	layerMetric("shard.wall_over_k1", "x"),

	layerMetric("ref.p05_s", "s"),
	layerMetric("ref.samples", "count"),
	layerMetric("ref.spread", "x"),
	layerMetric("trace.overhead_ratio", "x"),
	layerMetric("trace.self_sum_ratio", "x"),
}
