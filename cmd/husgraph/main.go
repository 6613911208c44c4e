// Command husgraph runs one graph algorithm on one dataset with a chosen
// engine, update model and device profile, printing per-iteration traces
// and totals.
//
// Usage:
//
//	husgraph [-dataset twitter-sim | -input edges.txt] -algo BFS
//	         [-system hus|graphchi|gridgraph|xstream]
//	         [-model hybrid|rop|cop] [-device hdd|ssd|nvme|ram] [-threads N]
//	         [-p P | -membudget BYTES] [-shards K] [-delta W] [-format raw|mixed]
//	         [-trace] [-stats] [-store DIR]
//	         [-valuesout FILE] [-prefetch DEPTH] [-cache-mb MB]
//	         [-checkpoint N] [-resume] [-retries N] [-retry-backoff D]
//	         [-read-deadline D] [-fault-transient N] [-fault-bitflip N]
//	         [-fault-stall N] [-fault-after N] [-fault-seed S]
//
// -prefetch enables the asynchronous block-prefetch pipeline (DEPTH worker
// goroutines reading ahead of the executor); -cache-mb retains hot blocks,
// as stored, across iterations under a byte budget (an insert evicts only
// blocks unused for two iterations, so a scan keeps what fits; DESIGN.md
// §4c, §4d).
// Both leave results bit-identical to the synchronous configuration; -stats
// prints the per-iteration cache and prefetch numbers that validate them.
//
// Algorithm names are case-insensitive. -algo sssp-delta and -algo coreness
// run bucketed (priority-ordered) execution: activated vertices are parked
// in priority buckets at the iteration barrier and each iteration processes
// exactly the next bucket — delta-stepping's distance buckets and coreness
// peeling's degree buckets. -delta W overrides delta-stepping's bucket
// width in distance units (sssp-delta only, rejected elsewhere); results
// are identical at any width, only the iteration schedule changes. Bucketed
// runs cannot be combined with -checkpoint or -resume — the parked bucket
// state is not derivable from a value checkpoint.
//
// -shards K runs the hus engine as K worker shards, each owning P/K
// contiguous intervals with its own store handle, cache-budget slice and
// I/O scheduler, over one pair of shared vertex arrays; their frontier
// pieces are merged at the iteration barrier (internal/shard). Results are
// bit-identical to -shards 1 at every K; K must divide P — rejected at
// startup otherwise. -stats adds the per-shard table.
//
// The flags only the hus engine reads (husOnlyFlags below) are startup
// errors under any other -system, not silently ignored; so are the flags
// that only apply alongside another one (flagNeeds) typed without it, a flag
// typed beside one that overrides it (flagOverrides: -p beside -membudget
// B > 0, which chooses P itself, and -dataset beside -input, which replaces
// it), a negative value for any numeric flag but -fault-seed
// (negativeFlag), a -cache-mb whose budget in bytes overflows int64, and a
// -delta that is not > 0 (NaN included).
//
// With -input, a whitespace edge list ("src dst [weight]" per line) is
// processed instead of a registry dataset (-dataset is then an error). With
// -store, the dual-block representation is kept in real files under DIR
// instead of memory.
//
// -format mixed compresses the in-blocks COP streams: each block's
// (destination, source) keys, tile by tile, are stored as group-varint
// deltas where that is smaller and as plain records where it is not,
// trading CPU decode for disk bandwidth. For the out-blocks and out-indices
// ROP reads by offset, every format is raw.
//
// The summary's wall time is the run alone for -system hus: building the
// store (and reopening it behind the fault injector) is printed on its own
// build time line, as the device's counters drop it from the modeled
// accounting. For a baseline system the wall time covers its run with its
// own preprocessing, which it does not report apart.
//
// Vertex values, degrees and frontiers always live in memory and only
// edges and their indices are read from the store (GraphMP's
// semi-external design), so every run charges the device for edge I/O
// alone.
//
// The fault flags wrap the store in a deterministic fault injector (reads
// only, after the store is built) to demonstrate the durability machinery:
// -fault-transient faults are ridden out by -retries, while -fault-bitflip
// corruption is caught by the per-block checksums and fails the run rather
// than producing wrong values. -fault-stall hangs reads forever: each such
// attempt fails transient at -read-deadline and costs one of -retries.
//
// -read-deadline bounds every block/index read attempt: one still
// unanswered at the deadline fails transient and is retried under -retries.
//
// Exit codes classify the outcome for wrappers: 0 success, 1 generic
// failure, 2 transient-fault retry budget exhausted, 3 permanent device
// error, 4 corrupt data (checksum mismatch). 5 is retired — older builds
// exited 5 after a degraded-but-correct run — and must not be reused.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/experiments"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/report"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "husgraph: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// exitCode classifies a run error by fault class: corrupt data beats a
// permanent device error beats an exhausted transient budget beats
// anything else. Classification is by errors.Is over the storage
// taxonomy, never by error text.
func exitCode(err error) int {
	switch {
	case errors.Is(err, storage.ErrCorrupt):
		return 4
	case errors.Is(err, storage.ErrPermanent):
		return 3
	case errors.Is(err, storage.ErrTransient):
		return 2
	default:
		return 1
	}
}

func run(args []string) error {
	flags := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	dataset := flags.String("dataset", "livejournal-sim", "registry dataset name (see husgen -list)")
	input := flags.String("input", "", "edge-list file to load instead of a registry dataset")
	algoName := flags.String("algo", "PageRank", "algorithm (case-insensitive): PageRank|BFS|WCC|SSSP|PageRank-Delta|KCore|PPR|SSSP-Delta|Coreness")
	system := flags.String("system", "hus", "engine: hus|graphchi|gridgraph|xstream (for hus the wall time is the run alone, the store build on its own line; for a baseline it includes the baseline's preprocessing)")
	modelName := flags.String("model", "hybrid", "update model for hus: hybrid|rop|cop")
	deviceName := flags.String("device", "hdd", "device profile: hdd|ssd|nvme|ram")
	threads := flags.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	p := flags.Int("p", 8, "partition count")
	shards := flags.Int("shards", 1, "worker-shard count K: run the engine as K interval-owning shards merged at the iteration barrier; must divide P, bit-identical results at every K (hus only)")
	memBudget := flags.Int64("membudget", 0, "if > 0, choose P so one block's working set fits this many bytes (paper §3.2)")
	trace := flags.Bool("trace", false, "print per-iteration statistics")
	storeDir := flags.String("store", "", "keep the dual-block store in real files under this directory")
	formatName := flags.String("format", "raw", "block record format: raw|mixed (mixed stores COP's in-blocks as group-varint key deltas where that is smaller; ROP's out-blocks and out-indices stay raw)")
	valuesOut := flags.String("valuesout", "", "write final vertex values to this file (one 'vertex value' line each)")
	checkpointEvery := flags.Int("checkpoint", 0, "persist a resumable checkpoint every N iterations (0 = off; hus only)")
	resume := flags.Bool("resume", false, "resume from a persisted checkpoint when one exists (hus only)")
	prefetch := flags.Int("prefetch", 0, "asynchronous block-prefetch depth overlapping I/O with compute (0 = synchronous loads; hus only)")
	cacheMB := flags.Int64("cache-mb", 0, "hot-block cache budget in MiB, retaining blocks as stored across iterations (0 = off; hus only)")
	stats := flags.Bool("stats", false, "print per-iteration cache and prefetch statistics (hit ratio, stall; hus only)")
	retries := flags.Int("retries", 0, "retry reads failing with a transient fault up to N times each, with exponential backoff")
	retryBackoff := flags.Duration("retry-backoff", 0, "initial backoff before the first read retry (0 = 1ms default)")
	readDeadline := flags.Duration("read-deadline", 0, "per-attempt read timeout; an attempt still unanswered at the deadline fails transient, into -retries (0 = unbounded)")
	faultTransient := flags.Int("fault-transient", 0, "inject N transient read faults (demonstrates -retries)")
	faultBitflip := flags.Int("fault-bitflip", 0, "inject N single-bit read corruptions (demonstrates checksum detection)")
	faultStall := flags.Int("fault-stall", 0, "inject N reads hung forever (requires -read-deadline: each hung attempt times out and costs one of -retries)")
	faultAfter := flags.Int64("fault-after", 10, "number of healthy reads before injected faults begin")
	faultSeed := flags.Int64("fault-seed", 1, "seed for the deterministic fault injector")
	delta := flags.Float64("delta", 0, "bucket width for delta-stepping (-algo SSSP-Delta only; 0 keeps the registered width)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if err := negativeFlag(flags); err != nil {
		return err
	}
	if *cacheMB > math.MaxInt64>>20 { // its budget in bytes would overflow int64
		return fmt.Errorf("-cache-mb %d: above %d, the most MiB a budget in bytes can hold", *cacheMB, int64(math.MaxInt64>>20))
	}
	if *p == 0 { // every -system partitions; a baseline would take 0 for its default of 8
		return fmt.Errorf("-p 0: need at least one interval, got P = 0")
	}

	explicit := map[string]bool{}
	flags.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := husOnly(*system, explicit); err != nil {
		return err
	}
	on := map[string]bool{
		"store": *storeDir != "", "retries": *retries > 0,
		"fault-transient": *faultTransient > 0, "fault-bitflip": *faultBitflip > 0,
		"fault-stall": *faultStall > 0, "membudget": *memBudget > 0, "input": *input != "",
	}
	if err := needsMet(explicit, on); err != nil {
		return err
	}
	if err := overridden(explicit, on); err != nil {
		return err
	}
	shardK, err := shardsConfig(*shards, *p, explicit["membudget"] && *memBudget > 0)
	if err != nil {
		return err
	}
	if *faultStall > 0 && *readDeadline <= 0 {
		// A stalled read never returns; without a deadline to time it out
		// the run would hang rather than fail. Reject the combination up front.
		return fmt.Errorf("-fault-stall requires -read-deadline > 0, or the run will hang")
	}

	prof, err := storage.ProfileByName(*deviceName)
	if err != nil {
		return err
	}
	algo, err := experiments.AlgoByName(*algoName)
	if err != nil {
		return err
	}
	if explicit["delta"] {
		// Same fail-at-startup spirit as -shards: a width that cannot
		// apply is an error, not a silently ignored flag.
		if algo.Name != "SSSP-Delta" {
			return fmt.Errorf("-delta applies only to -algo SSSP-Delta, not %s", algo.Name)
		}
		if !(*delta > 0) { // NaN too, which no comparison holds for
			return fmt.Errorf("-delta %g: bucket width must be > 0", *delta)
		}
		w := *delta
		algo.New = func(g *graph.Graph) core.Program {
			return algos.DeltaSSSP{Source: gen.BFSSource(g), Delta: w}
		}
	}

	var g *graph.Graph
	if *input != "" {
		//lint:ignore huslint/rawio user-supplied edge-list input at the CLI boundary; ingested before any storage.Store exists
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		if g, err = graph.ReadEdgeList(f, 0); err != nil {
			return err
		}
		fmt.Printf("loaded %s: %d vertices, %d edges\n", *input, g.NumVertices, g.NumEdges())
	} else {
		d, err := gen.ByName(*dataset)
		if err != nil {
			return err
		}
		g = d.Build()
		fmt.Printf("generated %s: %d vertices, %d edges\n", d.Name, g.NumVertices, g.NumEdges())
	}

	var res *core.Result
	var faults *storage.FaultStore
	var build time.Duration // the hus store's build, and its fault reopen
	sysName := *system
	start := time.Now()
	if sysName == "hus" {
		model, err := core.ParseModel(*modelName)
		if err != nil {
			return err
		}
		input := g
		if algo.Symmetric {
			input = g.Symmetrize()
		}
		var st storage.Store
		dev := storage.NewDevice(prof)
		if *storeDir != "" {
			fs, err := storage.NewFileStore(dev, *storeDir)
			if err != nil {
				return err
			}
			defer fs.Close()
			st = fs
		} else {
			st = storage.NewMemStore(dev)
		}
		format, err := blockstore.ParseFormat(*formatName)
		if err != nil {
			return err
		}
		partitions := *p
		if *memBudget > 0 {
			partitions = blockstore.ChooseP(input.NumVertices, int64(input.NumEdges()), algo.Weighted, *memBudget)
			fmt.Printf("memory budget %d B -> P = %d\n", *memBudget, partitions)
		}
		ds, err := blockstore.BuildOpts(st, input, blockstore.Options{P: partitions, Format: format, Weighted: algo.Weighted})
		if err != nil {
			return err
		}
		if *faultTransient > 0 || *faultBitflip > 0 || *faultStall > 0 {
			// Wrap the built store so faults hit the run's reads, not the
			// preprocessing writes.
			faults = storage.NewFaultStore(st, *faultSeed)
			if *faultTransient > 0 {
				faults.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, After: *faultAfter, Count: int64(*faultTransient)})
			}
			if *faultBitflip > 0 {
				faults.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultBitFlip, After: *faultAfter, Count: int64(*faultBitflip)})
			}
			if *faultStall > 0 {
				faults.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultStall, After: *faultAfter, Count: int64(*faultStall)})
			}
			// Timed-out attempts stay parked on the stall gate; unpark them
			// on the way out so the process exits cleanly.
			defer faults.ReleaseStalled()
			if ds, err = blockstore.Open(faults); err != nil {
				return err
			}
		}
		dev.Reset() // exclude preprocessing from the run accounting
		build, start = time.Since(start), time.Now()
		cfg := core.Config{
			Model:            model,
			Threads:          *threads,
			MaxIters:         algo.MaxIters,
			CheckpointEvery:  *checkpointEvery,
			Resume:           *resume,
			ReadRetries:      *retries,
			RetryBackoff:     *retryBackoff,
			ReadDeadline:     *readDeadline,
			PrefetchDepth:    *prefetch,
			CacheBudgetBytes: *cacheMB << 20,
		}
		co, err := shard.New(ds, shard.Config{Config: cfg, Shards: shardK})
		if err != nil {
			return err
		}
		if res, err = co.Run(algo.New(g)); err != nil {
			return err
		}
	} else {
		r := experiments.NewRunner(experiments.Options{Threads: *threads, P: *p})
		var full string
		switch sysName {
		case "graphchi":
			full = "GraphChi"
		case "gridgraph":
			full = "GridGraph"
		case "xstream":
			full = "X-Stream"
		default:
			return fmt.Errorf("unknown system %q (want hus|graphchi|gridgraph|xstream)", sysName)
		}
		d, err := gen.ByName(*dataset)
		if err != nil {
			return err
		}
		if res, err = r.RunBaseline(full, d, algo, prof, *threads); err != nil {
			return err
		}
	}
	wall := time.Since(start)

	if *trace {
		t := report.NewTable("per-iteration trace",
			"iter", "model", "active V", "active E", "I/O MB", "I/O time", "compute", "runtime")
		for _, it := range res.Iterations {
			t.AddRow(
				fmt.Sprintf("%d", it.Iter+1),
				it.Model.String(),
				fmt.Sprintf("%d", it.ActiveVertices),
				fmt.Sprintf("%d", it.ActiveEdges),
				report.MB(it.IO.TotalBytes()),
				it.IOTime.Round(time.Microsecond).String(),
				it.ComputeModeled.Round(time.Microsecond).String(),
				it.Runtime.Round(time.Microsecond).String(),
			)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if *stats {
		// Per-iteration validation of the predictor and the prefetch
		// pipeline: the aggregate totals in Result hide whether cache hits
		// and stalls actually line up with the iterations the predictor
		// priced them into.
		t := report.NewTable("per-iteration cache/prefetch stats",
			"iter", "model", "cache hits", "misses", "hit %", "stall")
		for _, it := range res.Iterations {
			hitRate := 0.0
			if total := it.CacheHits + it.CacheMisses; total > 0 {
				hitRate = 100 * float64(it.CacheHits) / float64(total)
			}
			t.AddRow(
				fmt.Sprintf("%d", it.Iter+1),
				it.Model.String(),
				fmt.Sprintf("%d", it.CacheHits),
				fmt.Sprintf("%d", it.CacheMisses),
				fmt.Sprintf("%.1f", hitRate),
				it.PrefetchStall.Round(time.Microsecond).String(),
			)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if *stats && len(res.Iterations) > 0 && res.Iterations[0].Bucketed {
		// Bucketed runs: the priority schedule — which bucket each
		// iteration drained and how many vertices stayed parked behind it.
		t := report.NewTable("per-iteration bucket schedule",
			"iter", "model", "bucket pri", "parked", "active V", "active E")
		for _, it := range res.Iterations {
			t.AddRow(
				fmt.Sprintf("%d", it.Iter+1),
				it.Model.String(),
				fmt.Sprintf("%d", it.BucketPri),
				fmt.Sprintf("%d", it.BucketPending),
				fmt.Sprintf("%d", it.ActiveVertices),
				fmt.Sprintf("%d", it.ActiveEdges),
			)
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if *stats && shardK > 1 {
		// The sharded view: one row per iteration per shard, plus the
		// barrier merge the coordinator priced for each iteration.
		t := report.NewTable("per-shard execution stats",
			"iter", "shard", "model", "active E", "I/O MB", "I/O time", "runtime", "merge", "skew")
		for _, it := range res.Iterations {
			for _, ss := range it.Shards {
				t.AddRow(
					fmt.Sprintf("%d", it.Iter+1),
					fmt.Sprintf("%d", ss.Shard),
					ss.Stats.Model.String(),
					fmt.Sprintf("%d", ss.Stats.ActiveEdges),
					report.MB(ss.Stats.IO.TotalBytes()),
					ss.Stats.IOTime.Round(time.Microsecond).String(),
					ss.Stats.Runtime.Round(time.Microsecond).String(),
					it.MergeTime.Round(time.Microsecond).String(),
					fmt.Sprintf("%.2f", it.ShardSkew),
				)
			}
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	if *valuesOut != "" {
		//lint:ignore huslint/rawio human-readable result export at the CLI boundary; not graph block data
		f, err := os.Create(*valuesOut)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for v, val := range res.Values {
			fmt.Fprintf(w, "%d %g\n", v, val)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d values to %s\n", len(res.Values), *valuesOut)
	}

	rop, cop := res.ModelCounts()
	fmt.Println(summaryLabel(algo.Name, sysName, *dataset, *input, prof.Name))
	fmt.Printf("  iterations:     %d (converged: %v; %d ROP, %d COP)\n", res.NumIterations(), res.Converged, rop, cop)
	fmt.Printf("  modeled runtime:  %v (I/O %v, compute %v)\n",
		res.TotalRuntime().Round(time.Microsecond), res.TotalIOTime().Round(time.Microsecond), res.TotalComputeModeled().Round(time.Microsecond))
	fmt.Printf("  I/O amount:     %s MB (%s)\n", report.MB(res.TotalIO().TotalBytes()), res.TotalIO())
	if db, cb := res.TotalDecodedBytes(), res.TotalCompressedBytes(); db > 0 && cb > 0 {
		fmt.Printf("  compressed in-blocks: %s MB folded as stored (%s MB as records, %.2fx)\n",
			report.MB(cb), report.MB(db), float64(db)/float64(cb))
	}
	if build > 0 {
		fmt.Printf("  build time:     %v\n", build.Round(time.Millisecond))
	}
	fmt.Printf("  wall time:      %v\n", wall.Round(time.Millisecond))
	if *cacheMB > 0 || *prefetch > 0 {
		c := res.Cache
		fmt.Printf("  cache/prefetch: %d hits, %d misses (%.1f%% hit rate), %d evictions, %s MB resident, %s MB read ahead unused\n",
			c.Hits, c.Misses, 100*c.HitRate(), c.Evictions, report.MB(c.BytesUsed), report.MB(res.PrefetchUnusedBytes))
		if c.RunHits+c.RunMisses > 0 || c.Promotions > 0 || c.AdmissionRejected > 0 {
			fmt.Printf("  run cache:      %d run hits, %d run misses, %d block promotions, %d admission rejections\n",
				c.RunHits, c.RunMisses, c.Promotions, c.AdmissionRejected)
		}
	}
	if shardK > 1 {
		fmt.Printf("  sharding:       %d shards, merge %v, worst skew %.2f\n",
			shardK, res.TotalMergeTime().Round(time.Microsecond), res.MaxShardSkew())
	}
	if *retries > 0 || *checkpointEvery > 0 || *resume || *readDeadline > 0 {
		rec := res.Recovery
		fmt.Printf("  recovery:       %d read retries, %d checkpoint(s) written, resumed at iteration %d, %d corrupt generation(s) skipped\n",
			rec.Retries, rec.CheckpointsWritten, rec.ResumedIter, rec.CheckpointFallbacks)
	}
	if faults != nil {
		fmt.Printf("  injected:       %v\n", faults.Counters())
	}
	return nil
}

// summaryLabel is the summary's first line: the canonical algorithm name,
// the system, the graph that was actually processed — the -input path when
// one was given, the registry dataset otherwise — and the device profile.
func summaryLabel(algo, system, dataset, input, device string) string {
	if input != "" {
		dataset = input
	}
	return fmt.Sprintf("%s / %s on %s (%s)", algo, system, dataset, device)
}

// husOnlyFlags are the flags only the hus engine reads; the baseline
// systems would ignore every one of them.
var husOnlyFlags = []string{
	"input", "model", "format", "store", "membudget", "shards",
	"checkpoint", "resume", "prefetch", "cache-mb", "stats",
	"retries", "retry-backoff", "read-deadline",
	"fault-transient", "fault-bitflip", "fault-stall", "fault-after", "fault-seed",
}

// husOnly rejects a hus-only flag set on the command line under another
// -system: a flag that cannot apply is a startup error, not a silently
// ignored one.
func husOnly(system string, explicit map[string]bool) error {
	if system == "hus" {
		return nil
	}
	for _, name := range husOnlyFlags {
		if explicit[name] {
			return fmt.Errorf("-%s is hus-only, but -system %s was selected; drop -%s or use -system hus", name, system, name)
		}
	}
	return nil
}

// negativeFlag rejects a negative value typed for a numeric flag. Every one
// of them counts, sizes or times something, and 0 is its "off" or its
// default, so a negative value is a typo to report, not a request to treat
// as off. The fault seed is the exception: it names a schedule, and any
// int64 names one.
func negativeFlag(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil || f.Name == "fault-seed" {
			return
		}
		neg := false
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case int64:
			neg = v < 0
		case float64:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg {
			err = fmt.Errorf("-%s %s: a negative value has no meaning; 0 or leaving it out is the default", f.Name, f.Value)
		}
	})
	return err
}

// faultCounts are the flags that arm the fault injector.
var faultCounts = []string{"fault-transient", "fault-bitflip", "fault-stall"}

// flagNeeds lists the flags that can only take effect alongside another:
// -resume reads a checkpoint, which only a -store directory can hold (the
// in-memory store is built fresh by this process); -retry-backoff paces
// -retries; -fault-after and -fault-seed schedule injected faults.
var flagNeeds = []struct {
	flag  string
	needs []string // any one of them on will do
}{
	{"resume", []string{"store"}},
	{"retry-backoff", []string{"retries"}},
	{"fault-after", faultCounts},
	{"fault-seed", faultCounts},
}

// needsMet rejects a flag typed on the command line without any flag it
// needs being on — set to a value that takes effect: a flag that cannot
// apply is a startup error, not a silently ignored one.
func needsMet(explicit, on map[string]bool) error {
	for _, f := range flagNeeds {
		if explicit[f.flag] && !slices.ContainsFunc(f.needs, func(n string) bool { return on[n] }) {
			return fmt.Errorf("-%s has no effect without -%s", f.flag, strings.Join(f.needs, " or -"))
		}
	}
	return nil
}

// flagOverrides lists the flags another one makes moot when it is on:
// -membudget chooses P from the working-set budget, so a typed -p would be
// dropped, and -input replaces the registry dataset -dataset names.
var flagOverrides = []struct{ flag, by string }{
	{"p", "membudget"},
	{"dataset", "input"},
}

// overridden rejects a flag typed on the command line alongside one that is
// on and overrides it: a flag that cannot apply is a startup error, not a
// silently ignored one.
func overridden(explicit, on map[string]bool) error {
	for _, f := range flagOverrides {
		if explicit[f.flag] && on[f.by] {
			return fmt.Errorf("-%s has no effect with -%s, which overrides it; drop one of them", f.flag, f.by)
		}
	}
	return nil
}

// shardsConfig validates the -shards value: a shard count that cannot work
// is a startup error, not a silent fallback. K must divide the partition
// count — except under -membudget, where P is chosen later from the
// working-set budget; the coordinator re-validates divisibility against the
// resolved P either way.
func shardsConfig(shards, p int, memBudgetP bool) (int, error) {
	if shards < 0 {
		return 0, fmt.Errorf("-shards %d: shard count must be >= 1", shards)
	}
	if shards == 0 {
		return 1, nil
	}
	if !memBudgetP && p%shards != 0 {
		return 0, fmt.Errorf("-shards %d does not evenly divide -p %d; pick a divisor of P", shards, p)
	}
	return shards, nil
}
