package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// childEnv marks a process as the timed child. The parent generates the
// graph and builds the store; the child, a fresh process, only opens the
// store and runs the engine, so its peak RSS is the engine's and the
// generator's heap is not there to slow it.
const childEnv = "PERFBENCH_CHILD"

// job is what the parent hands the child on stdin.
type job struct {
	Workload string         `json:"workload"`
	StoreDir string         `json:"store_dir"`
	Source   graph.VertexID `json:"source"`
	Expect   string         `json:"expect"` // hash of the correct final values
	Seconds  float64        `json:"seconds"`
	Reps     int            `json:"reps"` // fixed repetition count; 0 = as many as fit in Seconds
	Threads  int            `json:"threads"`
	Trace    bool           `json:"trace"`
	TraceOut string         `json:"trace_out"`
}

// childResult is what the child prints on stdout.
type childResult struct {
	Ops      int                `json:"ops"`
	Failed   int                `json:"failed"`
	Failures []string           `json:"failures,omitempty"`
	Iters    int                `json:"iters"`
	TimedS   float64            `json:"timed_s"`
	Metrics  map[string]float64 `json:"metrics"`
}

func childMain(in io.Reader, out io.Writer) error {
	var j job
	if err := json.NewDecoder(in).Decode(&j); err != nil {
		return fmt.Errorf("child: reading job: %w", err)
	}
	w, err := workloadByName(j.Workload)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(j.Threads)
	fs, err := storage.NewFileStore(storage.NewDevice(storage.SSD), j.StoreDir)
	if err != nil {
		return err
	}
	ms := newMeterStore(fs)
	ds, err := blockstore.Open(ms)
	if err != nil {
		return err
	}
	c := &child{job: j, w: w, ms: ms, ds: ds, ref: newRefKernel(j.Threads)}
	c.res.Metrics = map[string]float64{}
	budget := time.Duration(j.Seconds * float64(time.Second))
	if j.Trace {
		// The traced run splits its time: untraced repetitions give the
		// diagnostics and the base of trace.overhead_ratio, traced ones
		// the spans, and the layer probes take what they take.
		budget = budget * 2 / 5
	}
	c.measure(budget)
	if j.Trace {
		if err := c.traced(budget); err != nil {
			return err
		}
	} else {
		c.measureMemory()
	}
	return json.NewEncoder(out).Encode(c.res)
}

type child struct {
	job job
	w   workload
	ms  *meterStore
	ds  *blockstore.DualStore
	ref *refKernel
	res childResult

	// Kept from measure for the traced half: the best-composite wall of
	// the iterations alone (without the tail after the last one) and the
	// model each iteration ran.
	iterWall float64
	models   []core.Model
}

// cacheBudget is the workload's share of the in-column working set: every
// in-block's stored payload plus its index, which is what the block cache
// charges for holding it.
func (c *child) cacheBudget() int64 {
	if c.w.cacheShare == 0 {
		return 0
	}
	var total int64
	for i := 0; i < c.ds.Layout.P; i++ {
		for j := 0; j < c.ds.Layout.P; j++ {
			total += c.ds.InBlockBytes[i][j] + c.ds.InIndexBytes(i, j)
		}
	}
	return int64(c.w.cacheShare * float64(total))
}

// engineConfig is the configuration every repetition runs under.
func (c *child) engineConfig(onIter func(core.IterStats)) core.Config {
	threads := c.job.Threads
	if c.w.shards > 1 {
		threads = 1 // per shard; the shards are the parallelism
	}
	return core.Config{
		Threads:          threads,
		Model:            core.ModelHybrid,
		MaxIters:         c.w.maxIters(),
		PrefetchDepth:    prefetchDepth,
		CacheBudgetBytes: c.cacheBudget(),
		OnIteration:      onIter,
	}
}

// runOnce runs the workload once, as a user would.
func (c *child) runOnce(shards int, onIter func(core.IterStats)) (*core.Result, error) {
	prog := c.w.program(c.job.Source)
	cfg := c.engineConfig(onIter)
	if c.w.shards > 1 {
		co, err := shard.New(c.ds, shard.Config{Config: cfg, Shards: shards})
		if err != nil {
			return nil, err
		}
		return co.Run(prog)
	}
	return core.New(c.ds, cfg).Run(prog)
}

// iterClock turns OnIteration callbacks into per-iteration wall times and
// interleaves the reference kernel with them. The kernel's own time is
// excluded from the iteration walls.
type iterClock struct {
	ref      *refKernel
	mark     time.Time     // start of the iteration in progress
	sinceRef time.Duration // engine time since the last reference sample
	walls    []float64     // this repetition's iteration walls, seconds
	samples  []float64     // reference samples of the whole run, seconds
}

// refEvery is the engine time that must pass between reference samples;
// minRefSamples is the fewest a run takes a quantile of.
const (
	refEvery      = 100 * time.Millisecond
	minRefSamples = 8
	refQuantile   = 0.05 // the reference time is this quantile of the run's samples
)

func (k *iterClock) startRep() {
	k.walls = k.walls[:0]
	k.mark = time.Now()
}

func (k *iterClock) tick() {
	now := time.Now()
	d := now.Sub(k.mark)
	k.walls = append(k.walls, d.Seconds())
	k.sinceRef += d
	if k.ref != nil && k.sinceRef >= refEvery {
		_, t := k.ref.run()
		k.samples = append(k.samples, t.Seconds())
		k.sinceRef = 0
		now = time.Now()
	}
	k.mark = now
}

func (c *child) fail(format string, args ...any) {
	c.res.Failed++
	if len(c.res.Failures) < 8 {
		c.res.Failures = append(c.res.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one repetition and fails it if it erred or its final values
// are not the expected ones.
func (c *child) check(what string, res *core.Result, err error) bool {
	c.res.Ops++
	if err != nil {
		c.fail("%s: %v", what, err)
		return false
	}
	if h := hashValues(res.Values); h != c.job.Expect {
		c.fail("%s: values hash %s, want %s", what, h, c.job.Expect)
		return false
	}
	return true
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set. It reads VmHWM rather than
// getrusage's ru_maxrss: Linux carries ru_maxrss across fork and exec, so
// in this child it would report the parent's peak — the generator's heap.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// memoryReps is how many repetitions peak_rss_mb is the median of.
const memoryReps = 9

// measureMemory takes peak_rss_mb: the peak resident set of one repetition
// that starts from a collected heap whose free pages went back to the
// system, median over memoryReps repetitions. The process-wide peak is an
// extreme value — one coincidence of garbage-collector timing and pooled
// scratch buffers in thousands of block loads sets it — and moved by 15 %
// between identical runs. A repetition's own peak still scatters by ±6 %
// (where the collector's cycles fall), which is why it is taken nine times.
// Writing 5 to /proc/self/clear_refs resets VmHWM; where that is refused
// the figure degrades to the process-wide peak. The reference kernel's 24 MB
// are dropped first: this is the engine's memory.
func (c *child) measureMemory() {
	if c.iterWall == 0 {
		return // the timed section failed; the run is already incorrect
	}
	c.ref = nil
	var peaks []float64
	for rep := 0; rep < memoryReps; rep++ {
		debug.FreeOSMemory()
		_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
		res, err := c.runOnce(c.w.shards, nil)
		if c.check(fmt.Sprintf("memory rep %d", rep), res, err) {
			peaks = append(peaks, peakRSSMB())
		}
	}
	if len(peaks) > 0 {
		c.res.Metrics["peak_rss_mb"] = median(peaks)
	}
}

// measure is the untraced timed section: repetitions back to back for the
// budget, every iteration clocked from outside through OnIteration.
func (c *child) measure(budget time.Duration) {
	clock := &iterClock{ref: c.ref}
	c.ref.run() // fault the kernel's pages in before it is timed

	// One untimed repetition lets scratch pools, the heap and the page
	// cache settle; it is still an operation whose output is checked.
	clock.ref = nil
	clock.startRep()
	before := c.ms.counts()
	first, err := c.runOnce(c.w.shards, func(core.IterStats) { clock.tick() })
	if !c.check("warm-up", first, err) {
		return // nothing comparable to time
	}
	firstOps := c.ms.counts().sub(before).readOps()
	clock.ref = c.ref
	iters := len(first.Iterations)
	c.res.Iters = iters
	c.models = make([]core.Model, iters)
	for k, it := range first.Iterations {
		c.models[k] = it.Model
	}

	var walls [][]float64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	var last *core.Result
	for rep := 0; ; rep++ {
		before := c.ms.counts()
		clock.startRep()
		res, err := c.runOnce(c.w.shards, func(core.IterStats) { clock.tick() })
		clock.tick() // the tail after the last iteration: pipeline shutdown, result assembly
		ops := c.ms.counts().sub(before).readOps()
		if c.check(fmt.Sprintf("rep %d", rep), res, err) {
			// The counts the cost model and the store report must not
			// depend on timing: a repetition that reads differently from
			// the first is a failed operation.
			switch {
			case len(res.Iterations) != iters:
				c.fail("rep %d: %d iterations, first had %d", rep, len(res.Iterations), iters)
			case res.TotalIO().ReadBytes() != first.TotalIO().ReadBytes():
				c.fail("rep %d: read_bytes %d, first had %d", rep, res.TotalIO().ReadBytes(), first.TotalIO().ReadBytes())
			case res.TotalRuntime() != first.TotalRuntime():
				c.fail("rep %d: modeled_s %v, first had %v", rep, res.TotalRuntime(), first.TotalRuntime())
			case ops != firstOps:
				c.fail("rep %d: read_ops %d, first had %d", rep, ops, firstOps)
			default:
				walls = append(walls, append([]float64(nil), clock.walls...))
				last = res
			}
		}
		done := rep + 1
		if c.job.Reps > 0 {
			if done >= c.job.Reps {
				break
			}
		} else if done >= 2 && time.Since(start) >= budget {
			break
		}
	}
	c.res.TimedS = time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if last == nil {
		return
	}
	// A run too short to have earned its samples (the smoke test's) still
	// needs a unit of time.
	for len(clock.samples) < minRefSamples {
		_, t := c.ref.run()
		clock.samples = append(clock.samples, t.Seconds())
	}

	totalIters := float64(iters * (c.res.Ops - 1)) // the warm-up ran before m0
	best := bestPerIndex(walls)
	rawWall := bestComposite(walls)
	c.iterWall = rawWall - best[iters]
	// The engine's time is its best moments (a minimum over ~25 repetitions
	// per iteration index), so the kernel's must be too: the fastest
	// twentieth of its samples. Under heavy contention the kernel slows far
	// more than the engine, and a quartile — taken over the noisy stretches
	// as well — then deflated wall_vs_ref by up to 25 %.
	refBest := quantile(clock.samples, refQuantile)
	m := c.res.Metrics
	m["wall_vs_ref"] = rawWall / (float64(iters) * refBest)
	m["read_bytes"] = float64(last.TotalIO().ReadBytes())
	m["read_ops"] = float64(firstOps)
	m["modeled_s"] = last.TotalRuntime().Seconds()
	m["allocs_per_iter"] = float64(m1.Mallocs-m0.Mallocs) / totalIters

	var activeEdges int64
	var ropWall, allWall float64
	var stall time.Duration
	var decode time.Duration
	for k, it := range last.Iterations {
		activeEdges += it.ActiveEdges
		stall += it.PrefetchStall
		decode += it.DecodeTime
		allWall += best[k]
		if it.Model == core.ModelROP {
			ropWall += best[k]
		}
	}
	rop, cop := last.ModelCounts()
	m["core.raw_wall_s"] = rawWall
	m["core.cpu_s"] = cpu / float64(c.res.Ops-1)
	m["core.edges_per_s"] = float64(activeEdges) / rawWall
	m["core.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	m["core.alloc_bytes_per_iter"] = float64(m1.TotalAlloc-m0.TotalAlloc) / totalIters
	m["core.iters"] = float64(iters)
	m["core.rop_iters"] = float64(rop)
	m["core.cop_iters"] = float64(cop)
	m["core.active_edges"] = float64(activeEdges)
	m["core.rop_wall_share"] = ropWall / allWall
	m["blockstore.decode_s"] = decode.Seconds()
	m["blockstore.decoded_bytes"] = float64(last.TotalDecodedBytes())
	m["blockstore.compressed_bytes"] = float64(last.TotalCompressedBytes())
	m["blockstore.cache_hits"] = float64(last.Cache.Hits)
	m["blockstore.cache_misses"] = float64(last.Cache.Misses)
	m["blockstore.cache_evictions"] = float64(last.Cache.Evictions)
	m["blockstore.cache_hit_ratio"] = last.Cache.HitRate()
	m["blockstore.prefetch_stall_s"] = stall.Seconds()
	m["blockstore.prefetch_unused_bytes"] = float64(last.PrefetchUnusedBytes)
	m["shard.skew"] = last.MaxShardSkew()
	m["shard.exchange_bytes"] = float64(last.TotalExchangeBytes())
	m["shard.merge_modeled_s"] = last.TotalMergeTime().Seconds()
	m["ref.p05_s"] = refBest
	m["ref.samples"] = float64(len(clock.samples))
	m["ref.spread"] = quantile(clock.samples, 0.75) / quantile(clock.samples, 0.25)
}
