package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// Machine-readable benchmark artifacts: one BENCH_<dataset>.json per
// dataset, comparing the synchronous block-load path against the prefetch
// pipeline and the pipeline plus hot-block cache. These files are the
// start of the repo's performance trajectory — committed alongside code so
// a regression shows up as a diff.

// BenchEntry is one engine configuration's measurements within a report.
type BenchEntry struct {
	// Config names the engine configuration: "sync" (no prefetch, no
	// cache), "prefetch" (PrefetchDepth=2), "prefetch+cache"
	// (PrefetchDepth=2 plus the block cache), "sem" (semi-external:
	// vertex state and out-indices resident, raw store), "compress"
	// (semi-external over a mixed-format store: fewer stored bytes cross
	// the device at the price of modeled decode time) and "shard2"/"shard4"
	// (sync through the K-shard coordinator).
	Config           string `json:"config"`
	PrefetchDepth    int    `json:"prefetch_depth"`
	CacheBudgetBytes int64  `json:"cache_budget_bytes"`
	Iterations       int    `json:"iterations"`
	// NsPerIter is the modeled runtime per iteration on the simulated
	// device (max of I/O and modeled compute, §3.5) — the deterministic
	// quantity the speedups compare.
	NsPerIter int64 `json:"ns_per_iter"`
	// WallNsPerIter is the measured host wall-clock per iteration
	// (machine-dependent; reported for the I/O-overlap effect, which the
	// modeled time already assumes away).
	WallNsPerIter       int64   `json:"wall_ns_per_iter"`
	BytesRead           int64   `json:"bytes_read"`
	BytesWritten        int64   `json:"bytes_written"`
	CacheHitRate        float64 `json:"cache_hit_rate"`
	CacheHits           int64   `json:"cache_hits"`
	CacheMisses         int64   `json:"cache_misses"`
	CacheEvictions      int64   `json:"cache_evictions"`
	PrefetchUnusedBytes int64   `json:"prefetch_unused_bytes"`
	// StoreFormat names the block format the configuration ran over; empty
	// means raw. SemiExternal marks runs with vertex state pinned resident.
	StoreFormat  string `json:"store_format,omitempty"`
	SemiExternal bool   `json:"semi_external,omitempty"`
	// DecodeModeledNs is the run's total modeled decode cost (deterministic,
	// from the per-codec byte rates); DecodedBytes/CompressedBytes are the
	// logical bytes produced and stored bytes consumed by codec decodes.
	// All zero on raw stores.
	DecodeModeledNs int64 `json:"decode_modeled_ns,omitempty"`
	DecodedBytes    int64 `json:"decoded_bytes,omitempty"`
	CompressedBytes int64 `json:"compressed_bytes,omitempty"`
	// Shards is the worker-shard count K of a sharded configuration (the
	// "shard2"/"shard4" entries); ExchangeBytes/ExchangeTimeNs/MergeTimeNs
	// are the run's modeled barrier exchange and frontier-merge totals, and
	// MaxShardSkew the worst per-iteration max/mean shard-wall imbalance.
	// All zero/absent on unsharded entries.
	Shards         int     `json:"shards,omitempty"`
	ExchangeBytes  int64   `json:"exchange_bytes,omitempty"`
	ExchangeTimeNs int64   `json:"exchange_time_ns,omitempty"`
	MergeTimeNs    int64   `json:"merge_time_ns,omitempty"`
	MaxShardSkew   float64 `json:"max_shard_skew,omitempty"`
}

// BenchReport is the full JSON document for one dataset.
type BenchReport struct {
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	Device  string `json:"device"`
	Threads int    `json:"threads"`
	P       int    `json:"p"`
	Quick   bool   `json:"quick"`

	Entries []BenchEntry `json:"entries"`

	// SpeedupPrefetch and SpeedupPrefetchCache are sync modeled-runtime
	// divided by the variant's modeled runtime (>1 is faster).
	SpeedupPrefetch      float64 `json:"speedup_prefetch"`
	SpeedupPrefetchCache float64 `json:"speedup_prefetch_cache"`
	// SpeedupSem is sync modeled-runtime divided by the sem configuration's
	// (vertex state resident, raw store). SpeedupCompress is sem divided by
	// compress (the same semi-external engine over a mixed-format store),
	// so it prices the compression trade alone. It grows with the device's
	// bandwidth scarcity: highest on hdd, lowest on ram, where the decode
	// cost buys back the least — the ordering -bench-check asserts.
	SpeedupSem      float64 `json:"speedup_sem,omitempty"`
	SpeedupCompress float64 `json:"speedup_compress,omitempty"`
	// SpeedupShard maps each sharded configuration ("shard2", "shard4") to
	// sync modeled-runtime divided by its modeled runtime — the K-shard
	// parallel-I/O payoff net of the modeled exchange and merge costs.
	// -bench-check asserts shard2 ≥ 1 on the bandwidth-starved profiles
	// (hdd, ssd), where splitting the block traffic over K devices must
	// beat the barrier overhead it buys.
	SpeedupShard map[string]float64 `json:"speedup_shard,omitempty"`
	// ValuesIdentical reports that every configuration produced
	// bit-identical per-vertex values.
	ValuesIdentical bool `json:"values_identical"`
}

// BenchCacheBudget is the hot-block budget the "prefetch+cache" bench
// configuration uses — generous enough to hold every dataset's in-block
// working set.
const BenchCacheBudget = 256 << 20

// BenchThreads is the modeled worker-thread count of the committed bench
// artifacts. Modeled compute is work ÷ threads, so the artifacts are only
// reproducible at a fixed count: husbench -bench-json uses this one unless
// -threads says otherwise, whatever the host's core count.
const BenchThreads = 4

// RunHUSWithConfig executes one algorithm on the HUS engine under a caller-
// provided configuration (model, prefetch depth, cache budget, …); the
// algorithm's MaxIters and the runner's thread default are applied when the
// config leaves them zero.
func (r *Runner) RunHUSWithConfig(d gen.Dataset, a Algo, prof storage.Profile, cfg core.Config) (*core.Result, error) {
	return r.RunHUSWithConfigFormat(d, a, prof, cfg, blockstore.FormatRaw)
}

// RunHUSWithConfigFormat is RunHUSWithConfig over a store of the given
// block format.
func (r *Runner) RunHUSWithConfigFormat(d gen.Dataset, a Algo, prof storage.Profile, cfg core.Config, format blockstore.Format) (*core.Result, error) {
	return r.RunHUSShardedFormat(d, a, prof, cfg, format, 1)
}

// RunHUSShardedFormat runs the algorithm through the K-shard coordinator
// (internal/shard); at shards <= 1 that is one unscoped engine under the
// same run loop.
func (r *Runner) RunHUSShardedFormat(d gen.Dataset, a Algo, prof storage.Profile, cfg core.Config, format blockstore.Format, shards int) (*core.Result, error) {
	ds, err := r.StoreFormat(d, a.Symmetric, a.Weighted, prof, format)
	if err != nil {
		return nil, err
	}
	if cfg.Threads <= 0 {
		cfg.Threads = r.opts.Threads
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = a.MaxIters
	}
	co, err := shard.New(ds, shard.Config{Config: cfg, Shards: shards})
	if err != nil {
		return nil, err
	}
	return co.Run(a.New(r.Graph(d, false)))
}

// BenchDataset measures one dataset under PageRank across the bench
// configurations and assembles the report.
func (r *Runner) BenchDataset(dataset string, prof storage.Profile) (*BenchReport, error) {
	return r.BenchDatasetAlgo(dataset, "PageRank", prof)
}

// BenchDatasetAlgo measures one dataset/algorithm pair across the bench
// configurations and assembles the report. Traversal algorithms (BFS, WCC)
// exercise the ROP executor's run-granular cache; PageRank exercises the
// COP column pipeline.
func (r *Runner) BenchDatasetAlgo(dataset, algo string, prof storage.Profile) (*BenchReport, error) {
	d, err := r.Dataset(dataset)
	if err != nil {
		return nil, err
	}
	a, err := AlgoByName(algo)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name   string
		cfg    core.Config
		format blockstore.Format
		shards int
	}{
		{name: "sync", cfg: core.Config{}, format: blockstore.FormatRaw},
		{name: "prefetch", cfg: core.Config{PrefetchDepth: 2}, format: blockstore.FormatRaw},
		{name: "prefetch+cache", cfg: core.Config{PrefetchDepth: 2, CacheBudgetBytes: BenchCacheBudget}, format: blockstore.FormatRaw},
		// GraphMP's semi-external model, split into its two levers: "sem"
		// keeps vertex state resident over a raw store; "compress" adds the
		// mixed-format store on top. speedup_compress = sem / compress, so
		// it prices the compression trade alone (edge bytes saved vs decode
		// paid) with the vertex traffic already off the device — the
		// deployment compression is built for.
		{name: "sem", cfg: core.Config{SemiExternal: true}, format: blockstore.FormatRaw},
		{name: "compress", cfg: core.Config{SemiExternal: true}, format: blockstore.FormatMixed},
		// K-shard execution over the plain sync configuration: the block
		// traffic splits across K interval-owning shards (each with its own
		// accounting device and scheduler) while the barrier pays the modeled
		// exchange and merge. speedup_shard = sync / shardK.
		{name: "shard2", cfg: core.Config{}, format: blockstore.FormatRaw, shards: 2},
		{name: "shard4", cfg: core.Config{}, format: blockstore.FormatRaw, shards: 4},
	}
	rep := &BenchReport{
		Dataset: d.Name,
		Algo:    a.Name,
		Device:  prof.Name,
		Threads: r.opts.Threads,
		P:       r.opts.P,
		Quick:   r.opts.Quick,
	}
	var refValues []float64
	rep.ValuesIdentical = true
	for _, c := range configs {
		res, err := r.RunHUSShardedFormat(d, a, prof, c.cfg, c.format, c.shards)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s/%s: %w", d.Name, c.name, err)
		}
		iters := res.NumIterations()
		if iters == 0 {
			iters = 1
		}
		io := res.TotalIO()
		formatName := ""
		if c.format != blockstore.FormatRaw {
			formatName = c.format.String()
		}
		rep.Entries = append(rep.Entries, BenchEntry{
			Config:              c.name,
			PrefetchDepth:       c.cfg.PrefetchDepth,
			CacheBudgetBytes:    c.cfg.CacheBudgetBytes,
			Iterations:          res.NumIterations(),
			NsPerIter:           res.TotalRuntime().Nanoseconds() / int64(iters),
			WallNsPerIter:       res.TotalComputeTime().Nanoseconds() / int64(iters),
			BytesRead:           io.ReadBytes(),
			BytesWritten:        io.WriteBytes(),
			CacheHitRate:        res.Cache.HitRate(),
			CacheHits:           res.Cache.Hits,
			CacheMisses:         res.Cache.Misses,
			CacheEvictions:      res.Cache.Evictions,
			PrefetchUnusedBytes: res.PrefetchUnusedBytes,
			StoreFormat:         formatName,
			SemiExternal:        c.cfg.SemiExternal,
			DecodeModeledNs:     res.TotalDecodeModeled().Nanoseconds(),
			DecodedBytes:        res.TotalDecodedBytes(),
			CompressedBytes:     res.TotalCompressedBytes(),
			Shards:              c.shards,
			ExchangeBytes:       res.TotalExchangeBytes(),
			ExchangeTimeNs:      res.TotalExchangeTime().Nanoseconds(),
			MergeTimeNs:         res.TotalMergeTime().Nanoseconds(),
			MaxShardSkew:        res.MaxShardSkew(),
		})
		if refValues == nil {
			refValues = res.Values
			continue
		}
		for v := range refValues {
			if res.Values[v] != refValues[v] {
				rep.ValuesIdentical = false
				break
			}
		}
	}
	byName := make(map[string]BenchEntry, len(rep.Entries))
	for _, e := range rep.Entries {
		byName[e.Config] = e
	}
	base := float64(byName["sync"].NsPerIter)
	if pf := float64(byName["prefetch"].NsPerIter); pf > 0 {
		rep.SpeedupPrefetch = base / pf
	}
	if pc := float64(byName["prefetch+cache"].NsPerIter); pc > 0 {
		rep.SpeedupPrefetchCache = base / pc
	}
	if sm := float64(byName["sem"].NsPerIter); sm > 0 {
		rep.SpeedupSem = base / sm
		if cp := float64(byName["compress"].NsPerIter); cp > 0 {
			rep.SpeedupCompress = sm / cp
		}
	}
	for _, name := range []string{"shard2", "shard4"} {
		if sh := float64(byName[name].NsPerIter); sh > 0 {
			if rep.SpeedupShard == nil {
				rep.SpeedupShard = make(map[string]float64, 2)
			}
			rep.SpeedupShard[name] = base / sh
		}
	}
	return rep, nil
}

// benchExtraAlgos lists (dataset, algo) artifacts written beyond the
// default PageRank-per-dataset set: ROP-heavy traversal algorithms on the
// largest dataset, where run-granular caching has the most to hide. A
// non-empty Device pins the artifact to that profile instead of the
// CLI-selected one: the ssd and ram PageRank artifacts complete the device
// ladder for one (dataset, algo) pair, so -bench-check can assert
// speedup_compress is ordered hdd ≥ ssd ≥ ram.
// The bucketed priority programs get their own rows: delta-stepping SSSP
// on the largest web analogue (many sparse distance buckets), and the
// coreness decomposition on the social analogue, whose peel sequence is
// long enough to exercise bucket refill without dominating the check's
// wall-clock.
var benchExtraAlgos = []struct{ Dataset, Algo, Device string }{
	{"ukunion-sim", "BFS", ""},
	{"ukunion-sim", "WCC", ""},
	{"ukunion-sim", "PageRank", "ssd"},
	{"ukunion-sim", "PageRank", "ram"},
	{"ukunion-sim", "SSSP-Delta", ""},
	{"livejournal-sim", "Coreness", ""},
}

// WriteBenchJSON benches each dataset and writes BENCH_<dataset>.json files
// (PageRank) into dir — plus BENCH_<dataset>_<algo>.json for the
// benchExtraAlgos pairs whose dataset was requested — returning the paths
// written.
func (r *Runner) WriteBenchJSON(dir string, datasets []string, prof storage.Profile) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	writeReport := func(rep *BenchReport, name string) error {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name)
		//lint:ignore huslint/rawio bench artifacts are CI reports, not graph data; they never pass through storage.Store
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	for _, name := range datasets {
		rep, err := r.BenchDataset(name, prof)
		if err != nil {
			return nil, err
		}
		if err := writeReport(rep, fmt.Sprintf("BENCH_%s.json", rep.Dataset)); err != nil {
			return nil, err
		}
		for _, ex := range benchExtraAlgos {
			if ex.Dataset != name {
				continue
			}
			exProf, suffix := prof, ""
			if ex.Device != "" {
				p, err := storage.ProfileByName(ex.Device)
				if err != nil {
					return nil, err
				}
				exProf, suffix = p, "_"+p.Name
			}
			rep, err := r.BenchDatasetAlgo(ex.Dataset, ex.Algo, exProf)
			if err != nil {
				return nil, err
			}
			if err := writeReport(rep, fmt.Sprintf("BENCH_%s_%s%s.json", rep.Dataset, rep.Algo, suffix)); err != nil {
				return nil, err
			}
		}
	}
	return paths, nil
}
