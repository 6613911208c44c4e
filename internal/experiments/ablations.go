package experiments

import (
	"fmt"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/report"
	"husgraph/internal/storage"
)

// Ablations reruns the design choices DESIGN.md §6 calls out — the α
// threshold, the interval count P, overlapped ROP rows, the on-disk format
// — and the compression and prefetch/cache extensions (§4a, §4c), one
// table each. Every row is a modeled run at the runner's thread count
// unless the table varies threads itself.
func (r *Runner) Ablations() ([]*report.Table, error) {
	var out []*report.Table
	for _, f := range []func() (*report.Table, error){
		r.ablationAlpha, r.ablationPartitions, r.ablationOverlap, r.ablationFormat,
		r.extensionCompression, r.extensionPrefetchCache,
	} {
		t, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// workload resolves a registry dataset (shrunk in Quick mode) and an
// algorithm by name.
func (r *Runner) workload(dataset, algo string) (gen.Dataset, Algo, error) {
	d, err := r.Dataset(dataset)
	if err != nil {
		return d, Algo{}, err
	}
	a, err := AlgoByName(algo)
	return d, a, err
}

// modeled formats a run's modeled I/O (MB) and runtime (ms), the two
// columns every ablation table ends with.
func modeled(res *core.Result) []string {
	return []string{report.MB(res.TotalIO().TotalBytes()), fmt.Sprintf("%.3f", res.TotalRuntime().Seconds()*1e3)}
}

// ablationAlpha sweeps §3.4's α threshold (paper: 5 % of |V|) for BFS on a
// social and a web graph, on HDD and SSD. A frontier above α·|V| takes COP
// unpriced; "off" (α < 0) has the predictor decide every iteration.
func (r *Runner) ablationAlpha() (*report.Table, error) {
	t := report.NewTable("Ablation: α threshold, BFS (hybrid)",
		"dataset", "device", "α", "I/O (MB)", "runtime (ms)")
	for _, dsName := range []string{"twitter-sim", "uk-sim"} {
		d, a, err := r.workload(dsName, "BFS")
		if err != nil {
			return nil, err
		}
		for _, prof := range []storage.Profile{storage.HDD, storage.SSD} {
			for _, alpha := range []float64{0.002, 0.01, 0.05, 0.2, 1, -1} {
				res, err := r.runHUS(d, a, prof, blockstore.Options{}, core.Config{Model: core.ModelHybrid, Alpha: alpha})
				if err != nil {
					return nil, err
				}
				label := "off"
				if alpha >= 0 {
					label = fmt.Sprintf("%g%%", 100*alpha)
				}
				t.AddRow(append([]string{d.Name, prof.Name, label}, modeled(res)...)...)
			}
		}
	}
	return t, nil
}

// ablationPartitions sweeps the interval count P for BFS on twitter-sim
// (HDD): fewer intervals mean coarser blocks, more mean more index
// overhead. The store carries weights (Options.Weighted).
func (r *Runner) ablationPartitions() (*report.Table, error) {
	d, a, err := r.workload("twitter-sim", "BFS")
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: interval count P, BFS on twitter-sim (HDD, weighted records)",
		"P", "I/O (MB)", "runtime (ms)")
	for _, p := range []int{2, 4, 8, 16, 32} {
		res, err := r.runHUS(d, a, storage.HDD, blockstore.Options{P: p, Weighted: true}, core.Config{Model: core.ModelHybrid})
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{fmt.Sprint(p)}, modeled(res)...)...)
	}
	return t, nil
}

// ablationOverlap compares §3.5's overlapped ROP rows (the out-blocks of a
// row on concurrent workers) with one worker, for BFS on livejournal-sim
// on the compute-bound RAM profile, where the parallelism shows.
func (r *Runner) ablationOverlap() (*report.Table, error) {
	d, a, err := r.workload("livejournal-sim", "BFS")
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: overlapped ROP rows, BFS on livejournal-sim (forced ROP, RAM)",
		"threads", "I/O (MB)", "runtime (ms)")
	for _, threads := range []int{1, 8} {
		res, err := r.runHUS(d, a, storage.RAM, blockstore.Options{}, core.Config{Model: core.ModelROP, Threads: threads})
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{fmt.Sprint(threads)}, modeled(res)...)...)
	}
	return t, nil
}

// ablationFormat measures §4.4's storage-compactness gap as five PageRank
// iterations on twitter-sim (forced COP, HDD): indexed raw blocks, the
// mixed format (in-blocks compressed where that pays), and GridGraph's edge
// lists.
func (r *Runner) ablationFormat() (*report.Table, error) {
	d, a, err := r.workload("twitter-sim", "PageRank")
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: on-disk format, PageRank on twitter-sim (COP, HDD)",
		"format", "I/O (MB)", "runtime (ms)")
	for _, f := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		res, err := r.runHUS(d, a, storage.HDD, blockstore.Options{Format: f}, core.Config{Model: core.ModelCOP})
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{f.String() + " blocks"}, modeled(res)...)...)
	}
	res, err := r.RunBaseline("GridGraph", d, a, storage.HDD, 0)
	if err != nil {
		return nil, err
	}
	t.AddRow(append([]string{"edge list (GridGraph)"}, modeled(res)...)...)
	return t, nil
}

// extensionCompression prices the mixed format's I/O-vs-decode trade on a
// hybrid PageRank run over ukunion-sim (HDD).
func (r *Runner) extensionCompression() (*report.Table, error) {
	d, a, err := r.workload("ukunion-sim", "PageRank")
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: compressed blocks, PageRank on ukunion-sim (hybrid, HDD)",
		"format", "I/O (MB)", "runtime (ms)")
	for _, f := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		res, err := r.runHUS(d, a, storage.HDD, blockstore.Options{Format: f}, core.Config{Model: core.ModelHybrid})
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{f.String()}, modeled(res)...)...)
	}
	return t, nil
}

// extensionPrefetchCache runs PageRank on ukunion-sim (hybrid, HDD)
// synchronously, with the prefetch pipeline, and with prefetch plus a
// block cache large enough for the whole in-block working set.
// Prefetch overlaps I/O on the host clock only (the modeled runtime already
// assumes overlap); the cache removes repeat reads, so I/O falls.
func (r *Runner) extensionPrefetchCache() (*report.Table, error) {
	d, a, err := r.workload("ukunion-sim", "PageRank")
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Extension: prefetch and block cache, PageRank on ukunion-sim (hybrid, HDD)",
		"pipeline", "I/O (MB)", "runtime (ms)", "hit rate")
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"sync", core.Config{}},
		{"prefetch 2", core.Config{PrefetchDepth: 2}},
		{"prefetch 2 + 256 MiB cache", core.Config{PrefetchDepth: 2, CacheBudgetBytes: 256 << 20}},
	} {
		res, err := r.runHUS(d, a, storage.HDD, blockstore.Options{}, c.cfg)
		if err != nil {
			return nil, err
		}
		hit := "-"
		if c.cfg.CacheBudgetBytes > 0 {
			hit = report.Percent(res.Cache.HitRate())
		}
		t.AddRow(append(append([]string{c.name}, modeled(res)...), hit)...)
	}
	return t, nil
}
