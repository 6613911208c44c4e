// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic dataset analogues: Fig. 1 (active-edge
// densities), Fig. 7 (update-strategy comparison), Fig. 8 (per-iteration
// prediction traces), Table 2 (datasets), Table 3 (system runtimes), Fig. 9
// (I/O amounts), Fig. 10 (thread scalability) and Fig. 11 (HDD vs SSD) —
// plus two extensions beyond the paper: the device extrapolation and the
// design-choice ablations. It is the only producer of modeled evaluation
// numbers; husbench prints them.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"husgraph/internal/algos"
	"husgraph/internal/baseline"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// Options controls dataset scale and parallelism for the drivers.
type Options struct {
	// Threads is the worker count given to every system (the paper uses
	// 16); 0 means GOMAXPROCS.
	Threads int
	// P is the interval/partition count; 0 means 8.
	P int
	// Quick shrinks the datasets (~10×) so the full suite runs in
	// seconds; used by tests.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	if o.P <= 0 {
		o.P = 8
	}
	return o
}

// Algo describes one benchmark algorithm of §4.1.
type Algo struct {
	// Name matches the paper's tables ("PageRank", "BFS", "WCC", "SSSP").
	Name string
	// MaxIters bounds the run (PageRank runs 5 iterations, as in §4.1);
	// 0 means to convergence.
	MaxIters int
	// Symmetric marks algorithms evaluated on the symmetrized graph.
	Symmetric bool
	// Weighted marks algorithms that consume edge weights; their stores
	// carry weights on disk (SSSP), others use the compact unweighted
	// records.
	Weighted bool
	// New builds a fresh program for the (original, unsymmetrized) graph.
	New func(g *graph.Graph) core.Program
}

// StandardAlgos returns the paper's four benchmark algorithms.
func StandardAlgos() []Algo {
	return []Algo{
		{Name: "PageRank", MaxIters: 5, New: func(*graph.Graph) core.Program { return &algos.PageRank{} }},
		{Name: "BFS", New: func(g *graph.Graph) core.Program { return algos.BFS{Source: gen.BFSSource(g)} }},
		{Name: "WCC", Symmetric: true, New: func(*graph.Graph) core.Program { return algos.WCC{} }},
		{Name: "SSSP", Weighted: true, New: func(g *graph.Graph) core.Program { return algos.SSSP{Source: gen.BFSSource(g)} }},
	}
}

// ExtendedAlgos returns the algorithms beyond the paper's benchmarks
// (DESIGN.md §4a, §4h): PageRank-Delta, k-core decomposition, personalized
// PageRank, and the bucketed priority programs — delta-stepping SSSP
// (bucket width 2, matching the 1–10 uniform weights of the registry
// datasets) and the full coreness decomposition.
func ExtendedAlgos() []Algo {
	return []Algo{
		{Name: "PageRank-Delta", New: func(*graph.Graph) core.Program { return &algos.PageRankDelta{Epsilon: 1e-7} }},
		{Name: "KCore", Symmetric: true, New: func(*graph.Graph) core.Program { return algos.KCore{K: 8} }},
		{Name: "PPR", New: func(g *graph.Graph) core.Program { return &algos.PPR{Source: gen.BFSSource(g), Epsilon: 1e-9} }},
		{Name: "SSSP-Delta", Weighted: true, New: func(g *graph.Graph) core.Program {
			return algos.DeltaSSSP{Source: gen.BFSSource(g), Delta: 2}
		}},
		{Name: "Coreness", Symmetric: true, New: func(*graph.Graph) core.Program { return &algos.Coreness{} }},
	}
}

// AlgoByName returns the standard or extended algorithm with the given
// name. Matching is case-insensitive, so CLI spellings like "sssp-delta"
// or "coreness" resolve; the returned Algo carries the canonical Name.
func AlgoByName(name string) (Algo, error) {
	for _, a := range append(StandardAlgos(), ExtendedAlgos()...) {
		if strings.EqualFold(a.Name, name) {
			return a, nil
		}
	}
	return Algo{}, fmt.Errorf("experiments: unknown algorithm %q", name)
}

// Runner caches generated graphs and built block stores across experiment
// drivers (generation and layout construction dominate setup cost).
type Runner struct {
	opts Options

	mu     sync.Mutex
	graphs map[string]*graph.Graph
	stores map[string]*blockstore.DualStore
}

// NewRunner creates a runner.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:   opts.withDefaults(),
		graphs: map[string]*graph.Graph{},
		stores: map[string]*blockstore.DualStore{},
	}
}

// Options returns the resolved options.
func (r *Runner) Options() Options { return r.opts }

// Dataset resolves a registry dataset, shrunk in Quick mode.
func (r *Runner) Dataset(name string) (gen.Dataset, error) {
	d, err := gen.ByName(name)
	if err != nil {
		return d, err
	}
	if r.opts.Quick {
		d.Vertices /= 8
		d.TargetEdges /= 16
	}
	return d, nil
}

// Graph returns the (cached) dataset graph, optionally symmetrized.
func (r *Runner) Graph(d gen.Dataset, symmetric bool) *graph.Graph {
	key := fmt.Sprintf("%s|%v|%v", d.Name, symmetric, r.opts.Quick)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.graphs[key]; ok {
		return g
	}
	base := fmt.Sprintf("%s|false|%v", d.Name, r.opts.Quick)
	g, ok := r.graphs[base]
	if !ok {
		g = d.Build()
		r.graphs[base] = g
	}
	if symmetric {
		g = g.Symmetrize()
		r.graphs[key] = g
	}
	return g
}

// Store returns the (cached) dual-block store of a dataset on the given
// device profile, laid out as layout says (a P of 0 means the runner's P),
// with the device statistics reset so the next run starts clean.
func (r *Runner) Store(d gen.Dataset, symmetric bool, prof storage.Profile, layout blockstore.Options) (*blockstore.DualStore, error) {
	if layout.P <= 0 {
		layout.P = r.opts.P
	}
	g := r.Graph(d, symmetric)
	key := fmt.Sprintf("%s|%v|%+v|%s|%v", d.Name, symmetric, layout, prof.Name, r.opts.Quick)
	r.mu.Lock()
	ds, ok := r.stores[key]
	r.mu.Unlock()
	if !ok {
		var err error
		ds, err = blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(prof)), g, layout)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.stores[key] = ds
		r.mu.Unlock()
	}
	ds.Device().Reset()
	return ds, nil
}

// RunHUS executes one algorithm on the HUS engine over the runner's raw
// store; threads 0 means the runner's.
func (r *Runner) RunHUS(d gen.Dataset, a Algo, model core.Model, prof storage.Profile, threads int) (*core.Result, error) {
	return r.runHUS(d, a, prof, blockstore.Options{Weighted: a.Weighted}, core.Config{Model: model, Threads: threads})
}

// runHUS executes one algorithm on the HUS engine under cfg, over a store
// laid out as layout says. A cfg.Threads of 0 means the runner's threads
// and a cfg.MaxIters of 0 means a's bound.
func (r *Runner) runHUS(d gen.Dataset, a Algo, prof storage.Profile, layout blockstore.Options, cfg core.Config) (*core.Result, error) {
	ds, err := r.Store(d, a.Symmetric, prof, layout)
	if err != nil {
		return nil, err
	}
	if cfg.Threads <= 0 {
		cfg.Threads = r.opts.Threads
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = a.MaxIters
	}
	return core.New(ds, cfg).Run(a.New(r.Graph(d, false)))
}

// RunBaseline executes one algorithm on a named baseline system
// ("GraphChi", "GridGraph" or "X-Stream").
func (r *Runner) RunBaseline(system string, d gen.Dataset, a Algo, prof storage.Profile, threads int) (*core.Result, error) {
	g := r.Graph(d, false) // baselines symmetrize internally when needed
	prog := a.New(g)
	if threads <= 0 {
		threads = r.opts.Threads
	}
	cfg := baseline.Config{Threads: threads, MaxIters: a.MaxIters, WeightedEdges: a.Weighted}
	dev := storage.NewDevice(prof)
	var sys baseline.System
	var err error
	switch system {
	case "GraphChi":
		sys, err = baseline.NewGraphChi(g, prog, r.opts.P, dev, cfg)
	case "GridGraph":
		sys, err = baseline.NewGridGraph(g, prog, r.opts.P, dev, cfg)
	case "X-Stream":
		sys, err = baseline.NewXStream(g, prog, dev, cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", system)
	}
	if err != nil {
		return nil, err
	}
	return sys.Run()
}
