// Benchmarks regenerating the paper's evaluation artifacts — one benchmark
// per table and figure (§4) — plus ablations over the design choices
// DESIGN.md calls out. Results print as custom metrics:
//
//	sim-sec/op   modeled runtime (simulated I/O overlapped with compute)
//	io-MB/op     paper's "I/O amount"
//
// Run with: go test -bench=. -benchmem
// The full suite takes several minutes at paper scale; add -quickbench for
// a ~10x smaller smoke run.
package husgraph_test

import (
	"flag"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/experiments"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

var quickBench = flag.Bool("quickbench", false, "shrink benchmark datasets ~10x")

// sharedRunner caches datasets and block stores across benchmarks.
var sharedRunner *experiments.Runner

func runner() *experiments.Runner {
	if sharedRunner == nil {
		sharedRunner = experiments.NewRunner(experiments.Options{Quick: *quickBench, P: 8})
	}
	return sharedRunner
}

// reportResult attaches the modeled metrics of a run to b.
func reportResult(b *testing.B, res *core.Result) {
	b.Helper()
	b.ReportMetric(res.TotalRuntime().Seconds(), "sim-sec/op")
	b.ReportMetric(float64(res.TotalIO().TotalBytes())/1e6, "io-MB/op")
}

// BenchmarkFig1ActiveEdges regenerates Figure 1: active-edge density per
// iteration of PageRank, BFS and WCC on the LiveJournal analogue.
func BenchmarkFig1ActiveEdges(b *testing.B) {
	r := runner()
	d, err := r.Dataset("livejournal-sim")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"PageRank", "BFS", "WCC"} {
		a, _ := experiments.AlgoByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := r.RunHUS(d, a, core.ModelHybrid, storage.HDD, 0)
				if err != nil {
					b.Fatal(err)
				}
				reportResult(b, res)
			}
		})
	}
}

// BenchmarkFig7UpdateStrategies regenerates Figure 7: forced ROP, forced
// COP and Hybrid for BFS/WCC/SSSP on the Twitter2010 and SK2005 analogues.
func BenchmarkFig7UpdateStrategies(b *testing.B) {
	r := runner()
	for _, dsName := range []string{"twitter-sim", "sk-sim"} {
		d, err := r.Dataset(dsName)
		if err != nil {
			b.Fatal(err)
		}
		for _, algoName := range []string{"BFS", "WCC", "SSSP"} {
			a, _ := experiments.AlgoByName(algoName)
			for _, model := range []core.Model{core.ModelROP, core.ModelCOP, core.ModelHybrid} {
				b.Run(dsName+"/"+algoName+"/"+model.String(), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, err := r.RunHUS(d, a, model, storage.HDD, 0)
						if err != nil {
							b.Fatal(err)
						}
						reportResult(b, res)
					}
				})
			}
		}
	}
}

// BenchmarkFig8PerIteration regenerates Figure 8: the 30-iteration BFS and
// WCC traces on the UKunion analogue under each model (per-iteration data
// printed by `husbench -exp fig8`).
func BenchmarkFig8PerIteration(b *testing.B) {
	r := runner()
	d, err := r.Dataset("ukunion-sim")
	if err != nil {
		b.Fatal(err)
	}
	for _, algoName := range []string{"BFS", "WCC"} {
		a, _ := experiments.AlgoByName(algoName)
		a.MaxIters = 30
		for _, model := range []core.Model{core.ModelROP, core.ModelCOP, core.ModelHybrid} {
			b.Run(algoName+"/"+model.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := r.RunHUS(d, a, model, storage.HDD, 0)
					if err != nil {
						b.Fatal(err)
					}
					reportResult(b, res)
				}
			})
		}
	}
}

// BenchmarkTable3Systems regenerates Table 3: the four algorithms across
// GraphChi, GridGraph and HUS-Graph on every dataset.
func BenchmarkTable3Systems(b *testing.B) {
	r := runner()
	for _, dsName := range gen.Names() {
		d, err := r.Dataset(dsName)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range experiments.StandardAlgos() {
			a := a
			for _, system := range []string{"GraphChi", "GridGraph", "HUS-Graph"} {
				system := system
				b.Run(dsName+"/"+a.Name+"/"+system, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						var res *core.Result
						var err error
						if system == "HUS-Graph" {
							res, err = r.RunHUS(d, a, core.ModelHybrid, storage.HDD, 0)
						} else {
							res, err = r.RunBaseline(system, d, a, storage.HDD, 0)
						}
						if err != nil {
							b.Fatal(err)
						}
						reportResult(b, res)
					}
				})
			}
		}
	}
}

// BenchmarkFig9IOAmount regenerates Figure 9: I/O amount of the three
// systems for PageRank, BFS and SSSP.
func BenchmarkFig9IOAmount(b *testing.B) {
	r := runner()
	for _, dsName := range []string{"twitter-sim", "sk-sim", "uk-sim"} {
		d, err := r.Dataset(dsName)
		if err != nil {
			b.Fatal(err)
		}
		for _, algoName := range []string{"PageRank", "BFS", "SSSP"} {
			a, _ := experiments.AlgoByName(algoName)
			for _, system := range []string{"GraphChi", "GridGraph", "HUS-Graph"} {
				system := system
				b.Run(dsName+"/"+algoName+"/"+system, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						var res *core.Result
						var err error
						if system == "HUS-Graph" {
							res, err = r.RunHUS(d, a, core.ModelHybrid, storage.HDD, 0)
						} else {
							res, err = r.RunBaseline(system, d, a, storage.HDD, 0)
						}
						if err != nil {
							b.Fatal(err)
						}
						reportResult(b, res)
					}
				})
			}
		}
	}
}

// BenchmarkFig10Threads regenerates Figure 10: thread scalability for
// (a) PageRank on the in-memory dataset and (b) BFS on the disk-bound web
// dataset.
func BenchmarkFig10Threads(b *testing.B) {
	r := runner()
	cases := []struct {
		name, dataset, algo string
		prof                storage.Profile
	}{
		{"a-PageRank-mem", "livejournal-sim", "PageRank", storage.RAM},
		{"b-BFS-hdd", "uk-sim", "BFS", storage.HDD},
	}
	for _, c := range cases {
		d, err := r.Dataset(c.dataset)
		if err != nil {
			b.Fatal(err)
		}
		a, _ := experiments.AlgoByName(c.algo)
		for _, threads := range []int{1, 2, 4, 8, 16} {
			threads := threads
			for _, system := range []string{"GraphChi", "GridGraph", "HUS-Graph"} {
				system := system
				b.Run(c.name+"/"+system+"/t="+itoa(threads), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						var res *core.Result
						var err error
						if system == "HUS-Graph" {
							res, err = r.RunHUS(d, a, core.ModelHybrid, c.prof, threads)
						} else {
							res, err = r.RunBaseline(system, d, a, c.prof, threads)
						}
						if err != nil {
							b.Fatal(err)
						}
						reportResult(b, res)
					}
				})
			}
		}
	}
}

// BenchmarkFig11Devices regenerates Figure 11: WCC and SSSP on the SK2005
// analogue on HDD vs SSD across all four systems.
func BenchmarkFig11Devices(b *testing.B) {
	r := runner()
	d, err := r.Dataset("sk-sim")
	if err != nil {
		b.Fatal(err)
	}
	for _, algoName := range []string{"WCC", "SSSP"} {
		a, _ := experiments.AlgoByName(algoName)
		for _, prof := range []storage.Profile{storage.HDD, storage.SSD} {
			prof := prof
			for _, system := range []string{"GraphChi", "X-Stream", "GridGraph", "HUS-Graph"} {
				system := system
				b.Run(algoName+"/"+prof.Name+"/"+system, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						var res *core.Result
						var err error
						if system == "HUS-Graph" {
							res, err = r.RunHUS(d, a, core.ModelHybrid, prof, 0)
						} else {
							res, err = r.RunBaseline(system, d, a, prof, 0)
						}
						if err != nil {
							b.Fatal(err)
						}
						reportResult(b, res)
					}
				})
			}
		}
	}
}

// BenchmarkAblationAlpha sweeps the α threshold of §3.4 (paper default:
// 5% of |V|): too low forfeits ROP opportunities, too high wastes
// predictor evaluations on clearly-dense iterations (and, with a
// mispredicting model, could pick ROP on dense frontiers).
func BenchmarkAblationAlpha(b *testing.B) {
	r := runner()
	d, err := r.Dataset("twitter-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := r.Graph(d, false)
	for _, alpha := range []float64{0.002, 0.01, 0.05, 0.2, 1.0} {
		alpha := alpha
		b.Run("alpha="+ftoa(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := r.Store(d, false, false, storage.HDD)
				if err != nil {
					b.Fatal(err)
				}
				eng := core.New(ds, core.Config{Model: core.ModelHybrid, Alpha: alpha})
				res, err := eng.Run(algos.BFS{Source: gen.BFSSource(g)})
				if err != nil {
					b.Fatal(err)
				}
				reportResult(b, res)
			}
		})
	}
}

// BenchmarkAblationPartitions sweeps the interval count P: fewer
// partitions mean larger blocks (coarser selectivity); more partitions
// mean more index and vertex-value overhead.
func BenchmarkAblationPartitions(b *testing.B) {
	d, err := gen.ByName("twitter-sim")
	if err != nil {
		b.Fatal(err)
	}
	if *quickBench {
		d.Vertices /= 8
		d.TargetEdges /= 16
	}
	g := d.BuildCached()
	for _, p := range []int{2, 4, 8, 16, 32} {
		p := p
		b.Run("P="+itoa(p), func(b *testing.B) {
			ds, err := blockstore.Build(storage.NewMemStore(storage.NewDevice(storage.HDD)), g, p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.Device().Reset()
				eng := core.New(ds, core.Config{Model: core.ModelHybrid})
				res, err := eng.Run(algos.BFS{Source: gen.BFSSource(g)})
				if err != nil {
					b.Fatal(err)
				}
				reportResult(b, res)
			}
		})
	}
}

// BenchmarkAblationOverlap compares ROP's overlapped row processing
// (§3.5: out-blocks of a row handled by concurrent workers) against a
// single worker, on the compute-bound RAM profile where parallelism is
// visible.
func BenchmarkAblationOverlap(b *testing.B) {
	r := runner()
	d, err := r.Dataset("livejournal-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := r.Graph(d, false)
	for _, threads := range []int{1, 8} {
		threads := threads
		b.Run("threads="+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := r.Store(d, false, false, storage.RAM)
				if err != nil {
					b.Fatal(err)
				}
				eng := core.New(ds, core.Config{Model: core.ModelROP, Threads: threads})
				res, err := eng.Run(algos.BFS{Source: gen.BFSSource(g)})
				if err != nil {
					b.Fatal(err)
				}
				reportResult(b, res)
			}
		})
	}
}

// BenchmarkAblationFormat quantifies the storage-compactness gap §4.4
// credits for part of HUS-Graph's PageRank win: indexed 8-byte block
// records (HUS) vs raw 12-byte edge-list records (GridGraph), measured as
// I/O per PageRank iteration.
func BenchmarkAblationFormat(b *testing.B) {
	r := runner()
	d, err := r.Dataset("twitter-sim")
	if err != nil {
		b.Fatal(err)
	}
	a, _ := experiments.AlgoByName("PageRank")
	b.Run("indexed-blocks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := r.RunHUS(d, a, core.ModelCOP, storage.HDD, 0)
			if err != nil {
				b.Fatal(err)
			}
			reportResult(b, res)
		}
	})
	b.Run("edge-list", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := r.RunBaseline("GridGraph", d, a, storage.HDD, 0)
			if err != nil {
				b.Fatal(err)
			}
			reportResult(b, res)
		}
	})
	b.Run("mixed-blocks", func(b *testing.B) {
		g := r.Graph(d, false)
		ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.HDD)), g,
			blockstore.Options{P: 8, Format: blockstore.FormatMixed, Weighted: a.Weighted})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ds.Device().Reset()
			res, err := core.New(ds, core.Config{Model: core.ModelCOP, MaxIters: a.MaxIters}).Run(a.New(g))
			if err != nil {
				b.Fatal(err)
			}
			reportResult(b, res)
		}
	})
}

// BenchmarkMicroROPvsCOP measures one forced iteration of each model on a
// mid-density frontier — the raw primitive the predictor arbitrates.
func BenchmarkMicroROPvsCOP(b *testing.B) {
	r := runner()
	d, err := r.Dataset("twitter-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := r.Graph(d, false)
	for _, model := range []core.Model{core.ModelROP, core.ModelCOP} {
		model := model
		b.Run(model.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := r.Store(d, false, false, storage.HDD)
				if err != nil {
					b.Fatal(err)
				}
				eng := core.New(ds, core.Config{Model: model, MaxIters: 2})
				res, err := eng.Run(algos.BFS{Source: gen.BFSSource(g)})
				if err != nil {
					b.Fatal(err)
				}
				reportResult(b, res)
			}
		})
	}
}

// BenchmarkBlockstoreBuild measures dual-block construction (the
// preprocessing step, excluded from the paper's runtimes but relevant to
// adoption).
func BenchmarkBlockstoreBuild(b *testing.B) {
	r := runner()
	d, err := r.Dataset("twitter-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := r.Graph(d, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blockstore.Build(storage.NewMemStore(storage.NewDevice(storage.RAM)), g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	return fmtInt(v)
}

func fmtInt(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	// Benchmark names cannot contain spaces; fixed 3-decimal rendering.
	n := int(f*1000 + 0.5)
	return fmtInt(n/1000) + "." + string([]byte{byte('0' + (n/100)%10), byte('0' + (n/10)%10), byte('0' + n%10)})
}

// graphSanity guards the bench datasets against silent regressions.
func TestBenchDatasetsSane(t *testing.T) {
	for _, name := range gen.Names() {
		d, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.BuildCached()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var _ = graph.BuildOutCSR(g) // exercised for side-effect-free construction
	}
}

// BenchmarkExtensionCompression measures the per-block compressed (mixed) format's
// I/O-vs-CPU trade on a full PageRank run (DESIGN.md §4a).
func BenchmarkExtensionCompression(b *testing.B) {
	r := runner()
	d, err := r.Dataset("ukunion-sim")
	if err != nil {
		b.Fatal(err)
	}
	g := r.Graph(d, false)
	for _, format := range []blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed} {
		format := format
		b.Run(format.String(), func(b *testing.B) {
			ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(storage.HDD)), g,
				blockstore.Options{P: 8, Format: format, Weighted: false})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.Device().Reset()
				res, err := core.New(ds, core.Config{MaxIters: 5}).Run(&algos.PageRank{})
				if err != nil {
					b.Fatal(err)
				}
				reportResult(b, res)
			}
		})
	}
}

// BenchmarkExtensionPrefetchCache measures the asynchronous block-prefetch
// pipeline and the budgeted hot-block cache (DESIGN.md memory hierarchy) on
// a full PageRank run: sync is the baseline, prefetch overlaps I/O with
// compute (wall-clock only; the modeled runtime already assumes overlap),
// and the cache removes repeat I/O so the modeled runtime drops too.
func BenchmarkExtensionPrefetchCache(b *testing.B) {
	r := runner()
	d, err := r.Dataset("ukunion-sim")
	if err != nil {
		b.Fatal(err)
	}
	// Generous enough to hold every dataset's in-block working set.
	const cacheBudget = 256 << 20
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"sync", core.Config{}},
		{"prefetch", core.Config{PrefetchDepth: 2}},
		{"prefetch+cache", core.Config{PrefetchDepth: 2, CacheBudgetBytes: cacheBudget}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := r.Store(d, false, false, storage.HDD)
				if err != nil {
					b.Fatal(err)
				}
				cfg := c.cfg
				cfg.MaxIters = 5
				res, err := core.New(ds, cfg).Run(&algos.PageRank{})
				if err != nil {
					b.Fatal(err)
				}
				reportResult(b, res)
				if c.cfg.CacheBudgetBytes > 0 {
					b.ReportMetric(res.Cache.HitRate(), "hit-rate")
				}
			}
		})
	}
}
