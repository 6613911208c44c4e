package experiments

import (
	"strings"
	"testing"

	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/storage"
)

func quickRunner() *Runner {
	return NewRunner(Options{Quick: true, P: 4, Threads: 4})
}

func TestStandardAlgos(t *testing.T) {
	as := StandardAlgos()
	if len(as) != 4 {
		t.Fatalf("algos = %d", len(as))
	}
	if as[0].Name != "PageRank" || as[0].MaxIters != 5 {
		t.Fatalf("PageRank spec: %+v", as[0])
	}
	wcc, err := AlgoByName("WCC")
	if err != nil || !wcc.Symmetric {
		t.Fatalf("WCC spec: %+v, %v", wcc, err)
	}
	if _, err := AlgoByName("Nope"); err == nil {
		t.Fatal("unknown algo accepted")
	}
}

func TestRunnerCaching(t *testing.T) {
	r := quickRunner()
	d, err := r.Dataset("livejournal-sim")
	if err != nil {
		t.Fatal(err)
	}
	g1 := r.Graph(d, false)
	g2 := r.Graph(d, false)
	if g1 != g2 {
		t.Fatal("graph not cached")
	}
	s1, err := r.Store(d, false, storage.HDD, blockstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// P 0 is the runner's P, so this is the same layout.
	s2, err := r.Store(d, false, storage.HDD, blockstore.Options{P: r.Options().P})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("store not cached")
	}
	for _, layout := range []blockstore.Options{{P: 2}, {Format: blockstore.FormatMixed}, {Weighted: true}} {
		s3, err := r.Store(d, false, storage.HDD, layout)
		if err != nil {
			t.Fatal(err)
		}
		if s3 == s1 {
			t.Fatalf("layout %+v shares the default layout's store", layout)
		}
	}
	// Stats are reset on reuse.
	if s2.Device().Stats().TotalBytes() != 0 {
		t.Fatal("device stats not reset")
	}
	sym := r.Graph(d, true)
	if sym == g1 || sym.NumEdges() <= g1.NumEdges() {
		t.Fatal("symmetric variant wrong")
	}
}

func TestQuickShrinksDatasets(t *testing.T) {
	full := NewRunner(Options{})
	quick := quickRunner()
	df, _ := full.Dataset("twitter-sim")
	dq, _ := quick.Dataset("twitter-sim")
	if dq.Vertices >= df.Vertices || dq.TargetEdges >= df.TargetEdges {
		t.Fatalf("quick not smaller: %+v vs %+v", dq, df)
	}
}

func TestRunHUSAndBaselinesAgree(t *testing.T) {
	r := quickRunner()
	d, _ := r.Dataset("livejournal-sim")
	a, _ := AlgoByName("BFS")
	hus, err := r.RunHUS(d, a, core.ModelHybrid, storage.HDD, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, system := range []string{"GraphChi", "GridGraph", "X-Stream"} {
		res, err := r.RunBaseline(system, d, a, storage.HDD, 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := range hus.Values {
			if res.Values[v] != hus.Values[v] {
				t.Fatalf("%s: value[%d] = %v, HUS %v", system, v, res.Values[v], hus.Values[v])
			}
		}
	}
}

func TestRunBaselineUnknownSystem(t *testing.T) {
	r := quickRunner()
	d, _ := r.Dataset("livejournal-sim")
	a, _ := AlgoByName("BFS")
	if _, err := r.RunBaseline("Pregel", d, a, storage.HDD, 0); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestTable2Shape(t *testing.T) {
	r := quickRunner()
	ts, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || len(ts[0].Rows) != 5 {
		t.Fatalf("table2: %d tables, %d rows", len(ts), len(ts[0].Rows))
	}
	out := ts[0].String()
	for _, want := range []string{"LiveJournal", "Twitter2010", "SK2005", "UK2007", "UKunion", "social", "web"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	r := quickRunner()
	ts, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	tb := ts[0]
	if len(tb.Rows) < 5 {
		t.Fatalf("too few iterations: %d", len(tb.Rows))
	}
	// PageRank column stays at 100%.
	for i, row := range tb.Rows {
		if row[1] == "-" {
			break
		}
		if row[1] != "100.0%" {
			t.Fatalf("iteration %d: PageRank active %% = %s", i+1, row[1])
		}
	}
}

func TestFig1BFSRisesAndFalls(t *testing.T) {
	// Assert on raw stats rather than rendered strings.
	r := quickRunner()
	d, _ := r.Dataset("livejournal-sim")
	a, _ := AlgoByName("BFS")
	res, err := r.RunHUS(d, a, core.ModelHybrid, storage.HDD, 0)
	if err != nil {
		t.Fatal(err)
	}
	var peakIter, lastIter int
	var peak int64
	for _, it := range res.Iterations {
		if it.ActiveEdges > peak {
			peak, peakIter = it.ActiveEdges, it.Iter
		}
		lastIter = it.Iter
	}
	first := res.Iterations[0].ActiveEdges
	last := res.Iterations[len(res.Iterations)-1].ActiveEdges
	if !(peak > first && peak > last) {
		t.Fatalf("BFS active edges not rise-and-fall: first %d peak %d last %d", first, peak, last)
	}
	if peakIter == 0 || peakIter == lastIter {
		t.Fatalf("peak at boundary iteration %d of %d", peakIter, lastIter)
	}
}

func TestFig7HybridTracksBest(t *testing.T) {
	r := quickRunner()
	d, _ := r.Dataset("twitter-sim")
	for _, algoName := range []string{"BFS", "WCC", "SSSP"} {
		a, _ := AlgoByName(algoName)
		runtimes := map[core.Model]float64{}
		for _, model := range []core.Model{core.ModelROP, core.ModelCOP, core.ModelHybrid} {
			res, err := r.RunHUS(d, a, model, storage.HDD, 0)
			if err != nil {
				t.Fatal(err)
			}
			runtimes[model] = res.TotalRuntime().Seconds()
		}
		best := runtimes[core.ModelROP]
		if runtimes[core.ModelCOP] < best {
			best = runtimes[core.ModelCOP]
		}
		// Hybrid should be within 25% of the best forced model (it can
		// also beat both by switching mid-run).
		if runtimes[core.ModelHybrid] > best*1.25 {
			t.Errorf("%s: hybrid %.4fs vs best %.4fs (ROP %.4f, COP %.4f)",
				algoName, runtimes[core.ModelHybrid], best,
				runtimes[core.ModelROP], runtimes[core.ModelCOP])
		}
	}
}

func TestFig7IOOrdering(t *testing.T) {
	// ROP accesses the least data, COP the most, Hybrid in between (paper
	// §4.2). An out-index costs a byte per source and a 4-byte base per 64,
	// so on BFS even a push over one of the widest frontiers reads less than
	// a scan: ROP's order holds on every row. Hybrid still runs COP where
	// the device's sequential rate makes a scan faster, so it reads more
	// than forced ROP. Since no model changes BFS's frontiers, each Hybrid
	// iteration must read what the forced run of the model it chose read
	// there (EXPERIMENTS.md, Figure 7).
	r := quickRunner()
	d, _ := r.Dataset("twitter-sim")
	for _, algo := range []string{"BFS", "WCC", "SSSP"} {
		a, _ := AlgoByName(algo)
		runs := map[core.Model]*core.Result{}
		io := map[core.Model]int64{}
		for _, model := range []core.Model{core.ModelROP, core.ModelCOP, core.ModelHybrid} {
			res, err := r.RunHUS(d, a, model, storage.HDD, 0)
			if err != nil {
				t.Fatal(err)
			}
			runs[model], io[model] = res, res.TotalIO().TotalBytes()
		}
		if !(io[core.ModelROP] <= io[core.ModelHybrid] && io[core.ModelHybrid] <= io[core.ModelCOP]) {
			t.Fatalf("%s: I/O ordering: ROP %d, Hybrid %d, COP %d", algo, io[core.ModelROP], io[core.ModelHybrid], io[core.ModelCOP])
		}
		if algo != "BFS" {
			continue
		}
		for k, it := range runs[core.ModelHybrid].Iterations {
			forced := runs[it.Model]
			if k >= len(forced.Iterations) || forced.Iterations[k].ActiveVertices != it.ActiveVertices {
				t.Fatalf("iteration %d: the forced %v run's frontier differs from Hybrid's", k, it.Model)
			}
			if got, want := it.IO.TotalBytes(), forced.Iterations[k].IO.TotalBytes(); got != want {
				t.Fatalf("iteration %d: Hybrid's %v read %d bytes, the forced run %d", k, it.Model, got, want)
			}
		}
	}
}

func TestFig8TableShape(t *testing.T) {
	r := quickRunner()
	ts, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("tables = %d", len(ts))
	}
	for _, tb := range ts {
		if len(tb.Rows) != 30 {
			t.Fatalf("%s: rows = %d", tb.Title, len(tb.Rows))
		}
		// The Hybrid model column must contain only model names or "-".
		for _, row := range tb.Rows {
			if m := row[4]; m != "ROP" && m != "COP" && m != "-" {
				t.Fatalf("bad model cell %q", m)
			}
		}
	}
}

func TestTable3SpeedupsPositive(t *testing.T) {
	// Scoped-down Table 3: one dataset, all four algorithms; HUS-Graph
	// must beat both baselines on runtime (the paper's headline claim).
	r := quickRunner()
	d, _ := r.Dataset("twitter-sim")
	for _, a := range StandardAlgos() {
		gc, err := r.RunBaseline("GraphChi", d, a, storage.HDD, 0)
		if err != nil {
			t.Fatal(err)
		}
		gg, err := r.RunBaseline("GridGraph", d, a, storage.HDD, 0)
		if err != nil {
			t.Fatal(err)
		}
		hus, err := r.RunHUS(d, a, core.ModelHybrid, storage.HDD, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := hus.TotalRuntime().Seconds()
		if gc.TotalRuntime().Seconds() <= h {
			t.Errorf("%s: GraphChi %.4fs not slower than HUS %.4fs", a.Name, gc.TotalRuntime().Seconds(), h)
		}
		if gg.TotalRuntime().Seconds() <= h {
			t.Errorf("%s: GridGraph %.4fs not slower than HUS %.4fs", a.Name, gg.TotalRuntime().Seconds(), h)
		}
		if gc.TotalRuntime() <= gg.TotalRuntime() {
			t.Errorf("%s: GraphChi %.4fs should be slower than GridGraph %.4fs", a.Name, gc.TotalRuntime().Seconds(), gg.TotalRuntime().Seconds())
		}
	}
}

func TestFig11HUSBenefitsMostFromSSD(t *testing.T) {
	r := quickRunner()
	d, _ := r.Dataset("sk-sim")
	a, _ := AlgoByName("SSSP")
	speedup := func(run func(prof storage.Profile) float64) float64 {
		return run(storage.HDD) / run(storage.SSD)
	}
	husSpeedup := speedup(func(prof storage.Profile) float64 {
		res, err := r.RunHUS(d, a, core.ModelHybrid, prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalIOTime().Seconds()
	})
	ggSpeedup := speedup(func(prof storage.Profile) float64 {
		res, err := r.RunBaseline("GridGraph", d, a, prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalIOTime().Seconds()
	})
	if husSpeedup <= ggSpeedup {
		t.Fatalf("HUS SSD speedup %.2fx should exceed GridGraph's %.2fx", husSpeedup, ggSpeedup)
	}
}

func TestByNameDispatch(t *testing.T) {
	r := quickRunner()
	for _, name := range []string{"table2", "fig1"} {
		ts, err := r.ByName(name)
		if err != nil || len(ts) == 0 {
			t.Fatalf("ByName(%s): %v", name, err)
		}
	}
	if _, err := r.ByName("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(ExperimentNames()) != 10 {
		t.Fatalf("ExperimentNames = %v", ExperimentNames())
	}
}

func TestExtendedAlgosRunnable(t *testing.T) {
	r := quickRunner()
	d, _ := r.Dataset("livejournal-sim")
	for _, name := range []string{"PageRank-Delta", "KCore", "PPR", "SSSP-Delta", "Coreness"} {
		a, err := AlgoByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.RunHUS(d, a, core.ModelHybrid, storage.HDD, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", name)
		}
	}
	if len(ExtendedAlgos()) != 5 {
		t.Fatalf("extended algos = %d", len(ExtendedAlgos()))
	}
}

func TestAllExperimentDriversQuick(t *testing.T) {
	// Exercise every figure/table driver end to end at quick scale; shape
	// assertions live in the dedicated tests above — here we check the
	// drivers render complete tables without errors.
	if testing.Short() {
		t.Skip("drivers are slow for -short")
	}
	r := quickRunner()
	tables, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	// table2 + fig1 + fig7(4) + fig8(2) + table3 + fig9(3) + fig10(2) + fig11(2)
	// + devices + ablations(6)
	if len(tables) != 23 {
		t.Fatalf("tables = %d, want 23", len(tables))
	}
	for _, tb := range tables {
		if tb.Title == "" || len(tb.Rows) == 0 {
			t.Fatalf("empty table: %+v", tb.Title)
		}
		if tb.String() == "" {
			t.Fatalf("%s failed to render", tb.Title)
		}
	}
}

func TestDevicesExtensionSpeedupWidens(t *testing.T) {
	// HUS's advantage over GridGraph must not shrink as random access
	// gets cheaper (HDD -> SSD -> NVMe).
	r := quickRunner()
	d, _ := r.Dataset("sk-sim")
	a, _ := AlgoByName("SSSP")
	var prev float64
	for i, prof := range []storage.Profile{storage.HDD, storage.SSD, storage.NVMe} {
		gg, err := r.RunBaseline("GridGraph", d, a, prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		hus, err := r.RunHUS(d, a, core.ModelHybrid, prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		speedup := gg.TotalRuntime().Seconds() / hus.TotalRuntime().Seconds()
		if i > 0 && speedup < prev*0.9 {
			t.Fatalf("%s: speedup %.2f shrank from %.2f", prof.Name, speedup, prev)
		}
		prev = speedup
	}
}
