package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// engineCase is one point of the configuration space FuzzEngineConfig
// draws from.
type engineCase struct {
	p, k              int // k 0 runs one core.Engine, not a coordinator
	format            blockstore.Format
	model             core.Model
	threads, prefetch int
	cache             int64
	alpha             float64
	device            storage.Profile
	faults            ioFaults
	weighted          bool // every store carries weights, so every program takes the per-edge fallback kernels
	file              bool // the store is a FileStore under t.TempDir() (storeDir), not a MemStore
}

// faultKind is the read fault a case injects.
type faultKind int

const (
	noFaults   faultKind = iota
	transients           // the first three reads fail transient, ridden out by as many retries
	delays               // the first eight block reads answer 200 µs late
	stalls               // the first block read hangs until the run ends: the read deadline times it out, and it is retried
)

// ioFaults is what the faults selector chooses: a fault kind, and a kill.
type ioFaults struct {
	kind faultKind
	kill int // the run is cancelled after this many iterations, then resumed on a cold reopen (0: never)
}

// faultsOf reads the faults selector: the kind is the byte modulo 4 and the
// kill the quotient modulo 3, so the bytes 0 and 1 still choose no fault and
// three transient faults.
func faultsOf(b int) ioFaults { return ioFaults{kind: faultKind(b % 4), kill: b / 4 % 3} }

// steady returns c without its delays, stall and kill: the configuration
// every run of the harness but the scheduled one uses (check).
func (c engineCase) steady() engineCase {
	if c.faults.kind != transients {
		c.faults.kind = noFaults
	}
	c.faults.kill = 0
	return c
}

// maxEdges bounds a decoded graph; the seeds carrying the matrices' graphs
// need about a thousand.
const maxEdges = 1024

// decodeEngineCase reads a case, a graph and a source vertex out of fuzz
// bytes: twelve selectors — P, K, format, model, threads, prefetch, cache
// budget, α (the default, or −1: the predictor decides every iteration),
// device profile (SSD or HDD, which the predictor prices reads with),
// read faults (none, three transient ones, delays or a stall, each with or
// without a kill after one or two iterations; faultsOf), weighting (the
// program's own, or always weighted) and substrate (MemStore or FileStore)
// — each taken modulo its number of choices, then the vertex count less
// one, a hub byte and the source, then (source, destination, weight)
// triples. An odd hub byte gives vertex hub/2 an edge to every vertex,
// itself included. Weights are the integers 1–4, so every path
// length is exact in float64; a repeated (source, destination) pair keeps
// its first weight, since a block section lists a neighbour once. Missing
// bytes read as 0: an empty input is one isolated vertex.
func decodeEngineCase(data []byte) (engineCase, *graph.Graph, graph.VertexID) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := engineCase{
		p:        [...]int{1, 2, 4}[next()%3],
		k:        [...]int{1, 2, 4}[next()%3],
		format:   [...]blockstore.Format{blockstore.FormatRaw, blockstore.FormatMixed}[next()%2],
		model:    [...]core.Model{core.ModelROP, core.ModelCOP, core.ModelHybrid}[next()%3],
		threads:  1 + next()%3,
		prefetch: next() % 3,
		cache:    [...]int64{0, 512, 1 << 20}[next()%3],
		alpha:    [...]float64{0, -1}[next()%2],
		device:   [...]storage.Profile{storage.SSD, storage.HDD}[next()%2],
		faults:   faultsOf(next()),
		weighted: next()%2 == 1,
		file:     next()%2 == 1,
	}
	n := 1 + next()%256
	hub := next()
	src := graph.VertexID(next() % n)
	g := graph.New(n)
	seen := map[[2]int]bool{}
	add := func(s, d, w int) {
		if len(g.Edges) < maxEdges && !seen[[2]int{s, d}] {
			seen[[2]int{s, d}] = true
			g.AddWeightedEdge(graph.VertexID(s), graph.VertexID(d), float32(1+w%4))
		}
	}
	if hub%2 == 1 {
		for v := 0; v < n; v++ {
			add(hub/2%n, v, v)
		}
	}
	for len(data) >= 3 {
		add(next()%n, next()%n, next())
	}
	return c, g, src
}

// fuzzProgram is one internal/algos program as the harness runs it.
type fuzzProgram struct {
	name     string
	weighted bool // the program reads edge weights: its store carries them
	maxIters int
	new      func(n int, src graph.VertexID) core.Program
	// oracle is the serial answer over the graph the program runs on, or
	// nil when the program is held to the reference run instead.
	oracle func(g *graph.Graph, src graph.VertexID) []float64
}

var fuzzPrograms = []fuzzProgram{
	{name: "BFS", new: func(_ int, src graph.VertexID) core.Program { return algos.BFS{Source: src} }, oracle: algos.OracleBFS},
	{name: "SSSP", weighted: true, new: func(_ int, src graph.VertexID) core.Program { return algos.SSSP{Source: src} }, oracle: algos.OracleSSSP},
	{name: "SSSP-Delta", weighted: true, new: func(_ int, src graph.VertexID) core.Program { return algos.DeltaSSSP{Source: src, Delta: 2} }, oracle: algos.OracleSSSP},
	{name: "WCC", new: func(int, graph.VertexID) core.Program { return algos.WCC{} }, oracle: func(g *graph.Graph, _ graph.VertexID) []float64 { return algos.OracleWCC(g) }},
	{name: "KCore", new: func(int, graph.VertexID) core.Program { return algos.KCore{K: 3} }, oracle: func(g *graph.Graph, _ graph.VertexID) []float64 { return algos.OracleKCore(g, 3) }},
	{name: "Coreness", new: func(int, graph.VertexID) core.Program { return &algos.Coreness{} }, oracle: func(g *graph.Graph, _ graph.VertexID) []float64 { return algos.OracleCoreness(g) }},
	{name: "PageRank", maxIters: 5, new: func(int, graph.VertexID) core.Program { return &algos.PageRank{} }},
	{name: "PageRank-Delta", new: func(int, graph.VertexID) core.Program { return &algos.PageRankDelta{} }},
	{name: "PPR", maxIters: 10, new: func(_ int, src graph.VertexID) core.Program { return &algos.PPR{Source: src} }},
	{name: "SpMV", maxIters: 1, new: func(n int, _ graph.VertexID) core.Program {
		x := make([]float64, n)
		for v := range x {
			x[v] = 1 / float64(v+1)
		}
		return algos.SpMV{X: x}
	}},
}

// undeclared and undeclaredPriority embed only the engine-facing interface,
// so the wrapped program's Reduce method is out of the method set and the
// engine must take the per-edge Message/Combine fallback. There is no
// configuration switch for that: hiding the declaration is the only way in.
type undeclared struct{ core.Program }
type undeclaredPriority struct{ core.PriorityProgram }

func hideReduce(p core.Program) core.Program {
	if pp, ok := p.(core.PriorityProgram); ok {
		return undeclaredPriority{pp}
	}
	return undeclared{p}
}

// countingStore counts the bytes every read returns, whole or ranged: what
// the substrate actually hands the engine. It skips checkpoints (aux/),
// which a resumed run loads before its first iteration.
type countingStore struct {
	storage.Store
	read atomic.Int64
}

func (s *countingStore) count(name string, b []byte, err error) ([]byte, error) {
	if !strings.HasPrefix(name, "aux/") {
		s.read.Add(int64(len(b)))
	}
	return b, err
}

func (s *countingStore) ReadAll(name string) ([]byte, error) {
	b, err := s.Store.ReadAll(name)
	return s.count(name, b, err)
}

func (s *countingStore) ReadAllInto(name string, buf []byte) ([]byte, error) {
	b, err := s.Store.ReadAllInto(name, buf)
	return s.count(name, b, err)
}

func (s *countingStore) ReadAt(name string, off, n int64) ([]byte, error) {
	b, err := s.Store.ReadAt(name, off, n)
	return s.count(name, b, err)
}

func (s *countingStore) ReadAtInto(name string, off, n int64, buf []byte) ([]byte, error) {
	b, err := s.Store.ReadAtInto(name, off, n, buf)
	return s.count(name, b, err)
}

// outcome is one run of a case.
type outcome struct {
	*core.Result
	k        int                   // the shard count the run resolved (0: one core.Engine)
	injected storage.FaultCounters // what the fault injector did
}

// fileStores holds, per test, the directory of each FileStore store the
// test has built, by storage options and graph. An input's ~45 runs then
// open a handful of stores instead of building one each: a P = 4 store is
// 65 files.
var fileStores = struct {
	sync.Mutex
	dirs map[*testing.T]map[string]string
}{dirs: map[*testing.T]map[string]string{}}

// storeDir returns a directory holding g's store under opts, built the
// first time t asks for it. A run opens it through a FileStore of its own,
// so runs share the bytes on disk and nothing else. The lock guards the
// map alone; the build runs outside it.
func storeDir(t *testing.T, g *graph.Graph, opts blockstore.Options) string {
	t.Helper()
	key := fmt.Sprint(opts, g.NumVertices, g.Edges)
	fileStores.Lock()
	dir, ok := fileStores.dirs[t][key]
	fileStores.Unlock()
	if ok {
		return dir
	}
	dir = buildDir(t, g, opts)
	fileStores.Lock()
	defer fileStores.Unlock()
	if fileStores.dirs[t] == nil {
		fileStores.dirs[t] = map[string]string{}
		t.Cleanup(func() {
			fileStores.Lock()
			delete(fileStores.dirs, t)
			fileStores.Unlock()
		})
	}
	fileStores.dirs[t][key] = dir
	return dir
}

// buildDir builds g's store under opts in a new directory.
func buildDir(t *testing.T, g *graph.Graph, opts blockstore.Options) string {
	t.Helper()
	dir := t.TempDir()
	fs, err := storage.NewFileStore(storage.NewDevice(storage.RAM), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := blockstore.BuildOpts(fs, g, opts); err != nil {
		t.Fatal(err)
	}
	return dir
}

// runWatchdog bounds a run's wall clock: a read hung past its deadline
// fails the test instead of hanging the suite.
const runWatchdog = 20 * time.Second

// stallDeadline is the read deadline of a case with a stall; each stall
// costs its run one.
const stallDeadline = 50 * time.Millisecond

// run builds g under c's storage options — or, on a FileStore, opens the
// store storeDir built — and runs prog through c's configuration. A read
// counter sits on the substrate, under the fault injector, which fails a
// faulted read before the substrate serves it. With faults, the first reads
// after the build or open fail transient and are retried, answer late, or
// hang until the read deadline. A killed run is reopened cold, as a
// restarted process would be, and resumes from the checkpoint it wrote to a
// store of its own; its outcome holds the iterations of both halves. Every
// run must finish within runWatchdog, resume where it was killed, charge no
// write, and count every retry once in the iterations' stats and once in the
// run's — a resumed run's total also holds what reopening and loading the
// checkpoint retried. Without a read deadline each iteration is charged
// exactly the bytes the substrate returned, and the retries equal the
// injected transient faults. Under one, which a healthy read may outlive
// too, the retries are at least the injected stalls, and the run is charged
// at most what the substrate returned: a healthy read that outlives the
// deadline is charged when it lands, which may be after its iteration, or
// after the run.
func (c engineCase) run(t *testing.T, g *graph.Graph, fp fuzzProgram, prog core.Program) outcome {
	t.Helper()
	dev := storage.NewDevice(c.device)
	opts := blockstore.Options{P: c.p, Format: c.format, Weighted: c.weighted || fp.weighted}
	var sub storage.Store = storage.NewMemStore(dev)
	if c.file {
		dir := storeDir(t, g, opts)
		if c.faults.kill > 0 {
			dir = buildDir(t, g, opts) // its checkpoints stay its own
		}
		fs, err := storage.NewFileStore(dev, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		sub = fs
	}
	counted := &countingStore{Store: sub}
	faulty := storage.NewFaultStore(counted, 1)
	defer faulty.ReleaseStalled()
	var ds *blockstore.DualStore
	var err error
	if c.file {
		ds, err = blockstore.Open(faulty)
	} else {
		ds, err = blockstore.BuildOpts(faulty, g, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := outcome{k: c.k}
	for out.k > 0 && ds.Layout.P%out.k != 0 { // a graph smaller than P keeps fewer intervals
		out.k /= 2
	}
	var read []int64 // the bytes the substrate returned during each iteration
	var last int64
	var seen []core.IterStats // every iteration, a killed run's included
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := core.Config{
		Model: c.model, Threads: c.threads, PrefetchDepth: c.prefetch,
		CacheBudgetBytes: c.cache, Alpha: c.alpha, MaxIters: fp.maxIters,
		OnIteration: func(st core.IterStats) {
			n := counted.read.Load()
			read = append(read, n-last)
			last = n
			if seen = append(seen, st); len(seen) == c.faults.kill {
				cancel()
			}
		},
	}
	switch c.faults.kind {
	case transients:
		cfg.ReadRetries = 3
		faulty.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, Count: 3})
	case delays:
		faulty.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultDelay, Name: "b/", Count: 8, Delay: 200 * time.Microsecond})
	case stalls:
		cfg.ReadRetries, cfg.ReadDeadline = 4, stallDeadline
		faulty.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultStall, Name: "b/", Count: 1})
	}
	if c.faults.kill > 0 {
		cfg.CheckpointEvery = 2
	}
	start := func(ctx context.Context, ds *blockstore.DualStore) (*core.Result, error) {
		if out.k == 0 {
			return core.New(ds, cfg).RunContext(ctx, prog)
		}
		co, err := shard.New(ds, shard.Config{Config: cfg, Shards: out.k})
		if err != nil {
			return nil, err
		}
		return co.RunContext(ctx, prog)
	}
	var killed bool
	var reopens int64 // transient faults the killed run left for the reopen's meta read
	done := make(chan error, 1)
	counted.read.Store(0)
	go func() {
		res, err := start(ctx, ds)
		if killed = errors.Is(err, context.Canceled); killed {
			for ds, err = blockstore.Open(faulty); errors.Is(err, storage.ErrTransient); ds, err = blockstore.Open(faulty) {
				reopens++
			}
			if err == nil {
				last = counted.read.Load()
				cfg.Resume, cfg.CheckpointEvery = true, 0
				res, err = start(context.Background(), ds)
			}
		}
		out.Result = res
		done <- err
	}()
	watchdog := time.NewTimer(runWatchdog)
	defer watchdog.Stop()
	select {
	case err = <-done:
	case <-watchdog.C:
		faulty.ReleaseStalled()
		t.Fatalf("%s under %+v: still running after %v: a read hung past its deadline", fp.name, c, runWatchdog)
	}
	if err != nil {
		t.Fatalf("%s under %+v: %v", fp.name, c, err)
	}
	if killed {
		if out.Recovery.ResumedIter != c.faults.kill {
			t.Fatalf("%s under %+v: killed after %d iterations, resumed at iteration %d", fp.name, c, c.faults.kill, out.Recovery.ResumedIter)
		}
		for _, st := range seen[:c.faults.kill] {
			out.Recovery.Retries += st.Retries
		}
		out.Recovery.Retries += reopens
		out.Iterations = seen
	}
	var charged, served int64
	for i, st := range out.Iterations {
		charged, served = charged+st.IO.ReadBytes(), served+read[i]
		if (st.IO.ReadBytes() != read[i] && cfg.ReadDeadline == 0) || st.IO.WriteBytes() != 0 {
			t.Fatalf("%s under %+v, iteration %d (%v): charged %d bytes read and %d written; the store read %d",
				fp.name, c, i, st.Model, st.IO.ReadBytes(), st.IO.WriteBytes(), read[i])
		}
	}
	if charged > served {
		t.Fatalf("%s under %+v: charged %d bytes read; the store read %d", fp.name, c, charged, served)
	}
	out.injected = faulty.Counters()
	injected := out.injected.Transient + out.injected.Stalls
	sum, total := out.TotalRetries(), out.Recovery.Retries
	if sum > total || (sum < total && !killed) || total < injected || (total > injected && cfg.ReadDeadline == 0) {
		t.Fatalf("%s under %+v: %d retries over the iterations, %d over the run, %d faults injected", fp.name, c, sum, total, injected)
	}
	return out
}

// exact reports whether a run's statistics are a pure function of its
// store, configuration and program. They are not when a ROP iteration ran
// while the cache refused an admission: ROP workers insert runs
// concurrently, so which runs a full cache keeps depends on scheduling
// (DESIGN.md §7, ROADMAP 7b). Values are exact either way.
func (o outcome) exact() bool {
	if o.Cache.AdmissionRejected == 0 {
		return true
	}
	for _, st := range o.Iterations {
		if st.Model == core.ModelROP {
			return false
		}
	}
	return true
}

// timeless returns st without its host wall-clock measurements — the only
// fields of an IterStats that two runs of one configuration may differ in —
// down through the per-shard reports of a K > 1 iteration.
func timeless(st core.IterStats) core.IterStats {
	st.ComputeTime, st.DecodeTime, st.PrefetchStall = 0, 0, 0
	if st.Shards != nil {
		shards := make([]core.ShardIterStats, len(st.Shards))
		for k, ss := range st.Shards {
			shards[k] = core.ShardIterStats{Shard: ss.Shard, Stats: timeless(ss.Stats)}
		}
		st.Shards = shards
	}
	return st
}

// wantBits fails unless got and want agree to the bit.
func wantBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: value[%d] = %v, want %v", what, v, got[v], want[v])
		}
	}
}

// wantSameRun fails unless got equals want in values and, when both runs
// are exact, in every field of the Result but the host-clock ones.
func wantSameRun(t *testing.T, what string, got, want outcome) {
	t.Helper()
	wantBits(t, what, got.Values, want.Values)
	if !got.exact() || !want.exact() {
		return
	}
	strip := func(o outcome) core.Result {
		r := *o.Result
		r.Values, r.Iterations = nil, make([]core.IterStats, len(o.Iterations))
		for i, st := range o.Iterations {
			r.Iterations[i] = timeless(st)
		}
		return r
	}
	if a, b := strip(got), strip(want); !reflect.DeepEqual(a, b) {
		if a.Converged != b.Converged || len(a.Iterations) != len(b.Iterations) {
			t.Fatalf("%s: %d iterations (converged %v), want %d (%v)", what, len(a.Iterations), a.Converged, len(b.Iterations), b.Converged)
		}
		for i := range a.Iterations {
			if !reflect.DeepEqual(a.Iterations[i], b.Iterations[i]) {
				t.Fatalf("%s: iteration %d differs:\n got  %+v\n want %+v", what, i, a.Iterations[i], b.Iterations[i])
			}
		}
		t.Fatalf("%s: results differ:\n got  %+v\n want %+v", what, a, b)
	}
}

// check runs one program under c and holds it to every property of the
// harness. The runs it compares are c's steady twin; c's delays, stall and
// kill reach one more run.
func (c engineCase) check(t *testing.T, g *graph.Graph, src graph.VertexID, fp fuzzProgram) {
	fresh := func() core.Program { return fp.new(g.NumVertices, src) }
	if fresh().NeedsSymmetric() {
		g = g.Symmetrize()
	}
	scheduled := c
	if _, ok := fresh().(core.PriorityProgram); ok {
		scheduled.faults.kill = 0 // core.Drive refuses to checkpoint a priority program (ROADMAP 7e)
	}
	if fp.name != fuzzPrograms[0].name && c.faults.kind == stalls {
		scheduled.faults.kind = noFaults // a stalled run waits out a read deadline: BFS's alone stalls
	}
	c = c.steady()
	what := fmt.Sprintf("%s under %+v", fp.name, c)
	got := c.run(t, g, fp, fresh())

	// The serial oracle, or the reference run: K = 1, one thread, no
	// prefetch, cache or faults, raw storage.
	if fp.oracle != nil {
		wantBits(t, what, got.Values, fp.oracle(g, src))
	} else {
		ref := engineCase{p: c.p, k: 1, model: c.model, threads: 1, alpha: c.alpha, device: c.device, weighted: c.weighted}
		wantBits(t, fmt.Sprintf("%s against %+v", what, ref), got.Values, ref.run(t, g, fp, fresh()).Values)
	}

	// Replay: a run's statistics are a pure function of (store, config,
	// program).
	wantSameRun(t, what+", second run", c.run(t, g, fp, fresh()), got)

	// The declared reduction against the per-edge fallback.
	hidden := c.run(t, g, fp, hideReduce(fresh()))
	wantBits(t, what+", reduction hidden", hidden.Values, got.Values)
	if got.exact() && hidden.exact() {
		if len(hidden.Iterations) != len(got.Iterations) {
			t.Fatalf("%s: %d iterations with the reduction hidden, %d declared", what, len(hidden.Iterations), len(got.Iterations))
		}
		for i, h := range hidden.Iterations {
			if st := got.Iterations[i]; h.Model != st.Model || h.ActiveVertices != st.ActiveVertices || h.IO != st.IO {
				t.Fatalf("%s iteration %d: model %v, %d active, IO %+v; with the reduction hidden %v, %d, %+v",
					what, i, st.Model, st.ActiveVertices, st.IO, h.Model, h.ActiveVertices, h.IO)
			}
		}
	}

	c.wantSameAtK1(t, g, fp, fresh, what, got)

	// One run under the case's delays, stall or kill: the values of the
	// steady run above, to the bit.
	if scheduled != c {
		wantBits(t, fmt.Sprintf("%s under %+v", fp.name, scheduled), scheduled.run(t, g, fp, fresh()).Values, got.Values)
	}
}

// wantSameAtK1 holds got, a run of fp under c, to the shard properties: at
// K > 1 it equals K = 1 in values, convergence, iteration count and bucket
// sequence, and in each iteration's model when there is no cache; at K = 1,
// shard.New equals core.New but for the host clock. g is the graph the
// program runs on, already symmetrised if it needs to be.
func (c engineCase) wantSameAtK1(t *testing.T, g *graph.Graph, fp fuzzProgram, fresh func() core.Program, what string, got outcome) {
	t.Helper()
	base := c
	base.k = 1
	if got.k == 1 {
		base.k = 0
		wantSameRun(t, what+", shard.New against core.New", got, base.run(t, g, fp, fresh()))
		return
	}
	one := base.run(t, g, fp, fresh())
	wantBits(t, what+" against K = 1", got.Values, one.Values)
	if got.Converged != one.Converged || len(got.Iterations) != len(one.Iterations) {
		t.Fatalf("%s: %d iterations (converged %v), K = 1 %d (%v)", what, len(got.Iterations), got.Converged, len(one.Iterations), one.Converged)
	}
	for i, st := range got.Iterations {
		if o := one.Iterations[i]; st.BucketPri != o.BucketPri || st.BucketPending != o.BucketPending {
			t.Fatalf("%s iteration %d: bucket %d with %d parked at K = %d, %d with %d at K = 1", what, i, st.BucketPri, st.BucketPending, got.k, o.BucketPri, o.BucketPending)
		}
		if c.cache == 0 && st.Model != one.Iterations[i].Model {
			t.Fatalf("%s iteration %d: K = %d chose %v, K = 1 %v", what, i, got.k, st.Model, one.Iterations[i].Model)
		}
	}
}

// engineSeed is one seed of FuzzEngineConfig: a cell of the hand-built
// matrices the harness replaced, with what
// TestEngineSeedsKeepTheirMeaning holds it to.
type engineSeed struct {
	name  string
	data  []byte
	keeps []seedMeaning
}

// seedMeaning is a property of a seed's cell that a change of the header
// layout or of a selector's choices could silently lose.
type seedMeaning int

const (
	refuses     seedMeaning = iota // the cache refuses an admission in a PageRank run
	bothModels                     // a hybrid SSSP runs ROP and COP iterations
	bothCodecs                     // the mixed store holds a group-varint (CodecVarint) and a plain-record (CodecCOO) in-block
	fourShards                     // K = 4 over four intervals
	onFile                         // the store is a FileStore
	allWeighted                    // every store carries weights
	stalledCOP                     // a COP BFS run's stall timed out and was retried
	stalledROP                     // a ROP BFS run's stall timed out and was retried
	delayed                        // a BFS run's reads answered late
	resumed                        // a killed PageRank run resumed from its checkpoint
	twoShards                      // K = 2
	cachedFold                     // a PageRank COP iteration hits every block and folds group-varint ones
)

// seedTriples lays g's edges out as the triples decodeEngineCase reads,
// with weights 1–4 in turn.
func seedTriples(g *graph.Graph) [][3]byte {
	var out [][3]byte
	for i, e := range g.Edges {
		out = append(out, [3]byte{byte(e.Src), byte(e.Dst), byte(i)})
	}
	return out
}

// engineSeeds are FuzzEngineConfig's seed corpus, which plain go test runs.
// The first eleven are the harness's own; the rest carry the cells of the
// hand-built matrices and of the chaos harness it replaced (CHANGES.md maps
// each).
func engineSeeds() []engineSeed {
	// seed lays a case out the way decodeEngineCase reads it: the fifteen
	// header bytes, then the edge triples.
	seed := func(header [15]byte, edges ...[3]byte) []byte {
		b := header[:]
		for _, e := range edges {
			b = append(b, e[:]...)
		}
		return b
	}
	var chain [][3]byte // 0→1→…→15: all of it in block (0,0) at 64 vertices, P = 4
	for v := byte(0); v < 15; v++ {
		chain = append(chain, [3]byte{v, v + 1, v})
	}
	rng := rand.New(rand.NewSource(29))
	var random [][3]byte
	for len(random) < 300 {
		random = append(random, [3]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
	}
	rng = rand.New(rand.NewSource(7))
	web := seedTriples(gen.Web(256, 1000, gen.WebParams{Alpha: 2.2, JumpFrac: 0.05}, rng))
	rmat := seedTriples(gen.RMAT(256, 900, gen.Graph500, rng))
	tree := seedTriples(gen.RandomTree(200, rng))
	grid := seedTriples(gen.Grid(12, 17))
	return []engineSeed{
		{"ten isolated vertices, P = K = 4", seed([15]byte{2, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0}), nil},
		{"one vertex, its self-loop; P and K clamp to 1; α −1 on HDD", seed([15]byte{2, 2, 1, 2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0}), nil},
		{"mixed chain: group-varint block (0,0), the other fifteen plain records; HDD", seed([15]byte{2, 1, 1, 0, 1, 1, 2, 0, 1, 0, 0, 0, 63, 0, 0}, chain...), []seedMeaning{bothCodecs}},
		{"hub 3, self-loops; COP, 512 B cache", seed([15]byte{2, 1, 1, 1, 2, 2, 1, 1, 0, 0, 0, 0, 31, 7, 3}, [3]byte{5, 5, 0}, [3]byte{5, 6, 1}, [3]byte{9, 9, 2}), nil},
		{"raw ROP over two shards", seed([15]byte{1, 1, 0, 0, 2, 1, 1, 1, 1, 0, 0, 0, 40, 0, 2}, [3]byte{2, 30, 3}, [3]byte{30, 2, 0}, [3]byte{2, 17, 1}), nil},
		{"300 random triples and a hub: hybrid switches models", seed([15]byte{2, 1, 1, 2, 1, 1, 2, 0, 0, 0, 0, 0, 63, 21, 0}, random...), []seedMeaning{bothModels}},
		{"the same graph under ROP, K = 4", seed([15]byte{2, 2, 1, 0, 2, 2, 1, 1, 1, 0, 0, 0, 63, 0, 7}, random...), []seedMeaning{fourShards}},
		{"hybrid, α −1 on HDD: the predictor decides every iteration", seed([15]byte{2, 1, 0, 2, 1, 0, 0, 1, 1, 0, 0, 0, 63, 21, 0}, random...), nil},
		{"hybrid, α −1 on SSD, no hub: a one-vertex frontier the predictor sends to ROP", seed([15]byte{2, 1, 0, 2, 1, 0, 0, 1, 0, 0, 0, 0, 63, 0, 0}, random...), nil},
		{"three transient faults under ROP, K = 2, prefetch 2", seed([15]byte{2, 1, 0, 0, 1, 2, 0, 0, 0, 1, 0, 0, 63, 21, 0}, random...), nil},
		{"three transient faults, hybrid over a mixed store with a 1 MiB cache", seed([15]byte{2, 0, 1, 2, 0, 0, 2, 0, 1, 1, 0, 0, 63, 21, 0}, random...), nil},

		// The unweighted web graph's in-blocks, one 4-byte record per edge
		// and no in-index, all fit these two seeds' 512 B cache; their
		// weighted twins at the end of the list keep refused admissions.
		{"web, hybrid, prefetch 2, 512 B cache", seed([15]byte{2, 0, 0, 2, 1, 2, 1, 0, 1, 0, 0, 0, 255, 0, 0}, web...), nil},
		{"web, K = 2, prefetch 2, 512 B cache", seed([15]byte{2, 1, 0, 2, 1, 2, 1, 0, 1, 0, 0, 0, 255, 0, 0}, web...), nil},
		{"web, K = 2, mixed, prefetch 2: each shard counts its own decodes", seed([15]byte{2, 1, 1, 2, 1, 2, 0, 0, 1, 0, 0, 0, 255, 0, 0}, web...), []seedMeaning{bothCodecs}},
		{"web, hybrid, prefetch 2, a cache that holds every block", seed([15]byte{2, 0, 0, 2, 2, 2, 2, 0, 1, 0, 0, 0, 255, 0, 0}, web...), nil},
		{"web, ROP, a cache that holds every block: hits and promotions", seed([15]byte{2, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 255, 0, 0}, web...), nil},
		{"web, K = 2, hybrid, no cache: the arbiter replays K = 1's choices", seed([15]byte{2, 1, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 255, 0, 0}, web...), []seedMeaning{bothModels}},
		{"rmat, K = 4, hybrid, prefetch 1, 512 B cache", seed([15]byte{2, 2, 0, 2, 2, 1, 1, 0, 1, 0, 0, 0, 255, 0, 0}, rmat...), []seedMeaning{fourShards}},
		{"rmat, every store weighted, mixed, K = 2, prefetch 2", seed([15]byte{2, 1, 1, 2, 1, 2, 0, 0, 1, 0, 1, 0, 255, 0, 0}, rmat...), []seedMeaning{allWeighted}},
		{"tree on a FileStore, P = 2, hybrid", seed([15]byte{1, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 1, 199, 0, 0}, tree...), []seedMeaning{onFile}},
		{"grid, K = 2, hybrid on SSD, three threads, prefetch 1", seed([15]byte{2, 1, 0, 2, 2, 1, 0, 0, 0, 0, 0, 0, 203, 0, 100}, grid...), nil},
		{"web, weighted, hybrid, prefetch 2, 512 B cache: replayed under refused admissions", seed([15]byte{2, 0, 0, 2, 1, 2, 1, 0, 1, 0, 1, 0, 255, 0, 0}, web...), []seedMeaning{refuses}},
		{"web, weighted, K = 2, prefetch 2, 512 B cache", seed([15]byte{2, 1, 0, 2, 1, 2, 1, 0, 1, 0, 1, 0, 255, 0, 0}, web...), []seedMeaning{refuses}},

		{"rmat, COP, prefetch 2: a hung block read times out at the read deadline and is retried", seed([15]byte{2, 0, 0, 1, 1, 2, 0, 0, 0, 3, 0, 0, 255, 0, 0}, rmat...), []seedMeaning{stalledCOP}},
		{"rmat, ROP, K = 2, prefetch 1: a stall", seed([15]byte{2, 1, 0, 0, 2, 1, 0, 0, 0, 3, 0, 0, 255, 0, 0}, rmat...), []seedMeaning{stalledROP, twoShards}},
		{"web, mixed, hybrid, prefetch 2: a stall", seed([15]byte{2, 0, 1, 2, 1, 2, 0, 0, 0, 3, 0, 0, 255, 0, 0}, web...), []seedMeaning{bothCodecs}},
		{"rmat, hybrid, prefetch 2: block reads answer late", seed([15]byte{2, 0, 0, 2, 1, 2, 0, 0, 0, 2, 0, 0, 255, 0, 0}, rmat...), []seedMeaning{delayed}},
		{"rmat, COP, three transient faults, killed after two iterations and resumed", seed([15]byte{2, 0, 0, 1, 1, 2, 0, 0, 0, 9, 0, 0, 255, 0, 0}, rmat...), []seedMeaning{resumed}},
		{"web, mixed, COP, delays, killed after two iterations and resumed", seed([15]byte{2, 0, 1, 1, 1, 2, 0, 0, 0, 10, 0, 0, 255, 0, 0}, web...), []seedMeaning{resumed, bothCodecs, delayed}},
		{"rmat, K = 2, COP, killed after one iteration and resumed", seed([15]byte{2, 1, 0, 1, 1, 2, 0, 0, 0, 4, 0, 0, 255, 0, 0}, rmat...), []seedMeaning{resumed, twoShards}},
		{"tree on a FileStore, hybrid, killed after two iterations: its checkpoints in a store of its own", seed([15]byte{1, 0, 0, 2, 1, 0, 0, 0, 0, 8, 0, 1, 199, 0, 0}, tree...), []seedMeaning{resumed, onFile}},
		{"web, mixed, COP, prefetch 2, a cache that holds every block: hits fold group-varint blocks as stored", seed([15]byte{2, 0, 1, 1, 1, 2, 2, 0, 0, 0, 0, 0, 255, 0, 0}, web...), []seedMeaning{cachedFold, bothCodecs}},
	}
}

// FuzzEngineConfig holds every configuration of the run path to one answer
// and checks every property of the harness on it (DESIGN.md §7, ROADMAP
// 16). Over a graph of up to 256 vertices and 1024 edges — edgeless, with
// self-loops or a hub — and any P, K, storage format, model, thread count,
// prefetch depth, cache budget, α, device profile, read faults and kill,
// weighting and substrate, every internal/algos program
//   - equals its serial oracle to the bit (BFS, SSSP, SSSP-Delta, WCC,
//     KCore, Coreness), or the same model's run at the same α, device and
//     weighting with K = 1, one thread, no prefetch, cache or faults, raw
//     storage (PageRank, PageRank-Delta, PPR, SpMV);
//   - replays: a second run gives the same Result but for the host clock;
//   - gives the declared reduction's answer, iteration models, active
//     counts and IO with the reduction hidden (the per-edge fallback);
//   - at K > 1 equals K = 1 in values, convergence, iteration count and
//     bucket sequence, and in each iteration's model when there is no
//     cache; at K = 1, shard.New equals core.New but for the host clock;
//   - charges each iteration exactly the bytes the substrate returned, and
//     no write; and counts each injected fault as one retry, per iteration
//     and per run;
//   - with reads that answer late, a read hung past the read deadline, or
//     a kill resumed from its checkpoint on a cold reopen, gives the
//     values of the run without them to the bit, within a watchdog, with
//     every stall retried and the retries and a resumed run's iterations
//     accounted across both of its halves (run).
//
// Replays and comparisons of statistics are skipped, and values compared
// alone, for a run in which ROP ran while the cache refused an admission.
func FuzzEngineConfig(f *testing.F) {
	for _, s := range engineSeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, g, src := decodeEngineCase(data)
		for _, fp := range fuzzPrograms {
			c.check(t, g, src, fp)
		}
	})
}

// TestEngineSeedsKeepTheirMeaning holds each named seed to the cell it
// carries, and the cached seeds together to a hit and a promotion: the seeds
// are bytes, and a selector added or reordered would otherwise leave them
// passing while they exercise something else. It also holds hideReduce to
// hiding the reduction and nothing else.
func TestEngineSeedsKeepTheirMeaning(t *testing.T) {
	byName := map[string]fuzzProgram{}
	for _, fp := range fuzzPrograms {
		byName[fp.name] = fp
	}
	for _, fp := range fuzzPrograms {
		prog := fp.new(1, 0)
		_, declares := hideReduce(prog).(core.Reducer)
		_, was := prog.(core.PriorityProgram)
		if _, is := hideReduce(prog).(core.PriorityProgram); declares || is != was {
			t.Errorf("%s: with the reduction hidden, a Reducer %v, bucketed %v (was %v)", fp.name, declares, is, was)
		}
	}
	var cached blockstore.CacheStats
	for _, s := range engineSeeds() {
		c, g, src := decodeEngineCase(s.data)
		run := func(name string) outcome {
			fp := byName[name]
			return c.run(t, g, fp, fp.new(g.NumVertices, src))
		}
		if c.cache > 0 {
			for _, name := range []string{"BFS", "PageRank"} {
				st := run(name).Cache
				cached.Hits += st.Hits
				cached.Promotions += st.Promotions
			}
		}
		for _, m := range s.keeps {
			switch m {
			case refuses:
				if st := run("PageRank").Cache; st.AdmissionRejected == 0 {
					t.Errorf("%s: the cache refused nothing (%+v)", s.name, st)
				}
			case bothModels:
				if rop, cop := run("SSSP").ModelCounts(); c.model != core.ModelHybrid || rop == 0 || cop == 0 {
					t.Errorf("%s: %v ran %d ROP and %d COP iterations, want both under hybrid", s.name, c.model, rop, cop)
				}
			case bothCodecs:
				ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(c.device)), g, blockstore.Options{P: c.p, Format: c.format, Weighted: c.weighted})
				if err != nil {
					t.Fatal(err)
				}
				codecs := map[blockstore.Codec]int{}
				for i := 0; i < ds.Layout.P; i++ {
					for j := 0; j < ds.Layout.P; j++ {
						codecs[ds.InCodec(i, j)]++
					}
				}
				if codecs[blockstore.CodecVarint] == 0 || codecs[blockstore.CodecCOO] == 0 {
					t.Errorf("%s: in-block codecs %v, want a group-varint and a plain-record one", s.name, codecs)
				}
			case fourShards:
				if o := run("BFS"); o.k != 4 {
					t.Errorf("%s: ran at K = %d, want 4", s.name, o.k)
				}
			case onFile:
				if !c.file {
					t.Errorf("%s: the store is a MemStore, want a FileStore", s.name)
				}
			case allWeighted:
				if !c.weighted {
					t.Errorf("%s: only the weighted programs' stores carry weights", s.name)
				}
			case stalledCOP, stalledROP:
				want := map[seedMeaning]core.Model{stalledCOP: core.ModelCOP, stalledROP: core.ModelROP}[m]
				if o := run("BFS"); c.model != want || o.injected.Stalls == 0 || o.Recovery.Retries < o.injected.Stalls {
					t.Errorf("%s: %v, %d stalls, %d retries; want a stall retried under %v", s.name, c.model, o.injected.Stalls, o.Recovery.Retries, want)
				}
			case delayed:
				if o := run("BFS"); o.injected.Delays == 0 {
					t.Errorf("%s: no read answered late (%v)", s.name, o.injected)
				}
			case resumed:
				if o := run("PageRank"); o.Recovery.ResumedIter == 0 {
					t.Errorf("%s: the run was not killed and resumed (%+v)", s.name, o.Recovery)
				}
			case twoShards:
				if o := run("BFS"); o.k != 2 {
					t.Errorf("%s: ran at K = %d, want 2", s.name, o.k)
				}
			case cachedFold:
				folded := false
				for _, st := range run("PageRank").Iterations {
					folded = folded || st.Model == core.ModelCOP && st.CacheHits > 0 && st.CacheMisses == 0 && st.DecodedBytes > 0
				}
				if !folded {
					t.Errorf("%s: no COP iteration hit every block and decoded", s.name)
				}
			}
		}
	}
	if cached.Hits == 0 || cached.Promotions == 0 {
		t.Errorf("the cached seeds never hit or never promoted (%+v)", cached)
	}
}
