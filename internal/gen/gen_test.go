package gen

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"husgraph/internal/graph"
)

func TestRMATBasics(t *testing.T) {
	g := RMAT(1024, 5000, Graph500, rand.New(rand.NewSource(1)))
	if g.NumVertices != 1024 {
		t.Fatalf("V = %d", g.NumVertices)
	}
	if g.NumEdges() < 4500 || g.NumEdges() > 5000 {
		t.Fatalf("E = %d, want ~5000 after dedup", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Fatal("self loop survived")
		}
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(256, 1000, Graph500, rand.New(rand.NewSource(7)))
	b := RMAT(256, 1000, Graph500, rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Fatal("same seed produced different graphs")
	}
	c := RMAT(256, 1000, Graph500, rand.New(rand.NewSource(8)))
	if reflect.DeepEqual(a.Edges, c.Edges) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	g := RMAT(4096, 40000, Graph500, rand.New(rand.NewSource(2)))
	degs := g.OutDegrees()
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	mean := float64(g.NumEdges()) / float64(g.NumVertices)
	if float64(degs[0]) < 10*mean {
		t.Fatalf("max degree %d not skewed vs mean %.1f", degs[0], mean)
	}
}

func TestRMATBadProbsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RMAT(16, 10, RMATParams{A: 0.5, B: 0.5, C: 0.5, D: 0.5}, rand.New(rand.NewSource(1)))
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 500, rand.New(rand.NewSource(3)))
	if g.NumEdges() != 500 {
		t.Fatalf("E = %d", g.NumEdges())
	}
	seen := map[[2]graph.VertexID]bool{}
	for _, e := range g.Edges {
		k := [2]graph.VertexID{e.Src, e.Dst}
		if seen[k] {
			t.Fatal("duplicate edge")
		}
		seen[k] = true
	}
}

func TestErdosRenyiTooManyEdgesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ErdosRenyi(3, 100, rand.New(rand.NewSource(1)))
}

func TestChungLuPowerLaw(t *testing.T) {
	g := ChungLu(2000, 20000, 2.2, rand.New(rand.NewSource(4)))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Endpoint popularity decays with ID, so low IDs get most edges.
	deg := g.OutDegrees()
	lowSum, highSum := 0, 0
	for i := 0; i < 100; i++ {
		lowSum += deg[i]
	}
	for i := 1900; i < 2000; i++ {
		highSum += deg[i]
	}
	if lowSum <= 5*highSum {
		t.Fatalf("no power-law skew: low=%d high=%d", lowSum, highSum)
	}
}

func TestWebGraphHighDiameter(t *testing.T) {
	social := RMAT(8192, 80000, Graph500, rand.New(rand.NewSource(5)))
	web := Web(8192, 80000, DefaultWeb, rand.New(rand.NewSource(5)))
	ds := bfsDepth(social, BFSSource(social))
	dw := bfsDepth(web, BFSSource(web))
	if dw <= ds {
		t.Fatalf("web depth %d should exceed social depth %d", dw, ds)
	}
	if dw < 7 {
		t.Fatalf("web core depth %d too small (datasets add tendril tails on top)", dw)
	}
}

// bfsDepth runs an in-memory BFS and returns the deepest level reached.
func bfsDepth(g *graph.Graph, src graph.VertexID) int {
	csr := graph.BuildOutCSR(g)
	depth := make([]int, g.NumVertices)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	queue := []graph.VertexID{src}
	maxd := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range csr.Neighbors(v) {
			if depth[u] < 0 {
				depth[u] = depth[v] + 1
				if depth[u] > maxd {
					maxd = depth[u]
				}
				queue = append(queue, u)
			}
		}
	}
	return maxd
}

func TestStructuredGenerators(t *testing.T) {
	p := Path(5)
	if p.NumEdges() != 4 || p.Edges[0].Src != 0 || p.Edges[3].Dst != 4 {
		t.Fatalf("Path: %v", p.Edges)
	}
	c := Cycle(5)
	if c.NumEdges() != 5 {
		t.Fatalf("Cycle edges = %d", c.NumEdges())
	}
	s := Star(5)
	if s.NumEdges() != 4 || s.OutDegrees()[0] != 4 {
		t.Fatalf("Star: %v", s.Edges)
	}
	g := Grid(3, 4)
	if g.NumVertices != 12 || g.NumEdges() != 3*3+2*4 {
		t.Fatalf("Grid: V=%d E=%d", g.NumVertices, g.NumEdges())
	}
	k := Complete(4)
	if k.NumEdges() != 12 {
		t.Fatalf("Complete edges = %d", k.NumEdges())
	}
	tr := RandomTree(50, rand.New(rand.NewSource(6)))
	if tr.NumEdges() != 49 {
		t.Fatalf("tree edges = %d", tr.NumEdges())
	}
	if got := bfsDepth(tr, 0); got < 1 {
		t.Fatalf("tree not reachable from root, depth %d", got)
	}
	in := tr.InDegrees()
	for v := 1; v < 50; v++ {
		if in[v] != 1 {
			t.Fatalf("tree vertex %d has in-degree %d", v, in[v])
		}
	}
}

func TestAddTendrils(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := RMAT(900, 5000, Graph500, rng)
	g.NumVertices = 1000
	AddTendrils(g, 900, 20, rng)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every tendril vertex has exactly one in-edge and at most one
	// out-edge, forming chains.
	in, out := g.InDegrees(), g.OutDegrees()
	for v := 900; v < 1000; v++ {
		if in[v] != 1 {
			t.Fatalf("tendril vertex %d has in-degree %d", v, in[v])
		}
		if out[v] > 1 {
			t.Fatalf("tendril vertex %d has out-degree %d", v, out[v])
		}
	}
	// Tendrils stay connected to the core: following in-edges from any
	// tendril vertex reaches a core vertex.
	inCSR := graph.BuildInCSR(g)
	for v := graph.VertexID(950); v >= 900; v -= 17 {
		cur := v
		for steps := 0; int(cur) >= 900; steps++ {
			if steps > 1000 {
				t.Fatalf("tendril from %d does not reach core", v)
			}
			cur = inCSR.Neighbors(cur)[0]
		}
	}
}

func TestAddTendrilsPanics(t *testing.T) {
	g := Path(10)
	for name, fn := range map[string]func(){
		"zero core":   func() { AddTendrils(g, 0, 5, rand.New(rand.NewSource(1))) },
		"big core":    func() { AddTendrils(g, 11, 5, rand.New(rand.NewSource(1))) },
		"zero length": func() { AddTendrils(g, 5, 0, rand.New(rand.NewSource(1))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDatasetTendrilTails(t *testing.T) {
	// Dataset graphs must have a long sparse BFS tail: the max depth far
	// exceeds the depth at which most vertices are reached (Fig. 1/8
	// shape).
	if testing.Short() {
		t.Skip("dataset build is slow for -short")
	}
	d, _ := ByName("livejournal-sim")
	g := d.BuildCached()
	depth := bfsDepth(g, BFSSource(g))
	if depth < 7 {
		t.Fatalf("livejournal-sim BFS depth %d; want a tendril tail >= 7", depth)
	}
}

func TestAssignUniformWeights(t *testing.T) {
	g := Path(100)
	AssignUniformWeights(g, 2, 5, rand.New(rand.NewSource(9)))
	for _, e := range g.Edges {
		if e.Weight < 2 || e.Weight >= 5 {
			t.Fatalf("weight %v out of [2,5)", e.Weight)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := Registry()
	if len(r) != 5 {
		t.Fatalf("registry size = %d", len(r))
	}
	wantNames := []string{"livejournal-sim", "twitter-sim", "sk-sim", "uk-sim", "ukunion-sim"}
	if got := Names(); !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("Names = %v", got)
	}
	// Sizes strictly increase, matching the paper's ordering.
	for i := 1; i < len(r); i++ {
		if r[i].TargetEdges <= r[i-1].TargetEdges {
			t.Fatalf("dataset %s not larger than %s", r[i].Name, r[i-1].Name)
		}
	}
	if !r[0].MemoryFit {
		t.Fatal("livejournal-sim should be the in-memory dataset")
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("twitter-sim")
	if err != nil || d.Kind != "social" {
		t.Fatalf("ByName: %+v, %v", d, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestDatasetBuildDeterministicAndValid holds every registry dataset, the
// graphs every paper figure runs on, to a valid graph of its declared size
// with SSSP weights. Determinism is checked on each dataset's generator
// at a sixteenth of its edges (the scale husbench -quick runs): two
// builds must agree edge for edge. Full-scale determinism is what CI's
// byte-for-byte diff of husbench -exp all checks.
func TestDatasetBuildDeterministicAndValid(t *testing.T) {
	for _, d := range Registry() {
		t.Run(d.Name, func(t *testing.T) {
			g := d.BuildCached()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if g.NumVertices != d.Vertices {
				t.Fatalf("V = %d, want %d", g.NumVertices, d.Vertices)
			}
			if g.NumEdges() < d.TargetEdges*9/10 {
				t.Fatalf("E = %d, want >= 90%% of %d", g.NumEdges(), d.TargetEdges)
			}
			for _, e := range g.Edges {
				if e.Weight < 1 || e.Weight >= 10 {
					t.Fatalf("edge %d→%d weight %v, want [1, 10)", e.Src, e.Dst, e.Weight)
				}
			}
			small := d
			small.Vertices /= 8
			small.TargetEdges /= 16
			if g1, g2 := small.Build(), small.Build(); !reflect.DeepEqual(g1.Edges, g2.Edges) || g1.NumEdges() == 0 {
				t.Fatalf("Build not deterministic: %d then %d edges", g1.NumEdges(), g2.NumEdges())
			}
		})
	}
}

func TestBuildCachedReturnsSameGraph(t *testing.T) {
	d, _ := ByName("livejournal-sim")
	a := d.BuildCached()
	b := d.BuildCached()
	if a != b {
		t.Fatal("BuildCached did not memoize")
	}
}

func TestBFSSourcePicksHub(t *testing.T) {
	g := Star(10)
	if got := BFSSource(g); got != 0 {
		t.Fatalf("BFSSource = %d, want 0", got)
	}
}

func TestWebDatasetTraversalDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset build is slow for -short")
	}
	d, _ := ByName("uk-sim")
	g := d.BuildCached()
	depth := bfsDepth(g, BFSSource(g))
	if depth < 15 {
		t.Fatalf("uk-sim BFS depth %d; want >= 15 for Fig. 8-style traces", depth)
	}
}
