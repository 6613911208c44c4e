package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/graph"
	"husgraph/internal/shard"
	"husgraph/internal/storage"
)

// engineCase is one point of the configuration space FuzzEngineConfig
// draws from.
type engineCase struct {
	p, k              int
	format            blockstore.Format
	model             core.Model
	threads, prefetch int
	cache             int64
	alpha             float64
	device            storage.Profile
}

// decodeEngineCase reads a case, a graph and a source vertex out of fuzz
// bytes: nine selectors — P, K, format, model, threads, prefetch, cache
// budget, α (the default, or −1: the predictor decides every iteration) and
// device profile (SSD or HDD, which the predictor prices reads with) — each
// taken modulo its number of choices, then the
// vertex count less one, a hub byte and the source, then (source,
// destination, weight) triples. An odd hub byte gives vertex hub/2 an edge
// to every vertex, itself included. Weights are the integers 1–4, so every
// path length is exact in float64; a repeated (source, destination) pair
// keeps its first weight, since a block section lists a neighbour once.
// Missing bytes read as 0: an empty input is one isolated vertex.
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
	}
	n := 1 + next()%64
	hub := next()
	src := graph.VertexID(next() % n)
	g := graph.New(n)
	seen := map[[2]int]bool{}
	add := func(s, d, w int) {
		if len(g.Edges) < 256 && !seen[[2]int{s, d}] {
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

// run builds g under c's storage options and runs prog through c's
// configuration, returning the final values.
func (c engineCase) run(t *testing.T, g *graph.Graph, weighted bool, prog core.Program, maxIters int) []float64 {
	t.Helper()
	ds, err := blockstore.BuildOpts(storage.NewMemStore(storage.NewDevice(c.device)), g, blockstore.Options{P: c.p, Format: c.format, Weighted: weighted})
	if err != nil {
		t.Fatal(err)
	}
	k := c.k
	for ds.Layout.P%k != 0 { // a graph smaller than P keeps fewer intervals
		k /= 2
	}
	co, err := shard.New(ds, shard.Config{Config: core.Config{
		Model: c.model, Threads: c.threads, PrefetchDepth: c.prefetch,
		CacheBudgetBytes: c.cache, Alpha: c.alpha, MaxIters: maxIters,
	}, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(prog)
	if err != nil {
		t.Fatalf("%s under %+v: %v", prog.Name(), c, err)
	}
	return res.Values
}

// wantBits fails unless got and want agree to the bit.
func wantBits(t *testing.T, what string, c engineCase, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s under %+v: %d values, want %d", what, c, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s under %+v: value[%d] = %v, want %v", what, c, v, got[v], want[v])
		}
	}
}

// FuzzEngineConfig (ROADMAP 5a) holds every configuration of the run path to
// one answer. Over a small graph — up to 64 vertices and 256 edges, edgeless,
// with self-loops or a hub — and any P, K, storage format, model, thread
// count, prefetch depth, cache budget, α and device profile, BFS, WCC, SSSP,
// SSSP-Delta and Coreness equal the serial oracles to the bit, and five
// PageRank iterations and a converged PageRank-Delta equal the same model's
// run at the same α and device with K = 1, one thread, no prefetch, no
// cache, raw storage. Coreness and PageRank-Delta start from a full frontier
// that shrinks to a sparse one; under the hybrid model the predictor decides
// each of their iterations at α = −1.
func FuzzEngineConfig(f *testing.F) {
	// seed lays a case out the way decodeEngineCase reads it: the twelve
	// header bytes, then the edge triples.
	seed := func(header [12]byte, edges ...[3]byte) []byte {
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
	f.Add(seed([12]byte{2, 2, 0, 2, 0, 0, 0, 0, 0, 9, 0, 0}))                                                           // ten isolated vertices, P = K = 4
	f.Add(seed([12]byte{2, 2, 1, 2, 0, 0, 0, 1, 1, 0, 1, 0}))                                                           // one vertex, its self-loop; P and K clamp to 1; α −1 on HDD
	f.Add(seed([12]byte{2, 1, 1, 0, 1, 1, 2, 0, 1, 63, 0, 0}, chain...))                                                // mixed: varint block (0,0), the other fifteen CodecNone; HDD
	f.Add(seed([12]byte{2, 1, 1, 1, 2, 2, 1, 1, 0, 31, 7, 3}, [3]byte{5, 5, 0}, [3]byte{5, 6, 1}, [3]byte{9, 9, 2}))    // hub 3, self-loops; COP, 512 B cache
	f.Add(seed([12]byte{1, 1, 0, 0, 2, 1, 1, 1, 1, 40, 0, 2}, [3]byte{2, 30, 3}, [3]byte{30, 2, 0}, [3]byte{2, 17, 1})) // raw ROP over two shards
	f.Add(seed([12]byte{2, 1, 1, 2, 1, 1, 2, 0, 0, 63, 21, 0}, random...))                                              // 256 edges and a hub: hybrid switches models
	f.Add(seed([12]byte{2, 2, 1, 0, 2, 2, 1, 1, 1, 63, 0, 7}, random...))                                               // the same graph under ROP, K = 4
	f.Add(seed([12]byte{2, 1, 0, 2, 1, 0, 0, 1, 1, 63, 21, 0}, random...))                                              // hybrid, α −1 on HDD: the predictor decides every iteration
	f.Add(seed([12]byte{2, 1, 0, 2, 1, 0, 0, 1, 0, 63, 0, 0}, random...))                                               // hybrid, α −1 on SSD, no hub: a one-vertex frontier the predictor sends to ROP

	f.Fuzz(func(t *testing.T, data []byte) {
		c, g, src := decodeEngineCase(data)
		wantBits(t, "BFS", c, c.run(t, g, false, algos.BFS{Source: src}, 0), algos.OracleBFS(g, src))
		sym := g.Symmetrize()
		wantBits(t, "WCC", c, c.run(t, sym, false, algos.WCC{}, 0), algos.OracleWCC(g))
		dist := algos.OracleSSSP(g, src)
		wantBits(t, "SSSP", c, c.run(t, g, true, algos.SSSP{Source: src}, 0), dist)
		wantBits(t, "SSSP-Delta", c, c.run(t, g, true, algos.DeltaSSSP{Source: src}, 0), dist)
		wantBits(t, "Coreness", c, c.run(t, sym, false, &algos.Coreness{}, 0), algos.OracleCoreness(sym))

		ref := engineCase{p: c.p, k: 1, format: blockstore.FormatRaw, model: c.model, threads: 1, alpha: c.alpha, device: c.device}
		wantBits(t, fmt.Sprintf("PageRank against %+v", ref), c,
			c.run(t, g, false, &algos.PageRank{}, 5), ref.run(t, g, false, &algos.PageRank{}, 5))
		wantBits(t, fmt.Sprintf("PageRank-Delta against %+v", ref), c,
			c.run(t, g, false, &algos.PageRankDelta{}, 0), ref.run(t, g, false, &algos.PageRankDelta{}, 0))
	})
}
