package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// planStore builds a P=2 store over 10 vertices whose out-block (0,1) is
// empty — so the plans have one hole to skip.
func planStore(t *testing.T) *blockstore.DualStore {
	t.Helper()
	g := graph.New(10)
	for _, e := range [][2]int{
		{0, 1}, {2, 3}, // block (0,0)
		{5, 0}, {6, 2}, {9, 4}, // block (1,0)
		{5, 6}, {7, 8}, {9, 9}, // block (1,1); (0,1) stays empty
	} {
		g.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	return buildStore(t, g, 2, storage.HDD)
}

// TestROPPlanSkipsDeadBlocks: an engine's ROP plan, ropPlan over markLive,
// holds the out-index of every block an active source of an owned row has an
// edge in, row-major, and nothing else — neither an inactive row, nor an
// empty block, nor a nonempty block none of the row's active sources has an
// edge in, nor a row another engine owns. markLive reuses and clears its
// buffer, and records each block's extent of active sources.
func TestROPPlanSkipsDeadBlocks(t *testing.T) {
	ds := planStore(t)
	row1, err := NewIntervalRange(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i, j int) blockstore.BlockKey {
		return blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j}
	}
	cases := []struct {
		name    string
		members []int
		owner   *IntervalRange
		want    []blockstore.BlockKey
	}{
		{"empty frontier", nil, nil, nil},
		{"row 0 only", []int{0, 3}, nil, []blockstore.BlockKey{key(0, 0)}}, // (0,1) empty
		{"active source without edges", []int{3}, nil, nil},
		{"row 1, one dead block", []int{7}, nil, []blockstore.BlockKey{key(1, 1)}},
		{"both rows, row-major", []int{2, 5}, nil, []blockstore.BlockKey{key(0, 0), key(1, 0), key(1, 1)}},
		{"both rows, row 0 dead", []int{4, 5}, nil, []blockstore.BlockKey{key(1, 0), key(1, 1)}},
		{"owner of row 1 only", []int{0, 9}, row1, []blockstore.BlockKey{key(1, 0), key(1, 1)}},
	}
	for _, tc := range cases {
		e := New(ds, Config{Owner: tc.owner})
		if got := e.ropPlan(e.markLive(frontierWith(10, tc.members...))); !slices.Equal(got, tc.want) {
			t.Fatalf("%s: ROP plan %v, want %v", tc.name, got, tc.want)
		}
	}

	e := New(ds, Config{})
	// A marked buffer is reused and cleared: nothing of a previous frontier
	// survives into the next one's marks.
	live := e.markLive(frontierWith(10, 0, 9))
	if again := e.markLive(frontierWith(10, 7)); &again[0] != &live[0] || !slices.Equal(again, []blockstore.Extent{{}, {}, {}, {First: 2, End: 3}}) {
		t.Fatalf("re-marked buffer %v (reused: %v), want only (1,1) live, over local source 2", again, &again[0] == &live[0])
	}
	// An extent runs from the first to one past the last active source with
	// an edge in the block: of 5, 6 and 7 (locals 0–2 of row 1), 5 and 6
	// have one in (1,0) and 5 and 7 in (1,1).
	if got := e.markLive(frontierWith(10, 5, 6, 7)); got[2] != (blockstore.Extent{First: 0, End: 2}) || got[3] != (blockstore.Extent{First: 0, End: 3}) {
		t.Fatalf("extents of row 1 = %v, %v; want [0, 2) and [0, 3)", got[2], got[3])
	}
}

// TestCOPPlanColumnMajor: an engine's COP plan is every in-block of every
// owned column, column by column, top to bottom — in-block (j, i) keyed
// {KindInBlock, I: j, J: i}.
func TestCOPPlanColumnMajor(t *testing.T) {
	ds := planStore(t)
	key := func(j, i int) blockstore.BlockKey {
		return blockstore.BlockKey{Kind: blockstore.KindInBlock, I: j, J: i}
	}
	if got, want := New(ds, Config{}).copPlan(), []blockstore.BlockKey{key(0, 0), key(1, 0), key(0, 1), key(1, 1)}; !slices.Equal(got, want) {
		t.Fatalf("COP plan %v, want %v", got, want)
	}
	if got, want := New(ds, Config{Owner: &IntervalRange{Lo: 1, Hi: 2, P: 2}}).copPlan(), []blockstore.BlockKey{key(0, 1), key(1, 1)}; !slices.Equal(got, want) {
		t.Fatalf("COP plan of column 1's owner %v, want %v", got, want)
	}
}

// TestOwnersPartitionThePlans: K owner-scoped engines over one store plan,
// in shard order, exactly the unscoped engine's ROP and COP reads, and their
// iterations' active vertices and active edges sum to the unscoped
// engine's — for K ∈ {2, 4} over random frontiers of every density.
func TestOwnersPartitionThePlans(t *testing.T) {
	const n, p = 3000, 8
	rng := rand.New(rand.NewSource(7))
	ds := buildStore(t, gen.RMAT(n, 20000, gen.Graph500, rng), p, storage.SSD)
	all := New(ds, Config{})
	for _, k := range []int{2, 4} {
		shards := make([]*Engine, k)
		for s := range shards {
			owner, err := NewIntervalRange(s*p/k, (s+1)*p/k, p)
			if err != nil {
				t.Fatal(err)
			}
			shards[s] = New(ds, Config{Owner: owner})
		}
		for trial := 0; trial < 20; trial++ {
			f := bitset.NewFrontier(n)
			density := []float64{0, 1e-3, 1e-2, 0.1, 0.5, 1}[trial%6]
			for v := 0; v < n; v++ {
				if rng.Float64() < density {
					f.Add(v)
				}
			}
			what := fmt.Sprintf("K=%d trial %d (%d active)", k, trial, f.Count())
			var rop, cop []blockstore.BlockKey
			var vertices int
			var edges int64
			for _, e := range shards {
				rop = append(rop, e.ropPlan(e.markLive(f))...)
				cop = append(cop, e.copPlan()...)
				st := iterStats(t, e, f)
				vertices += st.ActiveVertices
				edges += st.ActiveEdges
			}
			if want := all.ropPlan(all.markLive(f)); !slices.Equal(rop, want) {
				t.Fatalf("%s: shards plan ROP %v, the unscoped engine %v", what, rop, want)
			}
			if want := all.copPlan(); !slices.Equal(cop, want) {
				t.Fatalf("%s: shards plan COP %v, the unscoped engine %v", what, cop, want)
			}
			if st := iterStats(t, all, f); vertices != st.ActiveVertices || edges != st.ActiveEdges {
				t.Fatalf("%s: shards count %d active vertices and %d active edges, the unscoped engine %d and %d", what, vertices, edges, st.ActiveVertices, st.ActiveEdges)
			}
		}
	}
}

// iterStats opens and closes one COP step of e over f, reading nothing, and
// returns its stats.
func iterStats(t *testing.T, e *Engine, f *bitset.Frontier) IterStats {
	t.Helper()
	st, err := e.BeginIter(testBFS{}, 0, ModelCOP, f, bitset.NewFrontier(f.Len())).End()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestOwnerIsARange: an owner is its Lo, Hi and P, however it was made — a
// literal plans what NewIntervalRange's does — and one that is empty,
// reaches outside [0, P) or has another P than the layout's is refused at
// New with a panic naming them.
func TestOwnerIsARange(t *testing.T) {
	ds := planStore(t)
	made, err := NewIntervalRange(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := frontierWith(10, 0, 5, 9)
	lit, viaNew := New(ds, Config{Owner: &IntervalRange{Lo: 1, Hi: 2, P: 2}}), New(ds, Config{Owner: made})
	if got, want := lit.ropPlan(lit.markLive(f)), viaNew.ropPlan(viaNew.markLive(f)); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("literal owner plans ROP %v, NewIntervalRange's %v", got, want)
	}
	if got, want := lit.copPlan(), viaNew.copPlan(); !slices.Equal(got, want) {
		t.Fatalf("literal owner plans COP %v, NewIntervalRange's %v", got, want)
	}

	for _, o := range []IntervalRange{
		{Lo: -1, Hi: 1, P: 2},
		{Lo: 1, Hi: 3, P: 2},
		{Lo: 1, Hi: 1, P: 2},
		{Lo: 0, Hi: 2, P: 4},
		{Lo: 0, Hi: 1, P: 1},
	} {
		span, p := fmt.Sprintf("[%d,%d)", o.Lo, o.Hi), fmt.Sprintf("P=%d", o.P)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, span) || !strings.Contains(msg, p) {
					t.Fatalf("owner %+v over a layout of 2 intervals: panic %q, want one naming %s and %s", o, msg, span, p)
				}
			}()
			New(ds, Config{Owner: &o})
		}()
	}
}
