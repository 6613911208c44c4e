package ioplan

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/leaktest"
	"husgraph/internal/storage"
)

func TestMain(m *testing.M) { leaktest.Main(m) }

// testStore builds a P=2 store over 10 vertices whose out-block (0,1) is
// empty — so plan constructors have one hole to skip.
func testStore(t *testing.T) *blockstore.DualStore {
	t.Helper()
	g := graph.New(10)
	for _, e := range [][2]int{
		{0, 1}, {2, 3}, // block (0,0)
		{5, 0}, {6, 2}, {9, 4}, // block (1,0)
		{5, 6}, {7, 8}, {9, 9}, // block (1,1); (0,1) stays empty
	} {
		g.AddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]))
	}
	ds, err := blockstore.Build(storage.NewMemStore(storage.NewDevice(storage.HDD)), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func frontierOf(n int, members ...int) *bitset.Frontier {
	f := bitset.NewFrontier(n)
	for _, v := range members {
		f.Add(v)
	}
	return f
}

// TestROPKeysSkipsInactiveRowsAndEmptyBlocks: ROPKeys, which knows no
// masks, plans the out-index of every nonempty block of every active row,
// row-major — neither an inactive row nor an empty block. (The engine's own
// plan, which also leaves out the blocks none of a row's active sources has
// an edge in, is tested in internal/core.)
func TestROPKeysSkipsInactiveRowsAndEmptyBlocks(t *testing.T) {
	ds := testStore(t)
	l, be := ds.Layout, ds.BlockEdgeCount

	key := func(i, j int) blockstore.BlockKey {
		return blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j}
	}
	cases := []struct {
		name    string
		members []int
		want    []blockstore.BlockKey
	}{
		{"empty frontier", nil, nil},
		{"row 0 only", []int{0, 3}, []blockstore.BlockKey{key(0, 0)}}, // (0,1) empty
		{"active source without edges", []int{3}, []blockstore.BlockKey{key(0, 0)}},
		{"row 1", []int{7}, []blockstore.BlockKey{key(1, 0), key(1, 1)}},
		{"both rows, row-major", []int{2, 5}, []blockstore.BlockKey{key(0, 0), key(1, 0), key(1, 1)}},
		{"both rows, row 0 without edges", []int{4, 5}, []blockstore.BlockKey{key(0, 0), key(1, 0), key(1, 1)}},
	}
	for _, tc := range cases {
		if got := ROPKeys(l, be, frontierOf(10, tc.members...)); !slices.Equal(got, tc.want) {
			t.Fatalf("%s: ROPKeys plan %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCOPKeysColumnMajorWithSkip(t *testing.T) {
	ds := testStore(t)
	l := ds.Layout

	// nil skip: every in-block, column by column, key {KindInBlock, I: j, J: i}.
	got := COPKeys(l, nil)
	if len(got) != l.P*l.P {
		t.Fatalf("full plan has %d keys, want %d", len(got), l.P*l.P)
	}
	n := 0
	for i := 0; i < l.P; i++ {
		for j := 0; j < l.P; j++ {
			want := blockstore.BlockKey{Kind: blockstore.KindInBlock, I: j, J: i}
			if got[n] != want {
				t.Fatalf("key %d = %+v, want %+v", n, got[n], want)
			}
			n++
		}
	}
	// Selective scheduling: skipped rows vanish from every column.
	got = COPKeys(l, func(j int) bool { return j == 0 })
	if len(got) != l.P*(l.P-1) {
		t.Fatalf("skip plan has %d keys", len(got))
	}
	for _, k := range got {
		if k.I == 0 {
			t.Fatalf("skipped row leaked into plan: %+v", k)
		}
	}
}

// resultBytes is the device-loaded size of one delivered block, as the
// prefetcher's unused-read-ahead accounting sizes it.
func resultBytes(r *blockstore.PrefetchResult) int64 {
	return (&blockstore.CachedBlock{Payload: r.Payload, ByteIdx: r.ByteIdx}).Bytes()
}

// TestSchedulerWindows pins what the engine relies on from the scheduler: a
// window delivers every planned key exactly once (in plan order through
// Next, by key through concurrent Take), and an early Finish reports what
// was read ahead as unused.
func TestSchedulerWindows(t *testing.T) {
	ds := testStore(t)
	plan := COPKeys(ds.Layout, nil)
	last := plan[len(plan)-1]
	// An inline pass sizes the plan: the bytes each window delivers.
	var planBytes, lastBytes int64
	sizer := NewScheduler(ds, nil, Options{})
	w := sizer.Begin(plan, nil)
	for range plan {
		res := w.Next()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		planBytes += resultBytes(res)
		if res.Key == last {
			lastBytes = resultBytes(res)
		}
		res.Release()
	}
	sizer.Finish(w)

	// takeLast consumes only the plan's last key. Workers claim in plan
	// order and Finish waits for every claimed load, so a window with a
	// worker per key has read the whole plan by then.
	takeLast := func(t *testing.T, s *Scheduler, w *blockstore.Prefetcher) WindowStats {
		t.Helper()
		res := w.Take(last)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		res.Release()
		return s.Finish(w)
	}
	// drain consumes the whole plan through Next.
	drain := func(t *testing.T, s *Scheduler, w *blockstore.Prefetcher) {
		t.Helper()
		for i, key := range plan {
			res := w.Next()
			if res.Err != nil {
				t.Fatalf("key %d (%+v): %v", i, key, res.Err)
			}
			if res.Key != key {
				t.Fatalf("key %d = %+v, want plan order %+v", i, res.Key, key)
			}
			res.Release()
		}
		if st := s.Finish(w); st.UnusedBytes != 0 {
			t.Fatalf("fully consumed window reports %d unused bytes", st.UnusedBytes)
		}
	}

	for _, depth := range []int{0, 1, 2, len(plan) + 4} {
		s := NewScheduler(ds, nil, Options{Depth: depth})
		t.Run(fmt.Sprintf("depth-%d/next-delivers-plan-order", depth), func(t *testing.T) {
			w := s.Begin(plan, nil)
			drain(t, s, w)
			if res := w.Next(); res.Err == nil {
				t.Fatal("Next past the end of the plan delivered a block")
			}
		})
		t.Run(fmt.Sprintf("depth-%d/concurrent-take-delivers-each-key-once", depth), func(t *testing.T) {
			w := s.Begin(plan, nil)
			got := make([]blockstore.BlockKey, len(plan))
			var wg sync.WaitGroup
			for i, key := range plan {
				wg.Add(1)
				go func(i int, key blockstore.BlockKey) {
					defer wg.Done()
					res := w.Take(key)
					if res.Err != nil {
						t.Errorf("take %+v: %v", key, res.Err)
						return
					}
					got[i] = res.Key
					res.Release()
				}(i, key)
			}
			wg.Wait()
			if st := s.Finish(w); st.UnusedBytes != 0 {
				t.Fatalf("fully consumed window reports %d unused bytes", st.UnusedBytes)
			}
			for i, key := range plan {
				if got[i] != key {
					t.Fatalf("take %d delivered %+v, want %+v", i, got[i], key)
				}
			}
		})
	}

	t.Run("early-finish-reports-read-ahead-as-unused", func(t *testing.T) {
		s := NewScheduler(ds, nil, Options{Depth: len(plan)})
		if st := takeLast(t, s, s.Begin(plan, nil)); st.UnusedBytes != planBytes-lastBytes {
			t.Fatalf("UnusedBytes = %d, want the %d bytes read ahead of the one consumed key", st.UnusedBytes, planBytes-lastBytes)
		}
	})
}
