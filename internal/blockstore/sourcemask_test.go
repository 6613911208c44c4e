package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// TestSourceMasksMatchOutIndices: the mask the build pass records for
// block (i,j) is exactly the set of interval i's sources whose section of
// the CRC-verified out-index is nonempty, offset[k+1] > offset[k] — on a
// raw and a mixed store (whose indices are varint-coded), weighted or not,
// at P = 4 (250-vertex intervals: four words, the last one partial) and
// P = 16 (63: one partial word, and empty blocks), built resident and
// through a spilling stream — and Open reads back the masks the build made.
func TestSourceMasksMatchOutIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := gen.Web(1000, 6000, gen.WebParams{Alpha: 2.2, JumpFrac: 0.05}, rng)
	gen.AssignUniformWeights(g, 1, 5, rng)
	var stream bytes.Buffer
	if err := graph.WriteBinary(&stream, g); err != nil {
		t.Fatal(err)
	}
	for _, format := range []Format{FormatRaw, FormatMixed} {
		for _, weighted := range []bool{true, false} {
			for _, p := range []int{4, 16} {
				for _, spill := range []int{0, 257} { // 0: BuildOpts, resident
					what := fmt.Sprintf("%v/weighted=%v/P=%d/spill=%d", format, weighted, p, spill)
					st := memStore()
					opts := Options{P: p, Format: format, Weighted: weighted}
					var built *DualStore
					var err error
					if spill == 0 {
						built, err = BuildOpts(st, g, opts)
					} else {
						built, err = BuildStreamingOpts(st, bytes.NewReader(stream.Bytes()), opts, spill)
					}
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					ds, err := Open(st)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if !reflect.DeepEqual(ds.SourceMasks, built.SourceMasks) {
						t.Fatalf("%s: the opened store's masks differ from the built ones", what)
					}
					sourceMasksMatch(t, what, ds)
				}
			}
		}
	}
}

// sourceMasksMatch checks every mask of ds against its out-index.
func sourceMasksMatch(t *testing.T, what string, ds *DualStore) {
	t.Helper()
	empty, live := 0, 0
	for i := 0; i < ds.Layout.P; i++ {
		size := ds.Layout.Size(i)
		for j := 0; j < ds.Layout.P; j++ {
			mask := ds.SourceMasks[i][j]
			if ds.BlockEdgeCount[i][j] == 0 {
				if mask != nil {
					t.Fatalf("%s: empty block (%d,%d) has a mask", what, i, j)
				}
				empty++
				continue
			}
			if len(mask) != maskWords(size) {
				t.Fatalf("%s: block (%d,%d): %d mask words for %d sources", what, i, j, len(mask), size)
			}
			idx, err := loadOutIndexWords(ds, i, j)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < len(mask)*64; k++ {
				got := mask[k/64]>>(k%64)&1 == 1
				if k >= size {
					if got {
						t.Fatalf("%s: block (%d,%d): mask bit %d set past %d sources", what, i, j, k, size)
					}
					continue
				}
				if want := idx[k+1] > idx[k]; got != want {
					t.Fatalf("%s: block (%d,%d) source %d: mask bit %v, out-index section [%d, %d)", what, i, j, k, got, idx[k], idx[k+1])
				}
				if got {
					live++
				}
			}
		}
	}
	if live == 0 || (ds.Layout.P == 16 && empty == 0) {
		t.Fatalf("%s: %d live sources, %d empty blocks: the graph does not exercise the masks", what, live, empty)
	}
}

// badMaskMetas are meta payloads of chain(300) at P = 4 — 75-vertex
// intervals, two mask words a block, the second partial; blocks (i,i) and
// (i,i+1) nonempty, the rest empty — each lying about the masks in one way,
// all under a CRC any writer could have framed them with.
func badMaskMetas(tb testing.TB) map[string][]byte {
	tb.Helper()
	build := func(lie func(d *DualStore)) []byte {
		d, err := BuildOpts(memStore(), chain(300), Options{P: 4, Weighted: true})
		if err != nil {
			tb.Fatal(err)
		}
		lie(d)
		return encodeMeta(d)
	}
	honest := build(func(*DualStore) {})
	// The page CRCs and the escapes follow the masks: one CRC for each of
	// the seven nonempty blocks' one-page out-indices, then an escape count
	// of 0 for each.
	masksEnd := len(honest) - 7*4 - 7*4
	return map[string][]byte{
		// Source 0's bit moved to 75, one past the interval: as many live
		// sources as before, so only the bound refuses it.
		"bit past the interval": build(func(d *DualStore) {
			d.SourceMasks[1][1][0] &^= 1
			d.SourceMasks[1][1][1] |= 1 << (75 % 64)
		}),
		"mask of an empty block": build(func(d *DualStore) {
			d.SourceMasks[0][3] = []uint64{1, 0}
		}),
		"no live source": build(func(d *DualStore) { d.SourceMasks[2][3] = []uint64{0, 0} }),
		// (2,3) has one edge, 224 → 225.
		"more live sources than edges": build(func(d *DualStore) { d.SourceMasks[2][3][0] |= 0b11 }),
		"mask section cut short":       append(honest[:masksEnd-8:masksEnd-8], honest[masksEnd:]...),
	}
}

// TestDecodeMetaRefusesBadMasks: the masks decide which blocks ROP reads at
// all, so Open refuses, storage.ErrCorrupt-class, a mask that names a vertex
// outside its interval, a mask for a block without edges, a nonempty block
// whose mask names no source or more sources than it has edges, and a
// section that does not hold one mask per nonempty block.
func TestDecodeMetaRefusesBadMasks(t *testing.T) {
	honest, err := BuildOpts(memStore(), chain(300), Options{P: 4, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMeta(encodeMeta(honest)); err != nil {
		t.Fatalf("honest meta refused: %v", err)
	}
	for what, meta := range badMaskMetas(t) {
		if _, err := decodeMeta(meta); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: decodeMeta err = %v, want storage.ErrCorrupt-class", what, err)
		}
	}
}
