package blockstore

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/leaktest"
	"husgraph/internal/storage"
)

// mixedGraph builds a graph whose blocks end up under different codecs.
// Group-varint key deltas beat packed records wherever a block has more
// than a few edges, so CodecVarint is the rule and CodecCOO is left the
// sparsest and the empty blocks (P = 8 has some).
func mixedGraph(weighted bool) *graph.Graph {
	rng := rand.New(rand.NewSource(21))
	g := gen.RMAT(256, 2400, gen.Graph500, rng)
	if weighted {
		gen.AssignUniformWeights(g, 1, 3, rand.New(rand.NewSource(22)))
	}
	return g
}

// codecsOf counts a store's in-blocks per codec: a mixed store compresses
// only in-blocks.
func codecsOf(ds *DualStore) (in [3]int) {
	for i := 0; i < ds.Layout.P; i++ {
		for j := 0; j < ds.Layout.P; j++ {
			in[ds.InCodec(i, j)]++
		}
	}
	return in
}

// TestMixedLoadsEqualRawLoads states the invariant compute rests on: the
// codec is a property of storage only. One graph built raw and mixed hands
// out of the in-block loader, for every cell, the raw store's CodecCOO
// bytes — a CodecVarint block once AppendGV has decoded it — and the row
// view, which every format stores raw, is the raw store's blob for blob.
func TestMixedLoadsEqualRawLoads(t *testing.T) {
	const p = 8
	for _, weighted := range []bool{false, true} {
		g := mixedGraph(weighted)
		rawStore, mixedStore := memStore(), memStore()
		raw, err := BuildOpts(rawStore, g, Options{P: p, Format: FormatRaw, Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := BuildOpts(mixedStore, g, Options{P: p, Format: FormatMixed, Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		in := codecsOf(mixed)
		for _, c := range []Codec{CodecCOO, CodecVarint} {
			if in[c] == 0 {
				t.Fatalf("weighted=%v: mixed store has no %v in-block (%v): the comparison would not cover that layout", weighted, c, in)
			}
		}
		rsc, msc := new(Scratch), new(Scratch)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				want, wantIdx, err := raw.LoadInBlockBytesScratch(i, j, rsc)
				if err != nil {
					t.Fatal(err)
				}
				got, gotIdx, err := mixed.LoadInBlockBytesScratch(i, j, msc)
				if err != nil {
					t.Fatal(err)
				}
				if raw.InCodec(i, j) != CodecCOO || wantIdx != nil || gotIdx != nil {
					t.Fatalf("weighted=%v in-block (%d,%d): raw store's is %v, in-indices %v and %v", weighted, i, j, raw.InCodec(i, j), wantIdx, gotIdx)
				}
				if mixed.InCodec(i, j) == CodecVarint {
					if got, err = AppendGV(nil, got, weighted); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("weighted=%v in-block (%d,%d) [%v]: loader output differs from the raw store's", weighted, i, j, mixed.InCodec(i, j))
				}
				for _, name := range []string{outBlockName(i, j), outIndexName(i, j)} {
					want, err := rawStore.ReadAll(name)
					if errors.Is(err, storage.ErrNotFound) && name == outIndexName(i, j) && raw.BlockEdgeCount[i][j] == 0 {
						// An empty block has no out-index, in either store.
						if _, err := mixedStore.ReadAll(name); !errors.Is(err, storage.ErrNotFound) {
							t.Fatalf("weighted=%v: the mixed store holds %s of an empty block (%v)", weighted, name, err)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					got, err := mixedStore.ReadAll(name)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("weighted=%v: mixed %s differs from the raw store's", weighted, name)
					}
				}
			}
		}
	}
}

func TestMixedBuildOpenRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := mixedGraph(weighted)
		st := memStore()
		built, err := BuildOpts(st, g, Options{P: 4, Format: FormatMixed, Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		opened, err := Open(st)
		if err != nil {
			t.Fatal(err)
		}
		builtIn := codecsOf(built)
		if in := codecsOf(opened); in != builtIn || in[CodecVarint] == 0 {
			t.Fatalf("codecs across Open: in-blocks %v; built %v", in, builtIn)
		}
		if !reflect.DeepEqual(opened.InBlockBytes, built.InBlockBytes) || !reflect.DeepEqual(opened.BlockEdgeCount, built.BlockEdgeCount) {
			t.Fatal("stored sizes lost across Open")
		}
		// Decoded blocks must be bit-identical to a raw build of the
		// same graph.
		raw, err := BuildOpts(memStore(), g, Options{P: 4, Format: FormatRaw, Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				a, err := loadOutBlock(raw, i, j)
				if err != nil {
					t.Fatal(err)
				}
				b, err := loadOutBlock(opened, i, j)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("out-block (%d,%d) differs raw vs mixed (weighted=%v)", i, j, weighted)
				}
				ai, err := loadInBlock(raw, i, j)
				if err != nil {
					t.Fatal(err)
				}
				bi, err := loadInBlock(opened, i, j)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ai, bi) {
					t.Fatalf("in-block (%d,%d) differs raw vs mixed (weighted=%v)", i, j, weighted)
				}
			}
		}
	}
}

func TestMixedNeverLargerThanRawPerBlock(t *testing.T) {
	g := mixedGraph(true)
	raw, err := BuildOpts(memStore(), g, Options{P: 4, Format: FormatRaw, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := BuildOpts(memStore(), g, Options{P: 4, Format: FormatMixed, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	anySmaller := false
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if mixed.InBlockBytes[i][j] > raw.InBlockBytes[i][j] {
				t.Fatalf("mixed in-block (%d,%d) %d bytes > raw %d", i, j, mixed.InBlockBytes[i][j], raw.InBlockBytes[i][j])
			}
			if mixed.InBlockBytes[i][j] == raw.InBlockBytes[i][j] && mixed.InCodec(i, j) != CodecCOO {
				t.Fatalf("in-block (%d,%d): codec %v chosen without strictly paying", i, j, mixed.InCodec(i, j))
			}
			if mixed.InBlockBytes[i][j] < raw.InBlockBytes[i][j] {
				anySmaller = true
			}
			if mixed.InIndexBytes(i, j) != 0 {
				t.Fatalf("mixed in-block (%d,%d) over intervals of %d has an in-index", i, j, mixed.Layout.Size(0))
			}
			if mixed.OutBlockBytes(i, j) != raw.OutBlockBytes(i, j) || mixed.OutIndexBytes(i, j) != raw.OutIndexBytes(i, j) {
				t.Fatalf("mixed row view (%d,%d) is not stored raw", i, j)
			}
		}
	}
	if !anySmaller {
		t.Fatal("no block compressed at all on a compressible graph")
	}
	t.Logf("in-block bytes: raw %d, mixed %d (%.2fx)", inEdgeBytes(raw), inEdgeBytes(mixed), float64(inEdgeBytes(raw))/float64(inEdgeBytes(mixed)))
}

func TestMixedStreamingMatchesDirect(t *testing.T) {
	streamingMatchesDirect(t, mixedGraph(false), 3)
}

func TestMixedRangeReadsAndSectionDecode(t *testing.T) {
	// ROP-style consumption against a mixed store: load the out-index,
	// range-read one vertex's section — raw records in every format — and
	// compare against the whole block.
	g := mixedGraph(true)
	ds, err := BuildOpts(memStore(), g, Options{P: 4, Format: FormatMixed, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	l := ds.Layout
	for i := 0; i < l.P; i++ {
		for j := 0; j < l.P; j++ {
			if ds.BlockEdgeCount[i][j] == 0 {
				continue
			}
			whole, err := loadOutBlock(ds, i, j)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := loadOutIndexWords(ds, i, j)
			if err != nil {
				t.Fatal(err)
			}
			for local := 0; local < l.Size(i); local++ {
				if idx[local] == idx[local+1] {
					continue
				}
				recs, err := loadOutSection(ds, i, j, idx, local)
				if err != nil {
					t.Fatalf("section read (%d,%d) v%d: %v", i, j, local, err)
				}
				if want := whole.EdgesOf(local); !reflect.DeepEqual(recs, append([]Rec(nil), want...)) {
					t.Fatalf("section (%d,%d) v%d decodes %v, want %v", i, j, local, recs, want)
				}
			}
		}
	}
}

func TestMixedCorruptPayloadSurfacesChecksumError(t *testing.T) {
	g := mixedGraph(false)
	st := memStore()
	ds, err := BuildOpts(st, g, Options{P: 2, Format: FormatMixed})
	if err != nil {
		t.Fatal(err)
	}
	name := "ib/0.1"
	b, err := st.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeaderLen+2] ^= 0x20
	if err := st.Put(name, b); err != nil {
		t.Fatal(err)
	}
	if _, err := loadInBlock(ds, 0, 1); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("corrupt mixed block: err = %v, want wrapped storage.ErrCorrupt", err)
	}
}

// TestTimedOutCompressedReadDecodesOnce is the deadline/compression
// interaction check: a FaultDelayed read on a compressed block that blows
// the deadline is retried, and only the retry's bytes are handed over — the
// load returns exactly the payload one clean load does, and the timed-out
// attempt's late answer never reaches it, not even once it lands.
func TestTimedOutCompressedReadDecodesOnce(t *testing.T) {
	g := mixedGraph(false)
	st := memStore()
	if _, err := BuildOpts(st, g, Options{P: 2, Format: FormatMixed}); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(st, 7)
	ds, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetRetryPolicy(RetryPolicy{MaxRetries: 3, Deadline: 10 * time.Millisecond})

	// Find a compressed in-block to target.
	ci, cj := -1, -1
	for i := 0; i < 2 && ci < 0; i++ {
		for j := 0; j < 2; j++ {
			if ds.BlockEdgeCount[i][j] > 0 && ds.InCodec(i, j) == CodecVarint {
				ci, cj = i, j
				break
			}
		}
	}
	if ci < 0 {
		t.Skip("no compressed in-block in this build")
	}
	// Baseline: one clean load of the same block, as stored.
	clean, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	wantPayload, err := clean.LoadInBlockScratch(ci, cj, new(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPayload) == 0 {
		t.Fatal("baseline load of a compressed block handed over no bytes")
	}

	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultDelay, Name: inBlockName(ci, cj), Count: 1, Delay: 100 * time.Millisecond})

	live := len(leaktest.Live())
	payload, err := ds.LoadInBlockScratch(ci, cj, new(Scratch))
	if err != nil {
		t.Fatalf("retried load: %v", err)
	}
	if got := ds.Retries(); got == 0 {
		t.Fatal("delayed read did not time out")
	}
	// Wait for the delayed attempt to answer and exit before comparing: its
	// late answer must not land in the views the retry handed over.
	if err := leaktest.Check(live, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !eqBytes(payload, wantPayload) {
		t.Fatal("retried compressed load handed over other bytes than a clean load")
	}
	if _, err := AppendGV(nil, payload, ds.Weighted); err != nil {
		t.Fatalf("retried compressed load does not decode: %v", err)
	}
}
