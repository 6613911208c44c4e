package main

import (
	"fmt"
	"strings"
	"testing"

	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// summaryGraph is a small deterministic graph with both dense rows (the
// hub) and sparse chain structure, so mixed builds exercise per-block
// codec choice without randomness.
func summaryGraph() *graph.Graph {
	g := graph.New(32)
	for i := 0; i+1 < 32; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	for i := 2; i < 32; i += 2 {
		g.AddEdge(0, graph.VertexID(i))
	}
	return g
}

func buildFor(t *testing.T, format blockstore.Format) (*blockstore.DualStore, int, int64) {
	t.Helper()
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	ds, err := blockstore.BuildOpts(mem, summaryGraph(), blockstore.Options{P: 4, Format: format, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, n := range mem.List() {
		sz, err := mem.Size(n)
		if err != nil {
			t.Fatal(err)
		}
		written += sz
	}
	return ds, len(mem.List()), written
}

// TestBuildSummaryGolden pins the -blocks build report: husgen used to
// print no summary at all, and this output (block population, bytes
// written, per-interval compression ratio) is what operators size
// datasets with. A mixed store compresses only the column view — at this
// P its in-blocks, group-varint key deltas where that is smaller; its row
// view is stored raw, each out-block record a
// 16-bit local destination and its weight — 6 bytes against the 8 logical
// ones — and each nonempty out-block's index one 68-byte group over its
// 8-vertex interval, against a logical 36 for every block, empty or not.
// An empty out-block has no blob at all, neither records nor index.
func TestBuildSummaryGolden(t *testing.T) {
	ds, blobs, written := buildFor(t, blockstore.FormatMixed)
	got := buildSummary(ds, blobs, written)
	want := `build summary: 32 blocks (18 nonempty), 35 blobs, 2502 bytes written
  interval      edges    logical B     stored B   ratio
  0                23          408          477   0.86x
  1                 8          304          272   1.12x
  2                 8          304          274   1.11x
  3                 7          296          200   1.48x
  total            46         1312         1223   1.07x
`
	if got != want {
		t.Errorf("mixed summary drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestBuildSummaryRawRatioIsOne checks the raw-format report prices
// logical == stored on every interval line but for the row view: the raw
// store's intervals fit 16 bits, so each out-block record stores a 2-byte
// local destination where the logical record has 4, and its out-indices
// store what blockstore.OutIndexBytes gives — none for an empty block —
// where the logical ones hold a 4-byte offset per source and one past the
// last for every block. So an interval's line stores exactly 2 bytes per
// out-edge, plus what its out-indices save, less than its logical bytes.
// Its in-blocks are one record per edge, at their logical size.
func TestBuildSummaryRawRatioIsOne(t *testing.T) {
	ds, blobs, written := buildFor(t, blockstore.FormatRaw)
	got := buildSummary(ds, blobs, written)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "  total ") {
		t.Fatalf("raw summary ends %q, want the total line:\n%s", last, got)
	}
	l := ds.Layout
	var totalSaved int64
	for n, line := range lines[2:] {
		var name string
		var edges, logical, stored int64
		if _, err := fmt.Sscan(line, &name, &edges, &logical, &stored); err != nil {
			t.Fatalf("raw summary line %q: %v", line, err)
		}
		saved := totalSaved
		if i := n; i < l.P {
			saved = 0
			for j := 0; j < l.P; j++ {
				saved += int64(l.Size(i)+1)*4 - ds.OutIndexBytes(i, j)
			}
			totalSaved += saved
		}
		if logical-stored != 2*edges+saved {
			t.Fatalf("raw summary line %q stores %d bytes below logical, want 2 per out-edge and %d of out-indices (%d):\n%s", line, logical-stored, saved, 2*edges+saved, got)
		}
	}
}
