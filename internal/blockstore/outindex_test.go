package blockstore

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// escapeGraph has 600 vertices in two intervals at P = 2 and three sources
// whose degree in a block escapes: vertex 0 with 299 edges and vertex 7
// with 259 (1 to 260 but itself) in block (0,0), vertex 5 with 300 in block
// (0,1); a ring gives every other vertex an edge.
func escapeGraph() *graph.Graph {
	g := graph.New(600)
	for v := 1; v < 300; v++ {
		g.AddEdge(0, graph.VertexID(v))
	}
	for v := 1; v <= 260; v++ {
		g.AddEdge(7, graph.VertexID(v))
	}
	for v := 300; v < 600; v++ {
		g.AddEdge(5, graph.VertexID(v))
	}
	for v := 0; v < 600; v++ {
		g.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%600))
	}
	g.Dedup()
	return g
}

// TestOutIndexEscapes: a degree of 255 or more is stored as the byte 255,
// the exact degree in the block's escapes, which the meta carries and Open
// reads back.
func TestOutIndexEscapes(t *testing.T) {
	mem := memStore()
	ds, err := BuildOpts(mem, escapeGraph(), Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]Escape{{{Src: 0, Degree: 299}, {Src: 7, Degree: 259}}, {{Src: 5, Degree: 300}}}
	for j, w := range want {
		if !slices.Equal(ds.OutIndexEscapes[0][j], w) || ds.OutIndexEscapes[1][j] != nil {
			t.Fatalf("block (0,%d) escapes %v, block (1,%d) %v; want %v and none", j, ds.OutIndexEscapes[0][j], j, ds.OutIndexEscapes[1][j], w)
		}
	}
	idx, err := ds.LoadOutIndexScratch(0, 0, &Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	if idx[4+0] != 255 || idx[4+7] != 255 || idx[4+1] != 1 {
		t.Fatalf("degree bytes of sources 0, 7 and 1: %d, %d, %d; want 255, 255, 1", idx[4], idx[4+7], idx[4+1])
	}
	re, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(re.OutIndexEscapes, ds.OutIndexEscapes, func(a, b [][]Escape) bool {
		return slices.EqualFunc(a, b, slices.Equal)
	}) {
		t.Fatalf("reopened escapes %v, built %v", re.OutIndexEscapes, ds.OutIndexEscapes)
	}
}

// badEscapeMetas are meta payloads of escapeGraph at P = 2, each lying
// about block (0,0)'s escapes in one way.
func badEscapeMetas(tb testing.TB) map[string][]byte {
	tb.Helper()
	build := func(lie func(d *DualStore)) []byte {
		d, err := BuildOpts(memStore(), escapeGraph(), Options{P: 2})
		if err != nil {
			tb.Fatal(err)
		}
		lie(d)
		return encodeMeta(d)
	}
	honest := build(func(*DualStore) {})
	return map[string][]byte{
		"out of order": build(func(d *DualStore) {
			e := d.OutIndexEscapes[0][0]
			e[0], e[1] = e[1], e[0]
		}),
		"a source twice": build(func(d *DualStore) { d.OutIndexEscapes[0][0][1] = d.OutIndexEscapes[0][0][0] }),
		"a dead source":  build(func(d *DualStore) { d.OutIndexEscapes[0][0][1].Src = 299 }), // 299's one edge is to 300
		"past the interval": build(func(d *DualStore) {
			d.OutIndexEscapes[0][0] = append(d.OutIndexEscapes[0][0], Escape{Src: 300, Degree: 255})
		}),
		"a degree below 255": build(func(d *DualStore) { d.OutIndexEscapes[0][0][1].Degree = 254 }),
		"more edges than the block": build(func(d *DualStore) {
			d.OutIndexEscapes[0][0][1].Degree = uint32(d.BlockEdgeCount[0][0])
		}),
		"more escapes than live sources": func() []byte {
			meta := slices.Clone(honest)
			// Block (0,0)'s count comes first: the four blocks' three
			// escapes and four counts end the meta.
			binary.LittleEndian.PutUint32(meta[len(meta)-3*8-4*4:], 1000)
			return meta
		}(),
		"cut short":   honest[:len(honest)-4],
		"a byte over": append(slices.Clip(honest), 0),
	}
}

// TestDecodeMetaRefusesBadEscapes: Open reads each block's escapes and holds
// them to what a build writes — ascending sources of the interval that are
// live in the block, each degree 255 or more, together no more than the
// block's edges, no more of them than its live sources, and the list the
// meta's last bytes, exactly — refusing anything else
// storage.ErrCorrupt-class.
func TestDecodeMetaRefusesBadEscapes(t *testing.T) {
	d, err := BuildOpts(memStore(), escapeGraph(), Options{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMeta(encodeMeta(d)); err != nil {
		t.Fatalf("honest meta refused: %v", err)
	}
	for what, meta := range badEscapeMetas(t) {
		if _, err := decodeMeta(meta); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: decodeMeta err = %v, want storage.ErrCorrupt-class", what, err)
		}
	}
}

// FuzzOutIndexSections: indexSections works a window's sections out of
// out-index bytes a range read handed over and the escapes the meta holds,
// for ascending active sources. Whatever the group bytes, the escapes and the
// sources, it never panics, and either fails storage.ErrCorrupt-class or
// returns sections that ascend, are nonempty and lie inside the block — and,
// where the escapes ascend as Open holds them to, each equals a plain prefix
// sum from its group's base of the exact degrees: a byte, or the escape of
// its source where the byte is 255. With honest set, the fuzzer's bytes are
// a degree list instead — a byte above 250 a degree of twice it, which
// escapes — laid out by the build's encoder and read from the page the
// first active source's group is on: that must be accepted.
func FuzzOutIndexSections(f *testing.F) {
	degrees := make([]byte, 4000) // two pages of groups
	for k := range degrees {
		degrees[k] = byte(k * 7 % 5)
	}
	degrees[3900], degrees[3950] = 251, 255
	f.Add(true, degrees, []byte(nil), []byte{0x0f, 0, 0xf0}, uint32(0), uint16(0))
	f.Add(true, degrees, []byte(nil), append(make([]byte, 480), 0xff, 0xff, 0x81), uint32(0), uint16(0))
	f.Add(true, []byte{1, 0, 3, 255, 7}, []byte(nil), []byte{0xff}, uint32(0), uint16(0))
	idx, _ := encodeOutIndex([]uint32{0, 1, 1, 4, 264, 270})
	escape := binary.LittleEndian.AppendUint16(nil, 3)
	escape = binary.LittleEndian.AppendUint32(escape, 260)
	misnamed := append([]byte{2, 0}, escape[2:]...)
	f.Add(false, idx, escape, []byte{0x19}, uint32(270), uint16(0))                                  // honest: sources 0, 3, 4
	f.Add(false, idx, []byte(nil), []byte{0x19}, uint32(270), uint16(0))                             // a 255 byte without its escape
	f.Add(false, idx, []byte(nil), []byte{0x11}, uint32(270), uint16(0))                             // the same, summed over
	f.Add(false, idx, misnamed, []byte{0x10}, uint32(270), uint16(0))                                // the escape naming source 2
	f.Add(false, idx, append(slices.Clone(escape), escape...), []byte{0x19}, uint32(270), uint16(0)) // an escape twice
	f.Add(false, idx, escape, []byte{0x19}, uint32(269), uint16(0))                                  // the last section past the block
	f.Add(false, idx, escape, []byte{0x19}, uint32(270), uint16(4096))                               // a base past the bytes
	f.Add(false, []byte{0xff, 0xff, 0xff, 0xff}, []byte(nil), []byte{1}, uint32(1<<31), uint16(0))
	ones := make([]uint32, 71) // 70 sources of degree 1: two groups
	for k := range ones {
		ones[k] = uint32(k)
	}
	overlap, _ := encodeOutIndex(ones)
	binary.LittleEndian.PutUint32(overlap[indexGroupBytes:], 0)                                  // group 1 starts on group 0's records
	f.Add(false, overlap, []byte(nil), []byte{1, 0, 0, 0, 0, 0, 0, 0, 1}, uint32(70), uint16(0)) // sources 0 and 64
	f.Fuzz(func(t *testing.T, honest bool, data, escapeBytes, active []byte, records uint32, base uint16) {
		const lo = 1000 // the interval's first vertex
		var (
			escapes []Escape
			sources []int
			b       = int(base)
		)
		if honest {
			runs := []uint32{0}
			for _, c := range data {
				d := uint32(c)
				if c > 250 {
					d *= 2
				}
				runs = append(runs, runs[len(runs)-1]+d)
			}
			if len(runs) == 1 {
				return
			}
			data, escapes = encodeOutIndex(runs)
			records = runs[len(runs)-1]
			for k := 0; k < 8*len(active) && k+1 < len(runs); k++ {
				if active[k/8]>>(k%8)&1 != 0 && runs[k+1] > runs[k] {
					sources = append(sources, k)
				}
			}
			if len(sources) == 0 {
				return
			}
			b = groupOffset(sources[0]/64) / PageBytes * PageBytes
			data = data[b:]
		} else {
			for ; len(escapeBytes) >= 6; escapeBytes = escapeBytes[6:] {
				escapes = append(escapes, Escape{Src: uint32(binary.LittleEndian.Uint16(escapeBytes)), Degree: binary.LittleEndian.Uint32(escapeBytes[2:])})
			}
			for k := 0; k < 8*len(active); k++ {
				if active[k/8]>>(k%8)&1 != 0 {
					sources = append(sources, k)
				}
			}
		}
		secs := make([]Section, len(sources))
		for k, v := range sources {
			secs[k].V = int32(lo + v)
		}
		err := indexSections(data, b, escapes, int64(records), lo, secs)
		if err != nil {
			if honest {
				t.Fatalf("an honest index refused: %v", err)
			}
			wantCorruptClass(t, err)
			return
		}
		prevEnd := uint32(0)
		for _, s := range secs {
			if s.s < prevEnd || s.e <= s.s || s.e > records {
				t.Fatalf("source %d: section [%d, %d) after record %d of a %d-record block", s.V, s.s, s.e, prevEnd, records)
			}
			prevEnd = s.e
		}
		if !ascending(escapes) {
			return
		}
		// A plain prefix sum from the group's base.
		escaped := map[int]uint64{}
		for _, x := range escapes {
			escaped[int(x.Src)] = uint64(x.Degree)
		}
		exact := func(at, s int) (uint64, bool) {
			if c := data[at+4+s%64]; c != 255 {
				return uint64(c), true
			}
			d, ok := escaped[s]
			return d, ok
		}
		for _, s := range secs {
			v := int(s.V) - lo
			at := groupOffset(v/64) - b
			if at < 0 || at+68 > len(data) {
				t.Fatalf("source %d: accepted, but its group lies outside the bytes", v)
			}
			start := uint64(binary.LittleEndian.Uint32(data[at:]))
			for u := v / 64 * 64; u < v; u++ {
				d, ok := exact(at, u)
				if !ok {
					t.Fatalf("source %d: accepted, but source %d before it in its group escapes with no escape", v, u)
				}
				start += d
			}
			d, ok := exact(at, v)
			if !ok || uint64(s.s) != start || uint64(s.e) != start+d {
				t.Fatalf("source %d: section [%d, %d), want [%d, %d) (%v)", v, s.s, s.e, start, start+d, ok)
			}
		}
	})
}

// ascending reports whether escapes name strictly ascending sources, as
// Open holds a block's escapes to.
func ascending(escapes []Escape) bool {
	for k := 1; k < len(escapes); k++ {
		if escapes[k].Src <= escapes[k-1].Src {
			return false
		}
	}
	return true
}
