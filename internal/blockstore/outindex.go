package blockstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"husgraph/internal/storage"
)

// An out-index (DESIGN.md §4p) says where each source's section of its
// out-block lies. It is laid out as groups of indexGroupSources sources: a
// little-endian uint32, the record offset of the group's first source's
// section, then one byte per source, its degree in the block. A source's
// section starts at its group's base plus the degrees before it in the group
// and holds its own degree's records. indexPageGroups groups fill a
// PageBytes page, the rest of the page zero, so a page holds whole groups
// and a span of pages is read and checked on its own (OutIndexSpan). The
// last group of an index is whole, its bytes past the interval zero, and the
// index ends with it. A degree of degreeEscape or more is stored as
// degreeEscape, its exact value in the block's escape list the meta holds
// (DualStore.OutIndexEscapes). An empty block has no out-index.
const (
	indexGroupSources = 64
	indexGroupBytes   = 4 + indexGroupSources
	indexPageGroups   = PageBytes / indexGroupBytes
	degreeEscape      = 255
)

// Escape is the exact degree of one source of a block whose out-index byte
// is degreeEscape: Src local to the source interval, Degree at least
// degreeEscape.
type Escape struct{ Src, Degree uint32 }

// groupOffset is the payload offset of an out-index's group g.
func groupOffset(g int) int {
	return g/indexPageGroups*PageBytes + g%indexPageGroups*indexGroupBytes
}

// outIndexBytes is the size of the out-index of a nonempty block over an
// interval of size sources.
func outIndexBytes(size int) int64 {
	if size == 0 {
		return 0
	}
	return int64(groupOffset((size-1)/indexGroupSources) + indexGroupBytes)
}

// encodeOutIndex lays out the out-index of a block whose source k's records
// are [runs[k], runs[k+1]) of the bucket, returning it and its escapes in
// source order.
func encodeOutIndex(runs []uint32) ([]byte, []Escape) {
	n := len(runs) - 1
	idx := make([]byte, 0, outIndexBytes(n))
	var escapes []Escape
	for k := 0; k < n; k += indexGroupSources {
		idx = append(idx, make([]byte, groupOffset(k/indexGroupSources)-len(idx))...) // a page's tail
		idx = binary.LittleEndian.AppendUint32(idx, runs[k]-runs[0])
		for s := k; s < k+indexGroupSources; s++ {
			deg := uint32(0)
			if s < n {
				deg = runs[s+1] - runs[s]
			}
			if deg >= degreeEscape {
				escapes = append(escapes, Escape{Src: uint32(s), Degree: deg})
				deg = degreeEscape
			}
			idx = append(idx, byte(deg))
		}
	}
	return idx, escapes
}

// indexSections sets the record range [s, e) of every section in secs, whose
// sources V — global, lo the interval's first — ascend, from the out-index
// bytes idx, which start at payload offset base, and the block's escapes,
// in a block of records records. It takes the sections a group at a time:
// from the group's base it sums the degrees of its sources up to the last
// one in secs into a table of section starts, and each section is two reads
// of it. So a group costs at most its 64 degree bytes however many of its
// sources are active, and the bytes past the last active one are not read.
//
// Nothing the bytes say is trusted: a group idx does not hold, a section
// that starts before the previous one ends, is empty — the meta's mask
// marks every source in secs live — or ends past the block, a byte
// degreeEscape whose source is not the next escape's, or an escape below
// degreeEscape, and an escape left over among the sources summed, which no
// escaped byte took, are storage.ErrCorrupt-class. Escapes of sources no
// section sums over are not read.
func indexSections(idx []byte, base int, escapes []Escape, records int64, lo int, secs []Section) error {
	if len(secs) == 0 {
		return nil
	}
	first := (int(secs[0].V) - lo) / indexGroupSources * indexGroupSources
	e := sort.Search(len(escapes), func(k int) bool { return int(escapes[k].Src) >= first })
	var (
		starts  [indexGroupSources + 1]uint64 // group-local: where each source's section starts
		prevEnd uint64
	)
	for k := 0; k < len(secs); {
		v := int(secs[k].V) - lo
		g := v / indexGroupSources
		groupSrc := g * indexGroupSources
		// secs[k:n] are the group's sections; they need the degrees of its
		// sources up to the last of them.
		n := k + 1
		for n < len(secs) && int(secs[n].V)-lo < groupSrc+indexGroupSources {
			n++
		}
		last := int(secs[n-1].V) - lo - groupSrc
		off := groupOffset(g) - base
		if off < 0 || off+indexGroupBytes > len(idx) {
			return corruptSource(v, "group %d at byte %d lies outside the %d index bytes read from byte %d", g, off+base, len(idx), base)
		}
		for e < len(escapes) && int(escapes[e].Src) < groupSrc {
			e++ // of a source no section sums over
		}
		at := uint64(binary.LittleEndian.Uint32(idx[off:]))
		for s, c := range idx[off+4 : off+4+last+1] {
			starts[s] = at
			deg := uint64(c)
			if c == degreeEscape {
				if e == len(escapes) || int(escapes[e].Src) != groupSrc+s || escapes[e].Degree < degreeEscape {
					return corruptSource(v, "degree byte %d of source %d and no escape of it next", c, groupSrc+s)
				}
				deg = uint64(escapes[e].Degree)
				e++
			}
			at += deg
		}
		starts[last+1] = at
		if e < len(escapes) && int(escapes[e].Src) <= groupSrc+last {
			return corruptSource(v, "escape %+v of a source whose degree byte is not %d", escapes[e], degreeEscape)
		}
		for ; k < n; k++ {
			local := int(secs[k].V) - lo - groupSrc
			start, end := starts[local], starts[local+1]
			if start < prevEnd || end == start || end > uint64(records) {
				return corruptSource(groupSrc+local, "section of records [%d, %d) after record %d of a %d-record block, for a source the meta's mask marks live", start, end, prevEnd, records)
			}
			secs[k].s, secs[k].e = uint32(start), uint32(end)
			prevEnd = end
		}
	}
	return nil
}

// corruptSource is a storage.ErrCorrupt-class error about source v.
func corruptSource(v int, format string, args ...any) error {
	return fmt.Errorf("source %d: %s: %w", v, fmt.Sprintf(format, args...), storage.ErrCorrupt)
}
