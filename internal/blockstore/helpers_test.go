package blockstore

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// Test-side views of loaded blocks. The package hands out packed records
// behind an out-index, and in-blocks as tiles of keys, and these helpers
// regroup them into per-vertex []Rec of global neighbours for assertions,
// reading records the way the engine does (RawRec, OutRec).

// testBlock is a fully loaded block regrouped for assertions. An out-block
// carries Index: Index[k]..Index[k+1] delimits the records of the k-th
// source. An in-block carries Entries, with ends counted in records:
// (local destination, end) pairs, a destination's records starting where
// the previous entry's end.
type testBlock struct {
	Index   []uint32
	Entries []uint32
	Recs    []Rec
}

// EdgesOf returns the records of the indexed vertex with local index k.
func (b testBlock) EdgesOf(k int) []Rec {
	if b.Entries == nil {
		return b.Recs[b.Index[k]:b.Index[k+1]]
	}
	lo := uint32(0)
	for e := 0; e < len(b.Entries); e += 2 {
		if b.Entries[e] == uint32(k) {
			return b.Recs[lo:b.Entries[e+1]]
		}
		lo = b.Entries[e+1]
	}
	return nil
}

// rawRecs parses a run of packed raw records.
func rawRecs(payload []byte, weighted bool) []Rec {
	var recs []Rec
	for off := 0; off < len(payload); off += RawRecordBytes(weighted) {
		nbr, w := RawRec(payload, off, weighted)
		recs = append(recs, Rec{Nbr: nbr, Weight: w})
	}
	return recs
}

// outRecs parses a run of out-block(·,j) records, each destination made
// global again.
func outRecs(ds *DualStore, j int, payload []byte) []Rec {
	jlo, _ := ds.Layout.Bounds(j)
	step := ds.OutRecordBytes()
	var recs []Rec
	for off := 0; off < len(payload); off += step {
		local, w := OutRec(payload, off, step, ds.Weighted)
		recs = append(recs, Rec{Nbr: uint32(jlo) + local, Weight: w})
	}
	return recs
}

// regroup turns (packed records, entries) into a testBlock.
func regroup(payload []byte, entries []uint32, weighted bool) testBlock {
	b := testBlock{Entries: make([]uint32, len(entries)), Recs: rawRecs(payload, weighted)}
	for e := 0; e < len(entries); e += 2 {
		b.Entries[e], b.Entries[e+1] = entries[e], entries[e+1]/uint32(RawRecordBytes(weighted))
	}
	return b
}

// loadInBlock loads in-block(i,j) through the one in-block loader and, when
// it is stored compressed, decodes it with the one decode helper.
func loadInBlock(ds *DualStore, i, j int) (testBlock, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	payload, entries, err := loadInBlockRecords(ds, i, j, sc)
	if err != nil {
		return testBlock{}, err
	}
	return regroup(payload, entries, ds.Weighted), nil
}

// loadInBlockRecords is in-block(i,j) as packed raw records of global
// sources, grouped by destination behind in-index entries (testBlock),
// whatever stored it: the loader's stored form cut into its tiles
// (InTiles), each tile decoded by AppendGV when the block is compressed, and
// its keys made local to the block again. A destination's records come out
// in tile order, its sources ascending.
func loadInBlockRecords(ds *DualStore, i, j int, sc *Scratch) ([]byte, []uint32, error) {
	payload, err := ds.LoadInBlockScratch(i, j, sc)
	if err != nil {
		return nil, nil, err
	}
	tiles, err := ds.InTiles(i, j, payload, nil)
	if err != nil {
		return nil, nil, err
	}
	step := RawRecordBytes(ds.Weighted)
	type rec struct {
		dst uint32
		rec []byte
	}
	var recs []rec
	lo, _ := ds.Layout.Bounds(i)
	for _, t := range tiles {
		keys := t.Payload
		if ds.InCodec(i, j) == CodecVarint {
			if keys, err = AppendGV(nil, keys, ds.Weighted); err != nil {
				return nil, nil, err
			}
		}
		for off := 0; off+step <= len(keys); off += step {
			key := binary.LittleEndian.Uint32(keys[off:])
			r := binary.LittleEndian.AppendUint32(nil, uint32(lo+t.SrcLo)+key&0xffff)
			recs = append(recs, rec{uint32(t.DstLo) + key>>16, append(r, keys[off+4:off+step]...)})
		}
	}
	slices.SortStableFunc(recs, func(a, b rec) int { return cmp.Compare(a.dst, b.dst) })
	var packed []byte
	var entries []uint32
	for _, r := range recs {
		if n := len(entries); n == 0 || entries[n-2] != r.dst {
			entries = append(entries, r.dst, 0)
		}
		packed = append(packed, r.rec...)
		entries[len(entries)-1] = uint32(len(packed))
	}
	return packed, entries, nil
}

// loadOutBlock loads out-block(i,j) whole: the out-index, and the payload in
// one verified sequential read (the cache's promotion read), its records
// counted by the offsets.
func loadOutBlock(ds *DualStore, i, j int) (testBlock, error) {
	idx, err := loadOutIndexWords(ds, i, j)
	if err != nil {
		return testBlock{}, err
	}
	payload, err := ds.LoadOutPayload(i, j)
	if err != nil {
		return testBlock{}, err
	}
	b := testBlock{Index: idx, Recs: outRecs(ds, j, payload)}
	for k := range b.Index {
		b.Index[k] /= uint32(ds.OutRecordBytes())
	}
	return b, nil
}

// loadOutIndexWords loads out-index(i,j) whole and works out the byte
// offsets of its Size(i)+1 section bounds (outIndexWords).
func loadOutIndexWords(ds *DualStore, i, j int) ([]uint32, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	b, err := ds.LoadOutIndexScratch(i, j, sc)
	if err != nil {
		return nil, err
	}
	return outIndexWords(ds, i, j, b), nil
}

// outIndexWords works the byte offsets of out-index(i,j)'s section bounds
// out of its bytes b by hand — each group's base, then a plain running sum of
// its sources' degree bytes, a byte 255 taking the degree the meta's escape
// for its source gives — the way a reader of the old index of a uint32
// offset per source and one past the last would have read them. An empty
// block's offsets are all 0.
func outIndexWords(ds *DualStore, i, j int, b []byte) []uint32 {
	n := ds.Layout.Size(i)
	idx := make([]uint32, n+1)
	if len(b) == 0 {
		return idx
	}
	escapes := map[uint32]uint32{}
	for _, x := range ds.OutIndexEscapes[i][j] {
		escapes[x.Src] = x.Degree
	}
	step := uint32(ds.OutRecordBytes())
	var at uint32 // in records
	for k := 0; k < n; k++ {
		group := k / 64
		off := group/60*4096 + group%60*68
		if k%64 == 0 {
			at = binary.LittleEndian.Uint32(b[off:])
		}
		deg := uint32(b[off+4+k%64])
		if deg == 255 {
			deg = escapes[uint32(k)]
		}
		idx[k] = at * step
		at += deg
	}
	idx[n] = at * step
	return idx
}

// le32s lays words out as little-endian uint32s.
func le32s(words ...uint32) []byte {
	var b []byte
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// loadOutSection reads vertex k's section of out-block(i,j) the way ROP does
// — one range read of [idx[k], idx[k+1]) — and returns its records.
func loadOutSection(ds *DualStore, i, j int, idx []uint32, k int) ([]Rec, error) {
	sec, err := ds.LoadOutRunScratch(i, j, idx[k], idx[k+1], nil)
	return outRecs(ds, j, sec), err
}

// inEdgeBytes sums a store's stored in-block bytes: the edge bytes a mixed
// store may compress.
func inEdgeBytes(ds *DualStore) int64 {
	var t int64
	for _, row := range ds.InBlockBytes {
		for _, b := range row {
			t += b
		}
	}
	return t
}

// FrameForTest frames payload the way a store frames every blob, and
// ErrStoredSizeForTest is the loaders' refusal of a block whose length is
// not its recorded stored size — for the external tests (package
// blockstore_test, which may import core) that hand-write lying blobs.
func FrameForTest(payload []byte) []byte { return frameBlob(payload) }

var ErrStoredSizeForTest = errStoredSize
