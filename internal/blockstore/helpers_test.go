package blockstore

import "encoding/binary"

// Test-side views of loaded blocks. The package hands out one shape — packed
// raw records behind an index — and these helpers regroup it into per-vertex
// []Rec for assertions, reading records the way the engine does (RawRec).

// testBlock is a fully loaded block regrouped for assertions. An out-block
// carries Index: Index[k]..Index[k+1] delimits the records of the k-th
// source. An in-block carries Entries, its in-index with ends counted in
// records: (local destination, end) pairs, a destination's records starting
// where the previous entry's end.
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

// regroup turns (packed records, in-index entries) into a testBlock.
func regroup(payload []byte, entries []uint32, weighted bool) testBlock {
	b := testBlock{Entries: make([]uint32, len(entries)), Recs: rawRecs(payload, weighted)}
	for e := 0; e < len(entries); e += 2 {
		b.Entries[e], b.Entries[e+1] = entries[e], entries[e+1]/uint32(RawRecordBytes(weighted))
	}
	return b
}

// loadInBlock loads in-block(i,j) through the one in-block loader.
func loadInBlock(ds *DualStore, i, j int) (testBlock, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	payload, entries, err := ds.LoadInBlockBytesScratch(i, j, sc)
	if err != nil {
		return testBlock{}, err
	}
	return regroup(payload, entries, ds.Weighted), nil
}

// loadOutBlock loads out-block(i,j) whole: the out-index, the stored payload
// in one verified sequential read (the cache's promotion read), and every
// section sliced out of it and decoded the way ROP decodes a range read.
func loadOutBlock(ds *DualStore, i, j int) (testBlock, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	idx, err := loadOutIndexWords(ds, i, j)
	if err != nil {
		return testBlock{}, err
	}
	payload, err := ds.LoadOutPayload(i, j)
	if err != nil {
		return testBlock{}, err
	}
	b := testBlock{Index: make([]uint32, len(idx))}
	for k := 0; k+1 < len(idx); k++ {
		sec, err := ds.DecodeSectionScratch(payload[idx[k]:idx[k+1]], ds.OutCodec(i, j), sc)
		if err != nil {
			return testBlock{}, err
		}
		b.Recs = append(b.Recs, rawRecs(sec, ds.Weighted)...)
		b.Index[k+1] = uint32(len(b.Recs))
	}
	return b, nil
}

// loadOutIndexWords loads out-index(i,j) and reads its Size(i)+1 offsets
// out of the bytes the loader hands over.
func loadOutIndexWords(ds *DualStore, i, j int) ([]uint32, error) {
	b, err := ds.LoadOutIndex(i, j)
	if err != nil {
		return nil, err
	}
	return outIndexWords(b), nil
}

// outIndexWords reads an out-index's offsets out of its bytes.
func outIndexWords(b []byte) []uint32 {
	idx := make([]uint32, len(b)/IndexEntryBytes)
	for k := range idx {
		idx[k] = binary.LittleEndian.Uint32(b[k*IndexEntryBytes:])
	}
	return idx
}

// loadOutSection reads vertex k's section of out-block(i,j) the way ROP does
// — one range read of [idx[k], idx[k+1]), decoded through
// DecodeSectionScratch — and returns a copy of its packed records.
func loadOutSection(ds *DualStore, i, j int, idx []uint32, k int, sc *Scratch) ([]byte, error) {
	run, err := ds.LoadOutRunScratch(i, j, idx[k], idx[k+1], sc)
	if err != nil {
		return nil, err
	}
	sec, err := ds.DecodeSectionScratch(run, ds.OutCodec(i, j), sc)
	return append([]byte(nil), sec...), err
}

// FrameForTest frames payload the way a store frames every blob, and
// ErrStoredSizeForTest is the loaders' refusal of a block whose length is
// not its recorded stored size — for the external tests (package
// blockstore_test, which may import core) that hand-write lying blobs.
func FrameForTest(payload []byte) []byte { return frameBlob(payload) }

var ErrStoredSizeForTest = errStoredSize
