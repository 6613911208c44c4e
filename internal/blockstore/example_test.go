package blockstore_test

import (
	"encoding/binary"
	"fmt"
	"log"

	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// ExampleDualStore_LoadOutRunScratch materializes the dual-block
// representation of a small graph and reads one vertex's out-edges
// selectively — the access pattern ROP uses.
func ExampleDualStore_LoadOutRunScratch() {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(2, 3)

	store := storage.NewMemStore(storage.NewDevice(storage.HDD))
	ds, err := blockstore.BuildOpts(store, g, blockstore.Options{P: 2, Weighted: true})
	if err != nil {
		log.Fatal(err)
	}

	// Vertex 0 lives in interval 0; its out-edges into interval 1
	// (vertices 2, 3) sit in out-block (0, 1). The out-index holds, for
	// each 64 sources, the record its first source's section starts at as
	// a little-endian uint32, then each source's degree in the block as a
	// byte: vertex 0 is local source 0, the first of the first group.
	sc := blockstore.GetScratch()
	defer blockstore.PutScratch(sc)
	idx, err := ds.LoadOutIndexScratch(0, 1, sc)
	if err != nil {
		log.Fatal(err)
	}
	// An out-block holds packed records in every format, each naming its
	// destination local to interval 1, which starts at vertex 2.
	step := uint32(ds.OutRecordBytes())
	start, degree := binary.LittleEndian.Uint32(idx[0:]), uint32(idx[4])
	sec, err := ds.LoadOutRunScratch(0, 1, start*step, (start+degree)*step, nil)
	if err != nil {
		log.Fatal(err)
	}
	lo, _ := ds.Layout.Bounds(1)
	for off := 0; off < len(sec); off += ds.OutRecordBytes() {
		local, _ := blockstore.OutRec(sec, off, ds.OutRecordBytes(), ds.Weighted)
		fmt.Printf("0 -> %d\n", lo+int(local))
	}
	// Output:
	// 0 -> 2
	// 0 -> 3
}

// ExampleBuildOpts builds an unweighted store whose in-blocks are compressed
// where that pays — the compact layout for PageRank/BFS/WCC workloads. Six
// edges from interval 0 into interval 1 take 24 bytes as records and fewer
// as group-varint key deltas.
func ExampleBuildOpts() {
	g := graph.New(6)
	for _, e := range [][2]graph.VertexID{{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {2, 5}} {
		g.AddEdge(e[0], e[1])
	}
	store := storage.NewMemStore(storage.NewDevice(storage.RAM))
	ds, err := blockstore.BuildOpts(store, g, blockstore.Options{
		P:        2,
		Format:   blockstore.FormatMixed,
		Weighted: false,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("in-block (0,1):", ds.InCodec(0, 1))
	fmt.Println("edges:", ds.NumEdges())
	// Output:
	// in-block (0,1): varint
	// edges: 6
}
