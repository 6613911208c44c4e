// Outofcore: the full production path on real files.
//
// This example does what a deployment would do for a graph that does not
// fit in memory: serialize an edge stream to disk, build the dual-block
// representation with the bounded-memory streaming builder (compressed,
// unweighted records), reopen the store cold, and run analytics over the
// files. Vertex values stay in memory and only edges and their indices are
// read from the files (GraphMP's semi-external design), so the I/O it
// reports is edge I/O alone.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func main() {
	dir, err := os.MkdirTemp("", "husgraph-outofcore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. An edge file on disk (in practice: your crawl/export).
	d, err := gen.ByName("sk-sim")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Build()
	edgeFile := filepath.Join(dir, "sk.bin")
	f, err := os.Create(edgeFile)
	if err != nil {
		log.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fi, _ := os.Stat(edgeFile)
	fmt.Printf("edge file: %s (%.1f MB, %d edges)\n", edgeFile, float64(fi.Size())/1e6, g.NumEdges())

	// 2. Stream-build the dual-block store into real files: bounded
	//    memory, compressed unweighted records (BFS/WCC/PageRank need no
	//    weights).
	dev := storage.NewDevice(storage.HDD)
	store, err := storage.NewFileStore(dev, filepath.Join(dir, "blocks"))
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	in, err := os.Open(edgeFile)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := blockstore.BuildStreamingOpts(store, in, blockstore.Options{
		P:        8,
		Format:   blockstore.FormatMixed,
		Weighted: false,
	}, 1<<18 /* spill after 256k edges */)
	in.Close()
	if err != nil {
		log.Fatal(err)
	}
	// The in-blocks are what the mixed format compresses: a COP scan reads
	// each one as stored (InBlockBytes). TotalEdgeBytes is every edge as a
	// raw record of the column view.
	var inBytes int64
	for i := 0; i < ds.Layout.P; i++ {
		for j := 0; j < ds.Layout.P; j++ {
			inBytes += ds.InBlockBytes[i][j]
		}
	}
	fmt.Printf("dual-block store: %d blobs, %.1f MB of in-blocks as a scan reads them (%.0f%% of raw)\n",
		len(store.List()), float64(inBytes)/1e6,
		100*float64(inBytes)/float64(ds.TotalEdgeBytes()))

	// 3. Reopen cold, as a separate process would.
	reopened, err := blockstore.Open(store)
	if err != nil {
		log.Fatal(err)
	}
	src := gen.BFSSource(g)

	dev.Reset()
	res, err := core.New(reopened, core.Config{Model: core.ModelHybrid}).Run(algos.BFS{Source: src})
	if err != nil {
		log.Fatal(err)
	}
	rop, cop := res.ModelCounts()
	fmt.Printf("\nBFS from %d over real files: %d iters (%d ROP/%d COP)  I/O %.1f MB  modeled %v\n",
		src, res.NumIterations(), rop, cop,
		float64(res.TotalIO().TotalBytes())/1e6, res.TotalRuntime().Round(1000))
}
