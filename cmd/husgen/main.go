// Command husgen generates the synthetic datasets and optionally
// materializes their dual-block representation on disk.
//
// Usage:
//
//	husgen -list
//	husgen -dataset twitter-sim -out twitter.bin [-format binary|text]
//	husgen -dataset twitter-sim -blocks DIR [-p 8] [-symmetric]
//	       [-blockformat raw|mixed] [-stats]
//
// -blocks builds the generated (resident) graph with blockstore.BuildOpts.
// An edge file that does not fit in memory goes through the same build pass
// under a spill budget: blockstore.BuildStreamingOpts, as examples/outofcore
// does.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"husgraph/internal/blockstore"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "husgen: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	list := flag.Bool("list", false, "list registry datasets and exit")
	dataset := flag.String("dataset", "", "registry dataset to generate")
	out := flag.String("out", "", "write the edge list to this file")
	format := flag.String("format", "binary", "output format: binary|text")
	blocks := flag.String("blocks", "", "build the dual-block store under this directory")
	p := flag.Int("p", 8, "partition count for -blocks")
	symmetric := flag.Bool("symmetric", false, "symmetrize before writing (WCC input)")
	blockFormat := flag.String("blockformat", "raw", "block record format for -blocks: raw|mixed (mixed: each in-block as group-varint (destination, source) key deltas, plain key records where that does not pay; out-blocks and out-indices stay raw)")
	stats := flag.Bool("stats", false, "print structural statistics of the generated graph")
	flag.Parse()

	if *list {
		fmt.Printf("%-17s %-12s %10s %12s  %s\n", "name", "type", "vertices", "edges", "stands in for")
		for _, d := range gen.Registry() {
			fmt.Printf("%-17s %-12s %10d %12d  %s (%s vertices, %s edges)\n",
				d.Name, d.Kind, d.Vertices, d.TargetEdges, d.PaperName, d.PaperVertices, d.PaperEdges)
		}
		return nil
	}
	if *dataset == "" {
		return fmt.Errorf("need -dataset (or -list)")
	}
	d, err := gen.ByName(*dataset)
	if err != nil {
		return err
	}
	g := d.Build()
	if *symmetric {
		g = g.Symmetrize()
	}
	fmt.Printf("generated %s: %d vertices, %d edges\n", d.Name, g.NumVertices, g.NumEdges())
	if *stats {
		fmt.Println(gen.Analyze(g))
	}

	if *out != "" {
		//lint:ignore huslint/rawio user-facing edge-list output at the CLI boundary; not block data, storage.Store checksums do not apply
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		switch *format {
		case "binary":
			err = graph.WriteBinary(f, g)
		case "text":
			err = graph.WriteEdgeList(f, g)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes, %s)\n", *out, fi.Size(), *format)
	}

	if *blocks != "" {
		dev := storage.NewDevice(storage.RAM)
		st, err := storage.NewFileStore(dev, *blocks)
		if err != nil {
			return err
		}
		defer st.Close()
		format, err := blockstore.ParseFormat(*blockFormat)
		if err != nil {
			return err
		}
		ds, err := blockstore.BuildOpts(st, g, blockstore.Options{P: *p, Format: format, Weighted: true})
		if err != nil {
			return err
		}
		var written int64
		for _, bn := range st.List() {
			sz, err := st.Size(bn)
			if err != nil {
				return err
			}
			written += sz
		}
		fmt.Printf("built dual-block store under %s: P=%d, %d edges, %d blobs\n",
			*blocks, ds.Layout.P, ds.NumEdges(), len(st.List()))
		fmt.Print(buildSummary(ds, len(st.List()), written))
	}
	if *out == "" && *blocks == "" {
		fmt.Println("(nothing written; pass -out and/or -blocks)")
	}
	return nil
}

// buildSummary formats the dual-block build report: block population,
// bytes written and the per-interval logical-vs-stored compression ratio.
// Interval i covers its out-row (ob/i.*, oi/i.*) and in-column (ib/*.i), so
// every block and index is counted exactly once. Logical bytes are the
// fixed-width form of everything: 4 or 8 bytes a record, and for every
// block an out-index of a 4-byte offset per source and one past the last.
// Stored bytes are what the store holds: an out-index of a byte per source
// and a 4-byte base per 64 (blockstore.OutIndexBytes), and none for an empty
// block. So a raw store's ratio departs from 1.00 by its out-indices —
// smaller than logical over intervals of more than 16 sources, larger over
// fewer — by its out-block records where they hold 2-byte local
// destinations (blockstore.OutRecordBytes), whose intervals fit 16 bits,
// and by its in-blocks' tile directories, whose intervals do not.
func buildSummary(ds *blockstore.DualStore, blobs int, written int64) string {
	l := ds.Layout
	step := int64(blockstore.RawRecordBytes(ds.Weighted))
	var b bytes.Buffer
	nonempty := 0
	for i := 0; i < l.P; i++ {
		for j := 0; j < l.P; j++ {
			if ds.BlockEdgeCount[i][j] != 0 {
				nonempty += 2 // the pair: out-block(i,j) and in-block(i,j)
			}
		}
	}
	fmt.Fprintf(&b, "build summary: %d blocks (%d nonempty), %d blobs, %d bytes written\n",
		2*l.P*l.P, nonempty, blobs, written)
	fmt.Fprintf(&b, "  %-8s %10s %12s %12s %7s\n", "interval", "edges", "logical B", "stored B", "ratio")
	var totLogical, totStored, totEdges int64
	for i := 0; i < l.P; i++ {
		var logical, stored, edges int64
		idxRaw := int64(l.Size(i)+1) * blockstore.IndexEntryBytes
		for j := 0; j < l.P; j++ {
			edges += ds.BlockEdgeCount[i][j]
			logical += ds.BlockEdgeCount[i][j]*step + idxRaw
			stored += ds.OutBlockBytes(i, j) + ds.OutIndexBytes(i, j)
			logical += ds.BlockEdgeCount[j][i] * step
			stored += ds.InBlockBytes[j][i]
		}
		fmt.Fprintf(&b, "  %-8d %10d %12d %12d %6.2fx\n", i, edges, logical, stored, ratio(logical, stored))
		totLogical += logical
		totStored += stored
		totEdges += edges
	}
	fmt.Fprintf(&b, "  %-8s %10d %12d %12d %6.2fx\n", "total", totEdges, totLogical, totStored, ratio(totLogical, totStored))
	return b.String()
}

// ratio guards the logical/stored division for degenerate empty stores.
func ratio(logical, stored int64) float64 {
	if stored == 0 {
		return 1
	}
	return float64(logical) / float64(stored)
}
