package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Binary format: little-endian.
//
//	magic   [4]byte  "HUSG"
//	version uint32   1
//	numV    uint64
//	numE    uint64
//	edges   numE × { src uint32, dst uint32, weight float32 }
const (
	binaryMagic   = "HUSG"
	binaryVersion = 1
	// EdgeRecordBytes is the size of one on-disk edge record in both the
	// binary graph format and the edge-list block format used by the
	// GridGraph baseline (src + dst + weight).
	EdgeRecordBytes = 12
)

// WriteBinary serializes g in the binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 4+8+8)
	binary.LittleEndian.PutUint32(hdr[0:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.NumVertices))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(g.Edges)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, EdgeRecordBytes)
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint32(rec[0:], e.Src)
		binary.LittleEndian.PutUint32(rec[4:], e.Dst)
		binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(e.Weight))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPresizedEdges caps what ReadBinary allocates on the header's word
// alone; past it the edge list grows as records actually arrive.
const maxPresizedEdges = 1 << 20

// DecodeBinary is the one reader of the binary format. It checks the magic,
// the version and that numV fits the 32-bit ID space, hands the header's
// counts to start, then every record in file order to edge. It sizes nothing
// from the counts and does not range-check endpoints: both are the caller's,
// which knows what it allocates. A stream that ends before numE records is
// an error naming the missing edge; an error from start or edge stops the
// decode and is returned as is.
func DecodeBinary(r io.Reader, start func(numV int, numE uint64) error, edge func(Edge) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(binaryMagic)+4+8+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return fmt.Errorf("graph: read header: %w", err)
	}
	if string(hdr[:len(binaryMagic)]) != binaryMagic {
		return fmt.Errorf("graph: bad magic %q (want WriteBinary output)", hdr[:len(binaryMagic)])
	}
	hdr = hdr[len(binaryMagic):]
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != binaryVersion {
		return fmt.Errorf("graph: unsupported version %d", v)
	}
	numV := binary.LittleEndian.Uint64(hdr[4:])
	numE := binary.LittleEndian.Uint64(hdr[12:])
	if numV > math.MaxUint32 {
		return fmt.Errorf("graph: vertex count %d exceeds 32-bit ID space", numV)
	}
	if err := start(int(numV), numE); err != nil {
		return err
	}
	rec := make([]byte, EdgeRecordBytes)
	for i := uint64(0); i < numE; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return fmt.Errorf("graph: read edge %d: %w", i, err)
		}
		err := edge(Edge{
			Src:    binary.LittleEndian.Uint32(rec[0:]),
			Dst:    binary.LittleEndian.Uint32(rec[4:]),
			Weight: math.Float32frombits(binary.LittleEndian.Uint32(rec[8:])),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary parses a graph from the binary format.
func ReadBinary(r io.Reader) (*Graph, error) {
	var g *Graph
	err := DecodeBinary(r, func(numV int, numE uint64) error {
		g = New(numV)
		if numE > 0 {
			// An edgeless graph keeps Edges nil, as New and the builders leave
			// it: a round trip must give back an equal value, not merely an
			// equivalent one.
			g.Edges = make([]Edge, 0, min(numE, maxPresizedEdges))
		}
		return nil
	}, func(e Edge) error {
		g.Edges = append(g.Edges, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteEdgeList writes the graph in whitespace-separated text form:
// "src dst weight" per line, preceded by a comment header. The common
// SNAP-style interchange format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "# husgraph edge list: %d vertices, %d edges\n", g.NumVertices, len(g.Edges)); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d %d %g\n", e.Src, e.Dst, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a text edge list. Lines starting with '#' or '%' are
// comments; each data line is "src dst" or "src dst weight" (missing weight
// defaults to 1). The vertex count is max ID + 1 unless a larger hint is
// given (pass 0 for no hint).
func ReadEdgeList(r io.Reader, numVerticesHint int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	g := New(0)
	maxID := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst [weight]', got %q", lineNo, line)
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %w", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %w", lineNo, err)
		}
		w := float32(1)
		if len(fields) >= 3 {
			f, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			w = float32(f)
		}
		g.Edges = append(g.Edges, Edge{Src: VertexID(src), Dst: VertexID(dst), Weight: w})
		if int64(src) > maxID {
			maxID = int64(src)
		}
		if int64(dst) > maxID {
			maxID = int64(dst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g.NumVertices = int(maxID + 1)
	if numVerticesHint > g.NumVertices {
		g.NumVertices = numVerticesHint
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
