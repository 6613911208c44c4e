package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := New(5)
	g.AddWeightedEdge(0, 1, 1.5)
	g.AddWeightedEdge(4, 2, 0.25)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != 5 || !reflect.DeepEqual(got.Edges, g.Edges) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPExxxxxxxxxxxxxxxxxxxx")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	var buf bytes.Buffer
	WriteBinary(&buf, g)
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestBinarySize(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	var buf bytes.Buffer
	WriteBinary(&buf, g)
	want := 4 + 4 + 8 + 8 + EdgeRecordBytes
	if buf.Len() != want {
		t.Fatalf("size = %d, want %d", buf.Len(), want)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := New(4)
	g.AddWeightedEdge(0, 3, 2)
	g.AddWeightedEdge(2, 1, 0.5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != 4 || !reflect.DeepEqual(got.Edges, g.Edges) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestEdgeListParsing(t *testing.T) {
	in := `# comment
% another comment

0 1
1 2 3.5
`
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 3 || g.NumEdges() != 2 {
		t.Fatalf("V=%d E=%d", g.NumVertices, g.NumEdges())
	}
	if g.Edges[0].Weight != 1 {
		t.Fatalf("default weight = %v", g.Edges[0].Weight)
	}
	if g.Edges[1].Weight != 3.5 {
		t.Fatalf("explicit weight = %v", g.Edges[1].Weight)
	}
}

func TestEdgeListHint(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 100 {
		t.Fatalf("NumVertices = %d", g.NumVertices)
	}
}

func TestEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 b\n", "0 1 zzz\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in), 0); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// Property: binary codec round-trips arbitrary graphs exactly.
func TestBinaryRoundTripZeroEdges(t *testing.T) {
	// The case TestQuickBinaryRoundTrip only draws now and then: an
	// edgeless graph must come back DeepEqual, nil edge slice included.
	g := New(7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, g) {
		t.Fatalf("zero-edge round trip: got %#v, want %#v", got, g)
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := New(n)
		for i := 0; i < rng.Intn(150); i++ {
			g.AddWeightedEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), rng.Float32())
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return got.NumVertices == g.NumVertices && reflect.DeepEqual(got.Edges, g.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
