package husgraph_test

import (
	"testing"

	"husgraph/internal/gen"
	"husgraph/internal/graph"
)

// TestBenchDatasetsSane resolves every dataset name the evaluation harness
// accepts through gen.ByName and checks that it builds a valid graph whose
// out-CSR covers every edge.
func TestBenchDatasetsSane(t *testing.T) {
	for _, name := range gen.Names() {
		d, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.BuildCached()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if csr := graph.BuildOutCSR(g); csr.Offsets[csr.NumVertices] != int64(g.NumEdges()) {
			t.Fatalf("%s: out-CSR holds %d edges, want %d", name, csr.Offsets[csr.NumVertices], g.NumEdges())
		}
	}
}
