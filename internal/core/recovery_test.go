package core_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"husgraph/internal/algos"
	"husgraph/internal/blockstore"
	"husgraph/internal/core"
	"husgraph/internal/gen"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func testGraph() *graph.Graph {
	return gen.RMAT(2000, 8000, gen.Graph500, rand.New(rand.NewSource(1)))
}

func fileStore(t *testing.T, g *graph.Graph, p int) (*blockstore.DualStore, string) {
	t.Helper()
	dir := t.TempDir()
	fs, err := storage.NewFileStore(storage.NewDevice(storage.SSD), dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ds, err := blockstore.BuildOpts(fs, g, blockstore.Options{P: p, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return ds, dir
}

func reopen(t *testing.T, dir string) *blockstore.DualStore {
	t.Helper()
	fs, err := storage.NewFileStore(storage.NewDevice(storage.SSD), dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	ds, err := blockstore.Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestKillAndResumeBitIdentical cancels a checkpointed PageRank run
// mid-flight, reopens the store cold (as a crashed process restarting
// would), resumes, and checks the final values are bit-identical to an
// uninterrupted run.
func TestKillAndResumeBitIdentical(t *testing.T) {
	g := testGraph()
	base := core.Config{Model: core.ModelHybrid, Threads: 4, Tolerance: 1e-10, MaxIters: 500}

	ds, _ := fileStore(t, g, 4)
	full, err := core.New(ds, base).Run(&algos.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged {
		t.Fatal("reference run did not converge")
	}

	ds2, dir := fileStore(t, g, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cfg := base
	cfg.CheckpointEvery = 3
	cfg.OnIteration = func(st core.IterStats) {
		if st.Iter == 4 {
			cancel() // "kill" the process after five completed iterations
		}
	}
	_, err = core.New(ds2, cfg).RunContext(ctx, &algos.PageRank{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	// Restart: fresh store handle over the same directory, no shared state.
	cfg = base
	cfg.CheckpointEvery = 3
	cfg.Resume = true
	res, err := core.New(reopen(t, dir), cfg).Run(&algos.PageRank{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("resumed run did not converge")
	}
	if res.Recovery.ResumedIter == 0 {
		t.Fatal("resumed run started fresh; expected a checkpoint")
	}
	for v := range full.Values {
		if res.Values[v] != full.Values[v] {
			t.Fatalf("vertex %d: resumed %v != uninterrupted %v", v, res.Values[v], full.Values[v])
		}
	}
}

// TestGenerationFallbackOverFileStore corrupts the newest checkpoint
// generation on disk — a crash torn through a non-atomic filesystem, bit
// rot, whatever — and checks Resume falls back to the previous generation
// and still converges to the uninterrupted run's values.
func TestGenerationFallbackOverFileStore(t *testing.T) {
	g := gen.Path(40)
	src := graph.VertexID(0)

	ds, _ := fileStore(t, g, 4)
	full, err := core.New(ds, core.Config{Model: core.ModelCOP}).Run(algos.BFS{Source: src})
	if err != nil {
		t.Fatal(err)
	}

	// Partial run with a checkpoint every iteration: after three
	// iterations slot g0 holds iteration 3 (newest) and g1 holds 2.
	ds2, dir := fileStore(t, g, 4)
	if _, err := core.New(ds2, core.Config{Model: core.ModelCOP, MaxIters: 3, CheckpointEvery: 1}).Run(algos.BFS{Source: src}); err != nil {
		t.Fatal(err)
	}

	newest := filepath.Join(dir, "aux", "ckpt-BFS.g0")
	//lint:ignore huslint/rawio deliberate out-of-band tampering: the test truncates the checkpoint behind the store's back to simulate a torn write
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore huslint/rawio deliberate out-of-band tampering: writing the truncated checkpoint must bypass the store's checksumming
	if err := os.WriteFile(newest, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := core.New(reopen(t, dir), core.Config{Model: core.ModelCOP, Resume: true}).Run(algos.BFS{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.CheckpointFallbacks != 1 {
		t.Fatalf("CheckpointFallbacks = %d, want 1", res.Recovery.CheckpointFallbacks)
	}
	if res.Recovery.ResumedIter != 2 {
		t.Fatalf("ResumedIter = %d, want 2 (the surviving generation)", res.Recovery.ResumedIter)
	}
	if !res.Converged {
		t.Fatal("fallback run did not converge")
	}
	for v := range full.Values {
		if res.Values[v] != full.Values[v] {
			t.Fatalf("vertex %d: fallback %v != uninterrupted %v", v, res.Values[v], full.Values[v])
		}
	}
}
