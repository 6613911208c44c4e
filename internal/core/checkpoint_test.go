package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func TestCheckpointCodecRoundTrip(t *testing.T) {
	f := bitset.NewFrontier(10)
	f.Add(2)
	f.Add(7)
	c := &checkpoint{
		iter:      5,
		values:    []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		frontier:  f,
		progState: []byte("state"),
	}
	got, err := decodeCheckpoint(encodeCheckpoint(c), 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.iter != 5 || !reflect.DeepEqual(got.values, c.values) {
		t.Fatalf("round trip: %+v", got)
	}
	if !reflect.DeepEqual(got.frontier.Members(), []int{2, 7}) {
		t.Fatalf("frontier: %v", got.frontier.Members())
	}
	if string(got.progState) != "state" {
		t.Fatalf("progState: %q", got.progState)
	}
}

func TestCheckpointCodecRejectsCorrupt(t *testing.T) {
	f := bitset.NewFrontier(4)
	c := &checkpoint{iter: 1, values: make([]float64, 4), frontier: f}
	good := encodeCheckpoint(c)
	cases := map[string][]byte{
		"magic":        append([]byte("NOPE"), good[4:]...),
		"short":        good[:10],
		"wrong-n":      good, // decoded with n=5 below
		"truncated":    good[:len(good)-3],
		"extra-suffix": append(append([]byte(nil), good...), 1, 2, 3),
	}
	for name, buf := range cases {
		n := 4
		if name == "wrong-n" {
			n = 5
		}
		if _, err := decodeCheckpoint(buf, n, 100); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
}

func TestCheckpointCodecRejectsAbsurdIteration(t *testing.T) {
	f := bitset.NewFrontier(4)
	c := &checkpoint{iter: 3, values: make([]float64, 4), frontier: f}
	good := encodeCheckpoint(c)
	corrupt := func(iter uint64) []byte {
		buf := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(buf[4:], iter)
		return buf
	}
	for name, buf := range map[string][]byte{
		"huge":         corrupt(1 << 40),
		"negative":     corrupt(^uint64(0)), // decodes to int -1
		"past-maxiter": corrupt(101),
	} {
		if ck, err := decodeCheckpoint(buf, 4, 100); err == nil {
			t.Errorf("%s: absurd iteration %d accepted", name, ck.iter)
		}
	}
	// The bound itself is fine (a run checkpointed at its final iteration).
	if _, err := decodeCheckpoint(corrupt(100), 4, 100); err != nil {
		t.Errorf("iter == maxIter rejected: %v", err)
	}
}

func TestResumeMatchesUninterruptedRun(t *testing.T) {
	g := pathGraph(40)
	// Uninterrupted reference.
	full, err := New(buildStore(t, g, 4, storage.HDD), Config{Model: ModelCOP}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: checkpoint every 2 iterations, stop after 5.
	ds := buildStore(t, g, 4, storage.HDD)
	partial, err := New(ds, Config{Model: ModelCOP, MaxIters: 5, CheckpointEvery: 2}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if partial.Converged {
		t.Fatal("setup: partial run should not converge in 5 iterations")
	}
	// Resume on the same store (fresh engine, as after a crash).
	resumed, err := New(ds, Config{Model: ModelCOP, Resume: true, CheckpointEvery: 2}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Converged {
		t.Fatal("resumed run did not converge")
	}
	// Resumed iterations continue past the checkpoint, not from zero.
	if first := resumed.Iterations[0].Iter; first != 4 {
		t.Fatalf("resumed at iteration %d, want 4 (last checkpoint)", first)
	}
	if !reflect.DeepEqual(resumed.Values, full.Values) {
		t.Fatal("resumed values differ from uninterrupted run")
	}
}

func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	g := pathGraph(10)
	ds := buildStore(t, g, 2, storage.HDD)
	res, err := New(ds, Config{Model: ModelROP, Resume: true}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations[0].Iter != 0 {
		t.Fatalf("fresh resume: converged=%v first=%d", res.Converged, res.Iterations[0].Iter)
	}
}

// buildStoreOn materializes g on the given mem store so tests can corrupt
// blobs behind the DualStore's back.
func buildStoreOn(t *testing.T, mem *storage.MemStore, g *graph.Graph, p int) *blockstore.DualStore {
	t.Helper()
	ds, err := blockstore.BuildOpts(mem, g, blockstore.Options{P: p, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCheckpointsAlternateGenerations(t *testing.T) {
	g := pathGraph(30)
	mem := storage.NewMemStore(storage.NewDevice(storage.HDD))
	ds := buildStoreOn(t, mem, g, 2)
	if _, err := New(ds, Config{Model: ModelCOP, MaxIters: 4, CheckpointEvery: 1}).Run(testBFS{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aux/ckpt-testBFS.g0", "aux/ckpt-testBFS.g1"} {
		if _, err := mem.ReadAll(name); err != nil {
			t.Fatalf("generation %s missing: %v", name, err)
		}
	}
}

func TestResumeFallsBackToPreviousGeneration(t *testing.T) {
	g := pathGraph(40)
	full, err := New(buildStore(t, g, 4, storage.HDD), Config{Model: ModelCOP}).Run(testBFS{})
	if err != nil {
		t.Fatal(err)
	}

	mem := storage.NewMemStore(storage.NewDevice(storage.HDD))
	ds := buildStoreOn(t, mem, g, 4)
	// Checkpoints land at iterations 2 (slot g0) and 4 (slot g1).
	if _, err := New(ds, Config{Model: ModelCOP, MaxIters: 5, CheckpointEvery: 2}).Run(testBFS{}); err != nil {
		t.Fatal(err)
	}
	// Truncate the newest generation behind the store's back — the torn
	// write a crash mid-checkpoint leaves.
	raw, err := mem.ReadAll("aux/ckpt-testBFS.g1")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("aux/ckpt-testBFS.g1", raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(ds, Config{Model: ModelCOP, Resume: true, CheckpointEvery: 2}).Run(testBFS{})
	if err != nil {
		t.Fatalf("resume with corrupt newest generation failed: %v", err)
	}
	if first := resumed.Iterations[0].Iter; first != 2 {
		t.Fatalf("resumed at iteration %d, want 2 (previous good generation)", first)
	}
	if resumed.Recovery.CheckpointFallbacks != 1 || resumed.Recovery.ResumedIter != 2 {
		t.Fatalf("recovery stats: %+v", resumed.Recovery)
	}
	if !reflect.DeepEqual(resumed.Values, full.Values) {
		t.Fatal("fallback resume diverged from uninterrupted run")
	}
}

func TestResumeAllGenerationsCorruptStartsFresh(t *testing.T) {
	g := pathGraph(30)
	mem := storage.NewMemStore(storage.NewDevice(storage.HDD))
	ds := buildStoreOn(t, mem, g, 2)
	if _, err := New(ds, Config{Model: ModelCOP, MaxIters: 4, CheckpointEvery: 1}).Run(testBFS{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aux/ckpt-testBFS.g0", "aux/ckpt-testBFS.g1"} {
		if err := mem.Put(name, []byte("garbage")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := New(ds, Config{Model: ModelCOP, Resume: true}).Run(testBFS{})
	if err != nil {
		t.Fatalf("resume with all generations corrupt failed: %v", err)
	}
	if res.Iterations[0].Iter != 0 {
		t.Fatalf("resumed at %d, want fresh start", res.Iterations[0].Iter)
	}
	if res.Recovery.CheckpointFallbacks != 2 {
		t.Fatalf("fallbacks = %d, want 2", res.Recovery.CheckpointFallbacks)
	}
	if !res.Converged {
		t.Fatal("fresh run did not converge")
	}
}

// statefulCounter is an Incremental program with internal state: it
// counts, per vertex, the messages seen across the whole run; the count
// lives outside the engine-managed values, so resume only works if the
// state is checkpointed.
type statefulCounter struct {
	seen []float64
}

func (c *statefulCounter) Name() string         { return "statefulCounter" }
func (c *statefulCounter) Kind() Kind           { return Incremental }
func (c *statefulCounter) NeedsSymmetric() bool { return false }
func (c *statefulCounter) Init(ctx *Context) ([]float64, *bitset.Frontier) {
	if c.seen == nil {
		c.seen = make([]float64, ctx.NumVertices)
	}
	return make([]float64, ctx.NumVertices), bitset.FullFrontier(ctx.NumVertices)
}
func (c *statefulCounter) Message(_ graph.VertexID, _ float64, _ float32) float64 { return 1 }
func (c *statefulCounter) Combine(acc, msg float64) (float64, bool)               { return acc + msg, true }
func (c *statefulCounter) Apply(v graph.VertexID, prev, acc float64) (float64, bool) {
	c.seen[v] += acc
	return c.seen[v], c.seen[v] < 3 // run three rounds per vertex
}
func (c *statefulCounter) SaveState() []byte           { return SaveStateFloats(c.seen) }
func (c *statefulCounter) LoadState(data []byte) error { return LoadStateFloats(data, c.seen) }

func TestResumeRestoresProgramState(t *testing.T) {
	g := pathGraph(16)
	full, err := New(buildStore(t, g, 2, storage.HDD), Config{Model: ModelCOP, MaxIters: 10}).Run(&statefulCounter{})
	if err != nil {
		t.Fatal(err)
	}

	ds := buildStore(t, g, 2, storage.HDD)
	if _, err := New(ds, Config{Model: ModelCOP, MaxIters: 2, CheckpointEvery: 1}).Run(&statefulCounter{}); err != nil {
		t.Fatal(err)
	}
	resumed, err := New(ds, Config{Model: ModelCOP, MaxIters: 10, Resume: true}).Run(&statefulCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Values, full.Values) {
		t.Fatalf("stateful resume diverged:\n  got  %v\n  want %v", resumed.Values, full.Values)
	}
}
