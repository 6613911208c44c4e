package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"husgraph/internal/storage"
)

// writeArtifact benches one quick dataset and writes its artifact into dir,
// returning the written report.
func writeArtifact(t *testing.T, dir string) *BenchReport {
	t.Helper()
	r := NewRunner(Options{Quick: true, Threads: 4})
	paths, err := r.WriteBenchJSON(dir, []string{"livejournal-sim"}, storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore huslint/rawio reading back a bench artifact, not graph data
	buf, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

func TestCheckBenchTrendCleanOnFreshArtifact(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir)
	trends, err := CheckBenchTrend(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 8 configs per artifact (sync, prefetch, prefetch+cache, sem,
	// compress, compress:decode, shard2, shard4) × 2 artifacts: the
	// dataset's PageRank default plus its Coreness benchExtraAlgos row.
	if len(trends) != 16 {
		t.Fatalf("trend rows = %d, want 16 (8 configs × {PageRank, Coreness})", len(trends))
	}
	var sawDecode bool
	for _, tr := range trends {
		if tr.Config == "compress:decode" {
			sawDecode = true
		}
	}
	if !sawDecode {
		t.Fatal("no compress:decode trend row — the decode-cost gate is not armed")
	}
	for _, tr := range trends {
		if tr.Regressed {
			t.Errorf("%s/%s regressed against an artifact written moments ago: old=%d new=%d",
				tr.Dataset, tr.Config, tr.OldNs, tr.NewNs)
		}
		// Modeled runtime is deterministic: the replay must reproduce the
		// artifact exactly, not merely within the threshold.
		if tr.NewNs != tr.OldNs {
			t.Errorf("%s/%s modeled ns/iter not reproducible: old=%d new=%d",
				tr.Dataset, tr.Config, tr.OldNs, tr.NewNs)
		}
	}
}

// TestBenchReplayIsExact is the check behind every "deterministic" claim
// made about the modeled track (DESIGN.md §7, EXPERIMENTS.md): two runs of
// the same bench configuration agree on every recorded field — modeled
// runtime, bytes, cache counters, decode and exchange totals — and differ
// only in host wall-clock. PageRank covers COP, BFS covers ROP with the run
// cache, Coreness the bucketed path.
func TestBenchReplayIsExact(t *testing.T) {
	for _, algo := range []string{"PageRank", "BFS", "Coreness"} {
		var runs [2]*BenchReport
		for i := range runs {
			rep, err := NewRunner(Options{Quick: true, Threads: BenchThreads}).BenchDatasetAlgo("livejournal-sim", algo, storage.HDD)
			if err != nil {
				t.Fatal(err)
			}
			for j := range rep.Entries {
				rep.Entries[j].WallNsPerIter = 0
			}
			runs[i] = rep
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			for j, e := range runs[0].Entries {
				if e != runs[1].Entries[j] {
					t.Errorf("%s/%s not reproducible:\n  first  %+v\n  second %+v", algo, e.Config, e, runs[1].Entries[j])
				}
			}
			t.Fatalf("%s: two runs of the same configuration disagree", algo)
		}
	}
}

func TestCheckBenchTrendFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	rep := writeArtifact(t, dir)
	// Tamper the committed baseline: pretend the accepted sync runtime was
	// 30% lower than what the code now produces.
	for i := range rep.Entries {
		if rep.Entries[i].Config == "sync" {
			rep.Entries[i].NsPerIter = rep.Entries[i].NsPerIter * 10 / 13
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore huslint/rawio tampering a bench artifact fixture, not graph data
	if err := os.WriteFile(filepath.Join(dir, "BENCH_livejournal-sim.json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	trends, err := CheckBenchTrend(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := Regressions(trends)
	if len(bad) != 1 || bad[0].Config != "sync" {
		t.Fatalf("Regressions = %+v, want exactly the tampered sync entry", bad)
	}
	if bad[0].Ratio <= BenchRegressionThreshold {
		t.Fatalf("tampered ratio %.3f not above threshold %.2f", bad[0].Ratio, BenchRegressionThreshold)
	}
}

func TestCheckBenchTrendErrorsOnEmptyDir(t *testing.T) {
	if _, err := CheckBenchTrend(t.TempDir(), 0); err == nil {
		t.Fatal("empty artifact directory accepted; the gate would silently check nothing")
	}
}
