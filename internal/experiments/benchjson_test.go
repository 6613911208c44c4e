package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"husgraph/internal/core"
	"husgraph/internal/storage"
)

func TestBenchDatasetSpeedupAndIdentity(t *testing.T) {
	// The acceptance bar of the prefetch/cache work: on the largest
	// dataset, the prefetch+cache configuration must show a modeled
	// speedup over the synchronous path while producing bit-identical
	// per-vertex values.
	r := NewRunner(Options{Quick: true, Threads: 4})
	rep, err := r.BenchDataset("ukunion-sim", storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 7 {
		t.Fatalf("entries: %d", len(rep.Entries))
	}
	if !rep.ValuesIdentical {
		t.Fatal("prefetch/cache configurations changed per-vertex values")
	}
	if rep.SpeedupPrefetchCache <= 1.0 {
		t.Fatalf("prefetch+cache speedup = %v, want > 1", rep.SpeedupPrefetchCache)
	}
	sync, cached := rep.Entries[0], rep.Entries[2]
	if cached.BytesRead >= sync.BytesRead {
		t.Fatalf("cached run read %d bytes, sync %d", cached.BytesRead, sync.BytesRead)
	}
	if cached.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate = %v", cached.CacheHitRate)
	}
	// Prefetch without a cache must not distort the simulated cost model:
	// identical bytes and identical modeled time.
	if pf := rep.Entries[1]; pf.BytesRead != sync.BytesRead || pf.NsPerIter != sync.NsPerIter {
		t.Fatalf("prefetch-only changed the modeled run: sync %+v prefetch %+v", sync, pf)
	}
	// The sem configuration drops vertex traffic; compress additionally
	// trades stored edge bytes for decode cost. speedup_compress = sem /
	// compress prices the compression lever alone, and on hdd — where
	// bandwidth is scarcest — it must clear the 1.5× acceptance bar.
	sem, cp := rep.Entries[3], rep.Entries[4]
	if sem.Config != "sem" || !sem.SemiExternal || sem.StoreFormat != "" {
		t.Fatalf("entry 3 is %+v, want semi-external over raw", sem)
	}
	if cp.Config != "compress" || cp.StoreFormat != "mixed" || !cp.SemiExternal {
		t.Fatalf("entry 4 is %q over %q, want compress over mixed", cp.Config, cp.StoreFormat)
	}
	if sem.BytesRead >= sync.BytesRead {
		t.Fatalf("sem read %d bytes, sync %d", sem.BytesRead, sync.BytesRead)
	}
	if cp.BytesRead >= sem.BytesRead {
		t.Fatalf("compress read %d bytes, sem %d", cp.BytesRead, sem.BytesRead)
	}
	if cp.DecodeModeledNs <= 0 || cp.DecodedBytes <= 0 || cp.CompressedBytes <= 0 {
		t.Fatalf("compress entry metered no decode: %+v", cp)
	}
	if sync.DecodeModeledNs != 0 || sync.DecodedBytes != 0 {
		t.Fatalf("raw sync entry metered decode work: %+v", sync)
	}
	if rep.SpeedupSem <= 1.0 {
		t.Fatalf("speedup_sem on hdd = %v, want > 1", rep.SpeedupSem)
	}
	if rep.SpeedupCompress < 1.5 {
		t.Fatalf("speedup_compress on hdd = %v, want >= 1.5", rep.SpeedupCompress)
	}
	// Sharded entries: bit-identical values already covered by
	// ValuesIdentical above; the exchange must be metered, and on hdd the
	// parallel I/O must beat the modeled barrier overhead.
	sh2, sh4 := rep.Entries[5], rep.Entries[6]
	if sh2.Config != "shard2" || sh2.Shards != 2 || sh4.Config != "shard4" || sh4.Shards != 4 {
		t.Fatalf("entries 5/6 are %q(K=%d)/%q(K=%d), want shard2/shard4", sh2.Config, sh2.Shards, sh4.Config, sh4.Shards)
	}
	if sh2.ExchangeBytes <= 0 || sh2.MergeTimeNs <= 0 || sh2.MaxShardSkew < 1 {
		t.Fatalf("shard2 entry metered no exchange: %+v", sh2)
	}
	for _, name := range []string{"shard2", "shard4"} {
		if s, ok := rep.SpeedupShard[name]; !ok || s <= 0 {
			t.Fatalf("speedup_shard[%s] = %v (present=%v)", name, s, ok)
		}
	}
	if rep.SpeedupShard["shard2"] < 1 {
		t.Fatalf("speedup_shard[shard2] on hdd = %v, want >= 1", rep.SpeedupShard["shard2"])
	}
}

// TestBenchCompressSpeedupOrderedAcrossDevices pins the device-ladder
// claim end to end in quick mode: the same dataset/algo benched on hdd,
// ssd and ram must show non-increasing speedup_compress, and the ordering
// checker must both accept the ladder and reject an inversion.
func TestBenchCompressSpeedupOrderedAcrossDevices(t *testing.T) {
	r := NewRunner(Options{Quick: true, Threads: 4})
	var reps []*BenchReport
	for _, prof := range []storage.Profile{storage.HDD, storage.SSD, storage.RAM} {
		rep, err := r.BenchDataset("ukunion-sim", prof)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.ValuesIdentical {
			t.Fatalf("%s: compress configuration changed per-vertex values", prof.Name)
		}
		reps = append(reps, rep)
	}
	hdd, ssd, ram := reps[0], reps[1], reps[2]
	if hdd.SpeedupCompress < ssd.SpeedupCompress || ssd.SpeedupCompress < ram.SpeedupCompress {
		t.Fatalf("speedup_compress not ordered hdd ≥ ssd ≥ ram: %.3f / %.3f / %.3f",
			hdd.SpeedupCompress, ssd.SpeedupCompress, ram.SpeedupCompress)
	}
	if err := checkCompressOrdering(reps); err != nil {
		t.Fatalf("well-ordered ladder rejected: %v", err)
	}
	bad := *hdd
	bad.Device = "ram"
	bad.SpeedupCompress = hdd.SpeedupCompress * 10
	if err := checkCompressOrdering([]*BenchReport{hdd, &bad}); err == nil {
		t.Fatal("inverted ladder accepted")
	}
}

func TestWriteBenchJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(Options{Quick: true, Threads: 4})
	paths, err := r.WriteBenchJSON(dir, []string{"livejournal-sim"}, storage.HDD)
	if err != nil {
		t.Fatal(err)
	}
	// The dataset's default PageRank artifact plus its benchExtraAlgos
	// row (Coreness rides on livejournal-sim).
	if len(paths) != 2 ||
		filepath.Base(paths[0]) != "BENCH_livejournal-sim.json" ||
		filepath.Base(paths[1]) != "BENCH_livejournal-sim_Coreness.json" {
		t.Fatalf("paths: %v", paths)
	}
	for i, wantAlgo := range []string{"PageRank", "Coreness"} {
		//lint:ignore huslint/rawio reading back a bench artifact, not graph data
		buf, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		var rep BenchReport
		if err := json.Unmarshal(buf, &rep); err != nil {
			t.Fatalf("artifact %d is not valid JSON: %v", i, err)
		}
		if rep.Dataset != "livejournal-sim" || rep.Algo != wantAlgo || rep.Device != "hdd" {
			t.Fatalf("report header: %+v", rep)
		}
		for _, e := range rep.Entries {
			if e.Iterations <= 0 || e.NsPerIter <= 0 || e.BytesRead <= 0 {
				t.Fatalf("degenerate entry: %+v", e)
			}
		}
	}
}

func TestRunHUSWithConfigAppliesAlgoDefaults(t *testing.T) {
	r := NewRunner(Options{Quick: true, Threads: 2})
	d, err := r.Dataset("livejournal-sim")
	if err != nil {
		t.Fatal(err)
	}
	a, err := AlgoByName("PageRank")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunHUSWithConfig(d, a, storage.HDD, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumIterations() != a.MaxIters {
		t.Fatalf("iterations = %d, want algo default %d", res.NumIterations(), a.MaxIters)
	}
}
