package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json pins, for the default seed and scale, each workload's input
// fingerprint and the hash of its correct output. A change to internal/gen
// (or to what the programs compute) then fails the run instead of silently
// moving the workload under every later comparison. Other seeds skip this
// check and keep the others.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed      int64                  `json:"seed"`
	Scale     int                    `json:"scale"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

type goldenEntry struct {
	Graph      fingerprint `json:"graph"`
	ValuesHash string      `json:"values_hash"`
}

// checkGolden returns "ok", "skipped", or what differs.
func checkGolden(o options, w workload, fp fingerprint, valuesHash string) string {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "golden.json: " + err.Error()
	}
	if o.seed != g.Seed || o.scale != g.Scale {
		return "skipped"
	}
	want, ok := g.Workloads[w.name]
	if !ok {
		return "golden.json has no entry for " + w.name
	}
	if got := (goldenEntry{Graph: fp, ValuesHash: valuesHash}); got != want {
		return fmt.Sprintf("mismatch: got %+v, golden.json has %+v", got, want)
	}
	return "ok"
}
