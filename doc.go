// Package husgraph is a reproduction of "HUS-Graph: I/O-Efficient
// Out-of-Core Graph Processing with Hybrid Update Strategy" (Xu, Wang,
// Jiang, Cheng, Feng, Zhang — ICPP 2018).
//
// The system lives in the internal packages:
//
//   - internal/core — the HUS engine: Row-oriented Push, Column-oriented
//     Pull, and the I/O-based performance prediction that switches between
//     them per iteration.
//   - internal/blockstore — the dual-block representation (P×P in-blocks
//     and out-blocks with per-vertex indices).
//   - internal/storage — the simulated storage substrate (HDD/SSD/NVMe/RAM
//     profiles, I/O accounting) with in-memory and file-backed stores.
//   - internal/algos — BFS, WCC, SSSP, PageRank and PageRank-Delta plus
//     in-memory oracle implementations.
//   - internal/baseline — GraphChi-, GridGraph- and X-Stream-style
//     comparison systems.
//   - internal/gen — deterministic synthetic analogues of the paper's
//     datasets.
//   - internal/experiments — drivers regenerating every table and figure,
//     plus the device extrapolation and the design-choice ablations.
//
// `cmd/husbench` prints every modeled number those drivers produce; its
// `-exp all -threads 4` output is archived in docs/husbench_all_output.txt.
// See README.md for a walkthrough and EXPERIMENTS.md for measured results
// against the paper's.
package husgraph
