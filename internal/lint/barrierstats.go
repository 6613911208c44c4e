package lint

import (
	"go/ast"
	"strings"
)

// BarrierStats generalizes atomicstats to the iteration barrier: a struct
// whose doc comment carries the "barrier-published" marker declares that
// its fields are written only by the coordinator between iteration
// Begin/Finish (the barrier publishes them) or through sync/atomic. The
// engine's IterStats and the blockstore's DecodeStats snapshot follow this
// discipline: workers update atomics mid-iteration, and plain fields are
// touched only in serial sections the barrier orders.
//
// The analyzer uses the fact system's spawn graph: a plain (non-atomic)
// write to a barrier-published field is a violation exactly when it is
// reachable from a go statement — i.e. can execute off the coordinator
// goroutine, where no barrier orders it. Reports anchor at the go
// statement in the package under analysis, with the write's position in
// the message, so a test harness spawning the engine doesn't smear
// "concurrent" over the engine's own serial sections.
var BarrierStats = &Analyzer{
	Name: "barrierstats",
	Doc: "fields of barrier-published structs (IterStats, DecodeStats) " +
		"may be written only between iteration Begin/Finish on the coordinator or via sync/atomic; " +
		"a plain write reachable from a go statement races the barrier",
	Run: runBarrierStats,
}

func runBarrierStats(pass *Pass) error {
	if pass.Facts == nil {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			key := spawnTargetKey(pass, g)
			if key == "" {
				return true
			}
			reportMarkedWrites(pass, g, key)
			return true
		})
	}
	return nil
}

// reportMarkedWrites BFSes the spawned function's closure (calls and
// nested spawns) and reports every barrier-published field written
// plainly inside it.
func reportMarkedWrites(pass *Pass, g *ast.GoStmt, root string) {
	seen := map[string]bool{root: true}
	queue := []string{root}
	reported := map[string]bool{}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		f := pass.Facts.Fact(key)
		if f == nil {
			continue
		}
		for _, wr := range f.WritesMarked {
			// One report per marked type per spawn: the first write makes
			// the point, the rest of the struct follows the same fix.
			typeKey := wr.Field[:strings.LastIndex(wr.Field, ".")]
			if reported[typeKey] {
				continue
			}
			reported[typeKey] = true
			where := ""
			if key != root {
				where = " (reached via " + shortKey(key) + ")"
			}
			pass.Reportf(g.Pos(),
				"goroutine %s writes barrier-published field %s without sync/atomic at %s%s; off-coordinator writes race the Begin/Finish barrier — use the atomic counterpart or move the write to the serial section",
				shortKey(root), shortKey(wr.Field), wr.At, where)
		}
		for _, next := range f.Calls {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
		for _, next := range f.Spawns {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
}
