package lint

import (
	"strings"
	"testing"
)

const (
	depPath      = "husgraph/internal/lint/testdata/factchain/dep"
	consumerPath = "husgraph/internal/lint/testdata/factchain/consumer"
)

// depFacts returns a fact set holding the dep fixture's summaries only.
func depFacts(t *testing.T) *FactSet {
	t.Helper()
	fs := NewFactSet()
	fs.Summarize(loadFixture(t, "factchain/dep", depPath))
	return fs
}

// TestDepFactContent pins the three facts lockhold reads, and that the
// intra-package fixpoint carries each one up its call chain.
func TestDepFactContent(t *testing.T) {
	fs := depFacts(t)
	wait := fs.Fact(depPath + ".WaitForValue")
	if wait == nil || len(wait.Blocks) != 1 || wait.Blocks[0] != (BlockFact{Kind: BlockRecv}) {
		t.Errorf("WaitForValue fact = %+v, want one direct chan-receive block", wait)
	}
	issue := fs.Fact("(*" + depPath + ".Loader).issue")
	if issue == nil || len(issue.Blocks) != 1 || issue.Blocks[0] != (BlockFact{Kind: BlockIO}) {
		t.Errorf("Loader.issue fact = %+v, want one direct storage I/O block", issue)
	}
	attempt := fs.Fact("(*" + depPath + ".Loader).attempt")
	if attempt == nil || len(attempt.Calls) != 2 || !strings.HasSuffix(attempt.Calls[0], "attempt$lit1") {
		t.Errorf("Loader.attempt fact = %+v, want calls to its literal and to observed", attempt)
	}
	load := fs.Fact("(*" + depPath + ".Loader).LoadIndex")
	const chain = "(*dep.Loader).readTagged → (*dep.Loader).withRetry → (*dep.Loader).attempt → (*dep.Loader).attempt$lit1 → (*dep.Loader).issue"
	if load == nil || len(load.Blocks) != 1 || load.Blocks[0] != (BlockFact{Kind: BlockIO, Via: chain}) {
		t.Errorf("Loader.LoadIndex fact = %+v, want storage I/O via %s", load, chain)
	}
	add := fs.Fact("(*" + depPath + ".Registry).add")
	if add == nil || len(add.Acquires) != 1 || add.Acquires[0] != (MutexAcq{Mutex: depPath + ".Registry.Mu"}) {
		t.Errorf("Registry.add fact = %+v, want it to acquire Registry.Mu directly", add)
	}
	touch := fs.Fact("(*" + depPath + ".Registry).Touch")
	if touch == nil || len(touch.Acquires) != 1 || touch.Acquires[0] != (MutexAcq{Mutex: depPath + ".Registry.Mu", Via: "(*dep.Registry).add"}) {
		t.Errorf("Registry.Touch fact = %+v, want Registry.Mu acquired via add", touch)
	}
}

// TestTransitivePropagation summarizes the consumer against dep's facts
// and checks the fixpoint pulled dep's behavior across the package boundary
// with a via chain.
func TestTransitivePropagation(t *testing.T) {
	fs := depFacts(t)
	fs.Summarize(loadFixture(t, "factchain/consumer", consumerPath))

	blk := fs.Fact("(*" + consumerPath + ".prefetcher).blockUnderLock")
	if blk == nil || len(blk.Blocks) != 1 || blk.Blocks[0] != (BlockFact{Kind: BlockRecv, Via: "dep.WaitForValue"}) {
		t.Errorf("blockUnderLock fact = %+v, want a chan-receive block via dep.WaitForValue", blk)
	}
	load := fs.Fact("(*" + consumerPath + ".prefetcher).loadUnderLock")
	if load == nil || len(load.Blocks) != 1 || load.Blocks[0].Kind != BlockIO ||
		!strings.HasPrefix(load.Blocks[0].Via, "(*dep.Loader).LoadIndex → ") || !strings.HasSuffix(load.Blocks[0].Via, " → (*dep.Loader).issue") {
		t.Errorf("loadUnderLock fact = %+v, want storage I/O via LoadIndex … issue", load)
	}
	inv := fs.Fact("(*" + consumerPath + ".prefetcher).invertOrder")
	var got []string
	for _, a := range inv.Acquires {
		got = append(got, shortKey(a.Mutex)+"|"+a.Via)
	}
	want := "consumer.prefetcher.errMu|, dep.Registry.Mu|(*dep.Registry).Touch → (*dep.Registry).add"
	if strings.Join(got, ", ") != want {
		t.Errorf("invertOrder acquires %q, want %q", got, want)
	}
}
