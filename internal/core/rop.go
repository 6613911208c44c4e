package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"husgraph/internal/bitset"
	"husgraph/internal/blockstore"
	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

// ropAccumulate executes the accumulate phase of a Row-oriented Push
// iteration (paper Alg. 2) over the engine's owned rows.
//
// For every owned interval i containing active vertices, the row of
// out-blocks (i, 0)..(i, P-1) is processed by overlapping workers — their
// destination intervals are disjoint, so no write synchronization is
// needed. Each active vertex's out-edges are located through the out-index
// and loaded selectively; ranges whose gap is cheaper to read through than
// to seek over are coalesced into one access (per-vertex loads are issued
// in ascending source order, Alg. 2 lines 5–7, so on real hardware the
// disk scheduler and readahead merge them exactly like this).
//
// Monotone programs eagerly synchronize vertex values after each row
// (Alg. 2 lines 17–19), so later rows push already-improved values. Only
// the destination intervals the row pushed into are copied: D enters every
// row equal to S, so an interval no worker pushed into still is. That also
// leaves D == S bit for bit when the iteration ends, which is why a
// monotone run initializes D (InitAccumulators) before its first iteration
// only. Additive and Incremental programs accumulate into D across all
// rows; Step.FinalizeOwned applies and synchronizes them once at the end of
// the iteration (see the package comment for why), and the caller zeroes D
// before every iteration — once, even when K owner-scoped engines push into
// it in turn.
func (e *Engine) ropAccumulate(prog Program, s, d []float64, frontier, next *bitset.Frontier, win *blockstore.Prefetcher, live []blockstore.Extent) error {
	l := e.ds.Layout
	monotone := prog.Kind() == Monotone
	op := e.reduceOf(prog)
	var activate *bitset.Frontier // monotone programs activate on combine-change
	if monotone {
		activate = next
	}

	var errMu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// The window's plan (ioplan.ROPKeysFor) mirrors this traversal exactly:
	// every block live in live, one whose source mask meets the frontier, of
	// every active row, row-major; and it loads of each out-index only the
	// pages the block's extent spans. The window reads ahead across
	// block — and row — boundaries while the workers compute; each row's
	// workers claim their indices by key (Take), which is safe because
	// together they drain the row's contiguous schedule window before the
	// next row starts. The selective random record loads stay on the consume
	// path: their ranges depend on the out-index just delivered, and go
	// through the run-granular cache.
	coalesce := e.ds.Device().Profile().CoalesceBytes()
	step := uint32(blockstore.RawRecordBytes(e.ds.Weighted))
	touched := e.touched
	for _, i := range e.owned {
		lo, hi := l.Bounds(i)
		if frontier.CountIn(lo, hi) == 0 {
			continue // selective scheduling: no active sources in this row
		}
		clear(touched)

		parallelFor(l.P, e.cfg.Threads, func(j int) {
			x := live[i*l.P+j]
			if !x.Live() {
				return // a dead block: no index to load, nothing to push
			}
			// The active sources with an edge in this block: frontier ∧
			// mask, ascending, at least one, all inside the extent — so only
			// the mask words the extent spans are walked.
			spans := e.spanBuf(j)
			w0, w1 := int(x.First)/64, (int(x.End)+63)/64
			frontier.RangeMasked(lo+64*w0, e.ds.SourceMasks[i][j][w0:w1], func(v int) bool {
				spans = append(spans, span{v: int32(v)})
				return true
			})
			e.spans[j] = spans // retain grown capacity
			sc := blockstore.GetScratch()
			defer blockstore.PutScratch(sc)
			// The index's stored bytes from offset base on: the whole index
			// when cached, else the pages x spans.
			res := win.Take(blockstore.BlockKey{Kind: blockstore.KindOutIndex, I: i, J: j})
			if res.Err != nil {
				setErr(res.Err)
				return
			}
			idx, base := res.Payload, res.Base

			// Look up each live source's record range; coalesce close ranges
			// into runs. The index is read in place, two entries per live
			// source, and only while building them, so its buffers go back to
			// the pipeline right after. The loader checked only its length,
			// or its pages' CRCs: the spans used must each start where the
			// previous one ended or later, end inside the block and cut it at
			// whole records, or the runs below would slice out of bounds or
			// the push read past a section; and the mask said each has a
			// record, so an empty one means mask and index disagree.
			runs := e.runBuf(j)
			blockBytes := e.ds.OutBlockBytes(i, j)
			var prevEnd uint32
			var badSpan error
			for k := range spans {
				at := 4*(int(spans[k].v)-lo) - base
				rs := binary.LittleEndian.Uint32(idx[at:])
				re := binary.LittleEndian.Uint32(idx[at+4:])
				if rs < prevEnd || re <= rs || int64(re) > blockBytes || rs%step != 0 || re%step != 0 {
					badSpan = fmt.Errorf("core: out-index (%d,%d) vertex %d: section [%d, %d) after byte %d of a %d-byte block of %d-byte records, for a source the meta's mask marks live: %w", i, j, spans[k].v, rs, re, prevEnd, blockBytes, step, storage.ErrCorrupt)
					break
				}
				prevEnd = re
				spans[k].s, spans[k].e = rs, re
				if n := len(runs); n > 0 && int64(rs-runs[n-1].e) <= coalesce {
					runs[n-1].e = re
				} else {
					runs = append(runs, run{s: rs, e: re})
				}
			}
			e.runs[j] = runs // retain grown capacity
			touched[j] = true
			res.Release()
			if badSpan != nil {
				setErr(badSpan)
				return
			}

			ri := 0
			var err error
			var runBytes []byte
			loaded := false
			var runStart uint32
			for _, sp := range spans {
				for sp.s >= runs[ri].e {
					ri++
					loaded = false
				}
				if !loaded {
					runBytes, err = e.loadOutRun(i, j, runs[ri].s, runs[ri].e, sc) // one access per run, or a cached slice
					if err != nil {
						setErr(err)
						return
					}
					runStart = runs[ri].s
					loaded = true
				}
				sec := runBytes[sp.s-runStart : sp.e-runStart]
				if !ropPushRaw(prog, op, graph.VertexID(sp.v), s[sp.v], sec, e.ds.Weighted, d, activate) {
					setErr(fmt.Errorf("core: out-block (%d,%d) vertex %d: neighbour out of range [0,%d): %w", i, j, sp.v, len(d), storage.ErrCorrupt))
					return
				}
			}
		})
		if firstErr != nil {
			return firstErr
		}

		if monotone {
			// Eager synchronization: S_j ← D_j for every interval the row
			// pushed into; the others still hold D_j == S_j.
			for j, pushed := range touched {
				if pushed {
					jlo, jhi := l.Bounds(j)
					copy(s[jlo:jhi], d[jlo:jhi])
				}
			}
		}
	}

	return nil
}

// applyOwned runs the end-of-iteration apply/activate/synchronize sweep
// over the engine's owned intervals — Additive/Incremental ROP
// finalization (COP applies per column during the streaming sweep) and
// Incremental COP's deferred deltas. Writes are owner-disjoint (owned
// vertex values, this engine's own frontier adds), so K shards may run it
// concurrently after every shard's accumulate phase completed. Returns the
// largest per-vertex value change.
func (e *Engine) applyOwned(prog Program, s, d []float64, next *bitset.Frontier) float64 {
	l := e.ds.Layout
	var maxDelta float64
	for _, i := range e.owned {
		lo, hi := l.Bounds(i)
		for v := lo; v < hi; v++ {
			newVal, activate := prog.Apply(graph.VertexID(v), s[v], d[v])
			delta := math.Abs(newVal - s[v])
			if delta > maxDelta {
				maxDelta = delta
			}
			s[v] = newVal
			if activate {
				next.Add(v)
			}
		}
	}
	return maxDelta
}

// span is one active vertex's byte range within a block; run is a
// coalesced byte range loaded with one access.
type span struct {
	v    int32
	s, e uint32
}

type run struct{ s, e uint32 }

// spanBuf and runBuf return per-destination-block reusable buffers (worker
// j exclusively owns index j during a row).
func (e *Engine) spanBuf(j int) []span { return e.spans[j][:0] }
func (e *Engine) runBuf(j int) []run   { return e.runs[j][:0] }
