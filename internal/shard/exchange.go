// Package shard runs a HUS-Graph program on K goroutine-confined worker
// shards, each owning a contiguous P/K-interval slice of the dual-block
// layout with its own store handle, cache budget slice and I/O scheduler.
//
// The design keeps K>1 bit-identical to the single-engine run: shards
// parallelize I/O (each worker's scheduler plans and prefetches over its
// owned rows/columns against its own device) while the compute
// phase is serialized by a token passed shard 0 → K−1 in interval order
// over the shared S/D value arrays — exactly the sequential interval order
// the monolithic engine executes, so every Gauss–Seidel interaction (eager
// monotone row synchronization, COP's per-column finalize) happens in the
// same order with the same float arithmetic. Finalization is owner-disjoint
// and runs concurrently; frontier pieces are OR-merged at the barrier.
package shard

import (
	"husgraph/internal/bitset"
	"husgraph/internal/core"
	"husgraph/internal/resilience"
)

// Cmd starts one iteration on a worker shard: the model the coordinator
// arbitrated (or core.ModelHybrid at K=1, letting the engine's own
// predictor decide), the read-only entering frontier, and the piece
// frontier the shard's activations land in.
type Cmd struct {
	Iter     int
	Model    core.Model
	Frontier *bitset.Frontier
	Piece    *bitset.Frontier
}

// Token serializes the compute phase: the shard holding it is the only one
// executing its accumulate sweep. It enters at shard 0 and travels in
// interval order back to the coordinator.
type Token struct {
	Iter int
}

// BarrierMsg is one shard's end-of-iteration report, published by value at
// the barrier: its frontier piece, its owner-scoped iteration statistics,
// any degradation-ladder transitions its breaker recorded, and the
// iteration error (nil on success).
type BarrierMsg struct {
	Iter   int
	Shard  int
	Piece  *bitset.Frontier
	Stats  core.IterStats
	Events []resilience.DegradeEvent
	Err    error
}

// Exchange is the typed coordinator↔worker protocol of one sharded run.
// The in-process implementation is ChanExchange; the interface is the seam
// a cross-process transport would implement (every payload is a value or a
// handed-over frontier — nothing shared mutably crosses it except the
// S/D arrays the token order protects).
type Exchange interface {
	// NumShards returns K.
	NumShards() int

	// SendCmd hands shard s its iteration command (coordinator side;
	// never blocks: one command is in flight per shard).
	SendCmd(s int, cmd Cmd)
	// Cmds is shard s's command stream (worker side).
	Cmds(s int) <-chan Cmd

	// InjectToken starts the compute round at shard 0 (coordinator side).
	InjectToken(t Token)
	// TokenIn delivers the token to shard s (worker side).
	TokenIn(s int) <-chan Token
	// PassToken forwards the token from shard s to shard s+1, or back to
	// the coordinator when s is the last shard (worker side).
	PassToken(s int, t Token)
	// TokenBack delivers the token returning from the last shard
	// (coordinator side).
	TokenBack() <-chan Token

	// Finalize releases every shard into its owner-disjoint finalization
	// phase once all accumulate sweeps are done (coordinator side;
	// never blocks: one release is in flight per shard).
	Finalize(iter int)
	// FinalizeIn delivers shard s's finalization release (worker side).
	FinalizeIn(s int) <-chan int

	// SendBarrier publishes shard s's iteration report (worker side;
	// never blocks: the barrier holds K reports).
	SendBarrier(m BarrierMsg)
	// Barrier is the coordinator's report stream: exactly K messages per
	// iteration, in completion order.
	Barrier() <-chan BarrierMsg
}

// ChanExchange is the in-process Exchange: buffered channels sized so that
// within the coordinator's cycle discipline (inject the token only after
// all commands are sent, finalize only after the token returns, read K
// barrier messages before the next cycle) no send ever blocks except the
// token hand-off itself, which is the serialization point.
type ChanExchange struct {
	k       int
	cmds    []chan Cmd
	tokens  []chan Token // tokens[s] feeds shard s; tokens[k] returns to the coordinator
	fin     []chan int
	barrier chan BarrierMsg
}

// NewChanExchange builds the in-process exchange for k shards.
func NewChanExchange(k int) *ChanExchange {
	ex := &ChanExchange{
		k:       k,
		cmds:    make([]chan Cmd, k),
		tokens:  make([]chan Token, k+1),
		fin:     make([]chan int, k),
		barrier: make(chan BarrierMsg, k),
	}
	for s := 0; s < k; s++ {
		ex.cmds[s] = make(chan Cmd, 1)
		ex.fin[s] = make(chan int, 1)
	}
	for s := 0; s <= k; s++ {
		ex.tokens[s] = make(chan Token, 1)
	}
	return ex
}

// NumShards implements Exchange.
func (ex *ChanExchange) NumShards() int { return ex.k }

// SendCmd implements Exchange.
func (ex *ChanExchange) SendCmd(s int, cmd Cmd) { ex.cmds[s] <- cmd }

// Cmds implements Exchange.
func (ex *ChanExchange) Cmds(s int) <-chan Cmd { return ex.cmds[s] }

// InjectToken implements Exchange.
func (ex *ChanExchange) InjectToken(t Token) { ex.tokens[0] <- t }

// TokenIn implements Exchange.
func (ex *ChanExchange) TokenIn(s int) <-chan Token { return ex.tokens[s] }

// PassToken implements Exchange.
func (ex *ChanExchange) PassToken(s int, t Token) { ex.tokens[s+1] <- t }

// TokenBack implements Exchange.
func (ex *ChanExchange) TokenBack() <-chan Token { return ex.tokens[ex.k] }

// Finalize implements Exchange.
func (ex *ChanExchange) Finalize(iter int) {
	for s := 0; s < ex.k; s++ {
		ex.fin[s] <- iter
	}
}

// FinalizeIn implements Exchange.
func (ex *ChanExchange) FinalizeIn(s int) <-chan int { return ex.fin[s] }

// SendBarrier implements Exchange.
func (ex *ChanExchange) SendBarrier(m BarrierMsg) { ex.barrier <- m }

// Barrier implements Exchange.
func (ex *ChanExchange) Barrier() <-chan BarrierMsg { return ex.barrier }

var _ Exchange = (*ChanExchange)(nil)
