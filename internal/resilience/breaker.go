// Package resilience implements the run-level degradation ladder: a
// windowed fault-rate/latency circuit breaker that sheds the engine's
// optimism one rung at a time under sustained I/O pressure and re-arms it
// when the window clears.
//
// The ladder exists because the optimism the engine layers over the block
// store — prefetch read-ahead, the block cache — *amplifies* I/O during a
// fault storm: prefetch workers multiply the number of in-flight operations
// against a device that is already struggling, and read-ahead burns the
// retry budget on blocks an aborted iteration never consumes. Degrading in
// order of decreasing amplification (prefetch, then cache admission) trades
// throughput for pressure relief while keeping results bit-identical:
// neither rung changes what is computed, only how eagerly bytes are
// fetched.
package resilience

import (
	"fmt"
	"sync"
	"time"
)

// Level is a rung of the degradation ladder. Higher levels shed more
// optimism; LevelNormal is full speed. Levels are ordered: every rung
// includes the shedding of all rungs below it.
type Level int

const (
	// LevelNormal runs with the configured prefetch and cache.
	LevelNormal Level = iota
	// LevelNoPrefetch drops within-iteration prefetch to zero: block
	// loads run inline on the consuming goroutine, bounding in-flight
	// reads to the compute worker count.
	LevelNoPrefetch
	// LevelBypass additionally bypasses the block cache on reads, making
	// every load a synchronous uncached read — the minimal-footprint mode
	// for riding out a storm without inflating a possibly-corrupt cache.
	LevelBypass
)

// MaxLevel is the deepest rung.
const MaxLevel = LevelBypass

// String names the rung for stats output.
func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelNoPrefetch:
		return "no-prefetch"
	case LevelBypass:
		return "bypass"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// DegradeEvent records one ladder transition, for Result.Recovery.
type DegradeEvent struct {
	// Iter is the engine iteration during which the transition happened
	// (stamped by the engine when it drains events).
	Iter int
	// From and To are the rungs moved between; |From-To| is always 1.
	From, To Level
	// Reason summarizes the window that drove the transition.
	Reason string
}

// String renders the event for logs and -stats output.
func (e DegradeEvent) String() string {
	arrow := "↓"
	if e.To < e.From {
		arrow = "↑"
	}
	return fmt.Sprintf("iter %d: %s %s→%s (%s)", e.Iter, arrow, e.From, e.To, e.Reason)
}

// Config tunes a Breaker. The zero value gets usable defaults from
// NewBreaker.
type Config struct {
	// Window is the observation window faults and latencies are judged
	// over (default 100ms). The window is divided into Buckets rotating
	// ring slots, so pressure from more than a Window ago ages out.
	Window time.Duration
	// Buckets is the ring granularity (default 5).
	Buckets int
	// TripRate is the (faults+slows)/ops fraction at or above which the
	// breaker steps down one rung (default 0.5).
	TripRate float64
	// MinOps is the minimum operations in the window before the rate is
	// trusted (default 8): a single early fault must not trip the run.
	MinOps int
	// SlowThreshold classifies an attempt latency as "slow" (counted like
	// a fault); 0 disables latency-based tripping.
	SlowThreshold time.Duration
	// Cooldown is the minimum time between transitions in either
	// direction (default Window/2), pacing the descent so one bad window
	// doesn't slam the run straight to LevelBypass.
	Cooldown time.Duration
	// MaxLevel caps the descent (default resilience.MaxLevel).
	MaxLevel Level
	// Now replaces time.Now for deterministic tests; nil uses time.Now.
	Now func() time.Time
}

type bucket struct {
	ops, faults, slows int64
}

// Breaker is the windowed circuit breaker driving the ladder. Observe is
// fed every read attempt (latency + fault classification); the breaker
// maintains a rotating ring of time buckets and steps the level down when
// the windowed fault+slow rate trips, and back up one rung per clear
// window. All methods are safe for concurrent use.
type Breaker struct {
	cfg Config

	mu       sync.Mutex
	ring     []bucket
	cur      int
	curStart time.Time
	level    Level
	lastMove time.Time
	started  bool
	events   []DegradeEvent

	tickQuit chan struct{}
	tickDone chan struct{}
}

// NewBreaker returns a breaker at LevelNormal with cfg's gaps filled by
// defaults.
func NewBreaker(cfg Config) *Breaker {
	if cfg.Window <= 0 {
		cfg.Window = 100 * time.Millisecond
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 5
	}
	if cfg.TripRate <= 0 {
		cfg.TripRate = 0.5
	}
	if cfg.MinOps <= 0 {
		cfg.MinOps = 8
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = cfg.Window / 2
	}
	if cfg.MaxLevel <= 0 || cfg.MaxLevel > MaxLevel {
		cfg.MaxLevel = MaxLevel
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, ring: make([]bucket, cfg.Buckets)}
}

// Observe feeds one completed read attempt: its wall latency and whether
// it resolved to a fault worth pressure (transient/permanent/corrupt —
// not, e.g., a missing-blob probe). This is the DualStore read-observer
// hook.
func (b *Breaker) Observe(lat time.Duration, fault bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	b.rotate(now)
	bk := &b.ring[b.cur]
	bk.ops++
	if fault {
		bk.faults++
	} else if b.cfg.SlowThreshold > 0 && lat >= b.cfg.SlowThreshold {
		bk.slows++
	}
	b.evaluate(now)
}

// Tick advances the window without an observation, so a fully idle (or
// fully stalled) run still ages pressure out and re-arms. The engine
// calls it at iteration boundaries; Start runs it on a wall-clock ticker.
func (b *Breaker) Tick() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Now()
	b.rotate(now)
	b.evaluate(now)
}

// Level returns the current rung.
func (b *Breaker) Level() Level {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.level
}

// TakeEvents drains and returns the transitions recorded since the last
// call, in order. The engine stamps them with the current iteration and
// appends them to Result.Recovery.
func (b *Breaker) TakeEvents() []DegradeEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	evs := b.events
	b.events = nil
	return evs
}

// rotate ages the ring forward to now. Callers hold b.mu.
func (b *Breaker) rotate(now time.Time) {
	per := b.cfg.Window / time.Duration(len(b.ring))
	if !b.started {
		b.started = true
		b.curStart = now
		b.lastMove = now
		return
	}
	steps := int(now.Sub(b.curStart) / per)
	if steps <= 0 {
		return
	}
	if steps > len(b.ring) {
		steps = len(b.ring)
	}
	for i := 0; i < steps; i++ {
		b.cur = (b.cur + 1) % len(b.ring)
		b.ring[b.cur] = bucket{}
	}
	b.curStart = now
}

// evaluate applies the transition rules. Callers hold b.mu.
func (b *Breaker) evaluate(now time.Time) {
	var ops, faults, slows int64
	for _, bk := range b.ring {
		ops += bk.ops
		faults += bk.faults
		slows += bk.slows
	}
	since := now.Sub(b.lastMove)
	pressure := 0.0
	if ops > 0 {
		pressure = float64(faults+slows) / float64(ops)
	}
	switch {
	case ops >= int64(b.cfg.MinOps) && pressure >= b.cfg.TripRate && b.level < b.cfg.MaxLevel && since >= b.cfg.Cooldown:
		b.step(now, b.level+1, fmt.Sprintf("pressure %.2f over %d ops (faults=%d slow=%d)", pressure, ops, faults, slows))
	case b.level > LevelNormal && faults+slows == 0 && since >= b.cfg.Window:
		b.step(now, b.level-1, fmt.Sprintf("window clear (%d ops)", ops))
	}
}

// step records one transition. Callers hold b.mu.
func (b *Breaker) step(now time.Time, to Level, reason string) {
	b.events = append(b.events, DegradeEvent{From: b.level, To: to, Reason: reason})
	b.level = to
	b.lastMove = now
}

// Start launches the window ticker goroutine, which rotates the ring on a
// wall-clock cadence so pressure ages out even while the engine is stuck
// inside a long iteration (e.g. every read hedging against stalls). The
// cadence is one ring bucket. Stop must be called to halt it; Start while
// already running is a no-op.
func (b *Breaker) Start() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tickQuit != nil {
		return
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	b.tickQuit, b.tickDone = quit, done
	interval := b.cfg.Window / time.Duration(len(b.ring))
	go b.tickLoop(interval, quit, done)
}

// tickLoop is the window ticker: it rotates the breaker ring every
// interval and exits when quit closes.
func (b *Breaker) tickLoop(interval time.Duration, quit <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			b.Tick()
		case <-quit:
			return
		}
	}
}

// Stop halts the ticker goroutine started by Start and waits for it to
// exit. Idempotent; a breaker that was never started is a no-op.
func (b *Breaker) Stop() {
	b.mu.Lock()
	quit, done := b.tickQuit, b.tickDone
	b.tickQuit, b.tickDone = nil, nil
	b.mu.Unlock()
	if quit == nil {
		return
	}
	close(quit)
	<-done
}
