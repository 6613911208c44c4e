package resilience

import (
	"testing"
	"time"
)

// clock is a manual test clock; the breaker only moves when we advance it.
type clock struct{ t time.Time }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *clock                   { return &clock{t: time.Unix(1000, 0)} }
func cfg(c *clock, slow time.Duration) Config {
	return Config{
		Window:        100 * time.Millisecond,
		Buckets:       5,
		TripRate:      0.5,
		MinOps:        4,
		SlowThreshold: slow,
		Now:           c.now,
	}
}

func TestBreakerStartsNormal(t *testing.T) {
	b := NewBreaker(Config{})
	if got := b.Level(); got != LevelNormal {
		t.Fatalf("initial level = %v, want normal", got)
	}
	if evs := b.TakeEvents(); len(evs) != 0 {
		t.Fatalf("initial events = %v, want none", evs)
	}
}

func TestBreakerIgnoresPressureBelowMinOps(t *testing.T) {
	c := newClock()
	b := NewBreaker(cfg(c, 0))
	// Three faults in a row: 100% pressure, but under MinOps=4.
	for i := 0; i < 3; i++ {
		b.Observe(time.Millisecond, true)
		c.advance(time.Millisecond)
	}
	if got := b.Level(); got != LevelNormal {
		t.Fatalf("level after 3 faults = %v, want normal (MinOps gate)", got)
	}
}

func TestBreakerDescendsOneRungPerCooldown(t *testing.T) {
	c := newClock()
	b := NewBreaker(cfg(c, 0))
	// Sustained 100% fault rate: the ladder must descend one rung per
	// cooldown (50ms), never skipping.
	var last Level
	for i := 0; i < 300 && last < LevelBypass; i++ {
		b.Observe(time.Millisecond, true)
		c.advance(5 * time.Millisecond)
		last = b.Level()
	}
	if last != LevelBypass {
		t.Fatalf("sustained storm bottomed out at %v, want bypass", last)
	}
	evs := b.TakeEvents()
	if len(evs) != int(LevelBypass) {
		t.Fatalf("got %d events, want %d", len(evs), int(LevelBypass))
	}
	for i, ev := range evs {
		if ev.From != Level(i) || ev.To != Level(i+1) {
			t.Fatalf("event %d = %v→%v, want %v→%v (no rung skipping)", i, ev.From, ev.To, Level(i), Level(i+1))
		}
	}
}

func TestBreakerReArmsAfterClearWindow(t *testing.T) {
	c := newClock()
	b := NewBreaker(cfg(c, 0))
	// Storm to the bottom…
	for i := 0; i < 300 && b.Level() < LevelBypass; i++ {
		b.Observe(time.Millisecond, true)
		c.advance(5 * time.Millisecond)
	}
	if b.Level() != LevelBypass {
		t.Fatalf("storm did not reach bypass: %v", b.Level())
	}
	b.TakeEvents()
	// …then clean traffic: one rung back per clear window.
	for i := 0; i < 500 && b.Level() > LevelNormal; i++ {
		b.Observe(time.Millisecond, false)
		c.advance(5 * time.Millisecond)
	}
	if got := b.Level(); got != LevelNormal {
		t.Fatalf("breaker did not re-arm, level = %v", got)
	}
	evs := b.TakeEvents()
	if len(evs) != int(LevelBypass) {
		t.Fatalf("re-arm events = %d, want %d", len(evs), int(LevelBypass))
	}
	for _, ev := range evs {
		if ev.To != ev.From-1 {
			t.Fatalf("re-arm event %v→%v skips rungs", ev.From, ev.To)
		}
	}
}

func TestBreakerCountsSlowReadsAsPressure(t *testing.T) {
	c := newClock()
	b := NewBreaker(cfg(c, 10*time.Millisecond))
	// No faults, but every read blows the slow threshold.
	for i := 0; i < 40 && b.Level() == LevelNormal; i++ {
		b.Observe(20*time.Millisecond, false)
		c.advance(5 * time.Millisecond)
	}
	if got := b.Level(); got == LevelNormal {
		t.Fatalf("slow-only pressure never tripped the breaker")
	}
}

func TestBreakerTickAgesPressureOut(t *testing.T) {
	c := newClock()
	b := NewBreaker(cfg(c, 0))
	for i := 0; i < 40 && b.Level() == LevelNormal; i++ {
		b.Observe(time.Millisecond, true)
		c.advance(5 * time.Millisecond)
	}
	if b.Level() == LevelNormal {
		t.Fatalf("storm never tripped")
	}
	// Idle ticks only — no observations at all — must still re-arm all
	// the way (the ring may first descend further while the storm's
	// buckets age out; that is fine).
	for i := 0; i < 1000 && b.Level() != LevelNormal; i++ {
		c.advance(5 * time.Millisecond)
		b.Tick()
	}
	if got := b.Level(); got != LevelNormal {
		t.Fatalf("idle ticks did not age pressure out (level %v)", got)
	}
}

func TestBreakerTickerStartStop(t *testing.T) {
	b := NewBreaker(Config{Window: 10 * time.Millisecond, Buckets: 2})
	b.Start()
	b.Start() // idempotent
	time.Sleep(20 * time.Millisecond)
	b.Stop()
	b.Stop() // idempotent
}

func TestLevelAndEventStrings(t *testing.T) {
	names := map[Level]string{
		LevelNormal:     "normal",
		LevelNoPrefetch: "no-prefetch",
		LevelBypass:     "bypass",
	}
	for lvl, want := range names {
		if got := lvl.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(lvl), got, want)
		}
	}
	ev := DegradeEvent{Iter: 3, From: LevelNormal, To: LevelNoPrefetch, Reason: "r"}
	if s := ev.String(); s == "" {
		t.Errorf("empty event string")
	}
}
