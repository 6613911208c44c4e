package leaktest

import (
	"os"
	"os/signal"
	"strings"
	"testing"
	"time"
)

// TestSettle: a goroutine on its way out when the tests end is waited for,
// not reported.
func TestSettle(t *testing.T) {
	baseline := len(Live())
	go time.Sleep(100 * time.Millisecond)
	if err := Check(baseline, settleTimeout); err != nil {
		t.Fatalf("exiting goroutine reported: %v", err)
	}
}

func parked(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	<-stop
}

func TestSeesParkedGoroutine(t *testing.T) {
	baseline := len(Live())
	stop, done := make(chan struct{}), make(chan struct{})
	go parked(stop, done)
	err := Check(baseline, 50*time.Millisecond)
	if err == nil {
		t.Fatal("parked goroutine not reported")
	}
	if msg := err.Error(); !strings.Contains(msg, "goroutine leak: ") || !strings.Contains(msg, "leaktest.parked(") {
		t.Fatalf("leak report does not carry the parked goroutine's stack:\n%s", msg)
	}
	close(stop)
	<-done
	if err := Check(baseline, settleTimeout); err != nil {
		t.Fatalf("exited goroutine still reported: %v", err)
	}
}

// TestIgnoresSignalLoop: the first signal.Notify of a process starts a
// runtime goroutine that never exits (the fuzz coordinator does this before
// any test runs); it is nobody's leak.
func TestIgnoresSignalLoop(t *testing.T) {
	baseline := len(Live())
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	defer signal.Stop(c)
	if err := Check(baseline, 50*time.Millisecond); err != nil {
		t.Fatalf("os/signal's loop goroutine reported as a leak: %v", err)
	}
}
