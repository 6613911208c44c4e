package leaktest

import (
	"runtime"
	"testing"
	"time"
)

func TestSettle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()
	if n := settle(baseline, 50*time.Millisecond); n != baseline+1 {
		t.Fatalf("parked goroutine not reported: %d live, baseline %d", n, baseline)
	}
	close(stop)
	<-done
	if n := settle(baseline, settleTimeout); n > baseline {
		t.Fatalf("exited goroutine still reported: %d live, baseline %d", n, baseline)
	}
}
