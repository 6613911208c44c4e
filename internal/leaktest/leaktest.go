// Package leaktest fails a package's tests when they leave goroutines
// running. Every goroutine the engine starts either belongs to a value
// whose Close/Stop/Finish waits for it — prefetch workers, hedged reads, the
// breaker ticker — or is joined by the call that started it — row and
// column workers, a shard's phase of an iteration — so once a package's
// tests are done the goroutine count must return to where it started.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settleTimeout bounds the wait for goroutines that are on their way out
// when the last test returns (a hedged read's losing attempt, an injected
// delay still sleeping).
const settleTimeout = 5 * time.Second

// Main runs m's tests and exits with their status — or, when they passed
// but more goroutines are alive afterwards than before, with status 1 and a
// dump of every goroutine's stack. Call it from TestMain:
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
func Main(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if n := settle(baseline, settleTimeout); n > baseline {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "leaktest: goroutine leak: %d live, %d before the tests\n%s\n", n, baseline, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// settle waits until at most baseline goroutines are alive or the timeout
// passes, and returns the last count it saw.
func settle(baseline int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(20 * time.Millisecond)
	}
}
