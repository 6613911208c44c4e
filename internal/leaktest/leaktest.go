// Package leaktest fails a package's tests when they leave goroutines
// running. Every goroutine the engine starts either belongs to a value
// whose Close/Finish waits for it — prefetch workers — is joined by the
// call that started it — row and column workers, a shard's phase of an
// iteration — or exits once the store answers the read it issued — a read
// attempt its deadline gave up on — so once a package's tests are done the goroutine
// count must return to where it started. No static check stands behind this
// one: a goroutine with no join or quit path is caught here, by the tests
// that start it, or not at all.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleTimeout bounds the wait for goroutines that are on their way out
// when the last test returns (a timed-out read attempt, an injected delay
// still sleeping).
const settleTimeout = 5 * time.Second

// runtimeOwned names the frames of goroutines the Go runtime starts on its
// own behalf and never stops; no test can leak or join them, so they are
// not counted.
var runtimeOwned = []string{
	// Started by the first signal.Notify of the process — `go test -fuzz`
	// installs an interrupt handler before the tests run.
	"os/signal.loop()",
}

// Main runs m's tests and exits with their status — or, when they passed
// but more goroutines are alive afterwards than before, with status 1 and a
// dump of every counted goroutine's stack. Call it from TestMain:
//
//	func TestMain(m *testing.M) { leaktest.Main(m) }
func Main(m *testing.M) {
	baseline := len(Live())
	code := m.Run()
	if code == 0 {
		if err := Check(baseline, settleTimeout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check waits until at most baseline goroutines (len(Live()) at an earlier
// moment) are alive; when the timeout passes first it returns an error
// carrying the stacks of those that are. A test calls it to pin a leak to
// itself instead of to its package.
func Check(baseline int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		live := Live()
		if len(live) <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leaktest: goroutine leak: %d live, %d before the tests\n%s", len(live), baseline, strings.Join(live, "\n\n"))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Live returns the stack of every goroutine alive now, runtimeOwned ones
// excepted. Goroutines are counted from the stack dump rather than with
// runtime.NumGoroutine so that what is counted is what is printed.
func Live() []string {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var live []string
next:
	for _, g := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		for _, frame := range runtimeOwned {
			if strings.Contains(g, frame) {
				continue next
			}
		}
		live = append(live, g)
	}
	return live
}
