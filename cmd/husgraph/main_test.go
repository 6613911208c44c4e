package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"husgraph/internal/experiments"
	"husgraph/internal/storage"
)

// TestExitCode pins the fault-class → exit-code mapping wrappers rely on:
// classification is by errors.Is over wrapped sentinels, and the most
// specific class wins when an error chain carries several.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"generic", errors.New("flag parse"), 1},
		{"transient wrapped", fmt.Errorf("read ib/0.0: %w", storage.ErrTransient), 2},
		{"permanent wrapped", fmt.Errorf("device: %w", storage.ErrPermanent), 3},
		{"corrupt wrapped", fmt.Errorf("block ob/1.2: %w", storage.ErrCorrupt), 4},
		{"corrupt beats permanent", fmt.Errorf("%w after %w", storage.ErrCorrupt, storage.ErrPermanent), 4},
		{"permanent beats transient", fmt.Errorf("%w then %w", storage.ErrTransient, storage.ErrPermanent), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exitCode(tc.err); got != tc.want {
				t.Fatalf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestShardsConfig drives -shards' two startup checks the way run() does:
// husOnly over the flags that were typed (-shards 1 is the default, so it
// is not), then shardsConfig over the value.
func TestShardsConfig(t *testing.T) {
	cases := []struct {
		name      string
		shards    int
		system    string
		p         int
		memBudget bool
		want      int
		errPart   string
	}{
		{name: "default off", shards: 1, system: "hus", p: 8, want: 1},
		{name: "zero means one", shards: 0, system: "hus", p: 8, want: 1},
		{name: "negative rejected", shards: -2, system: "hus", p: 8, errPart: "must be >= 1"},
		{name: "two over eight", shards: 2, system: "hus", p: 8, want: 2},
		{name: "non-divisor rejected", shards: 3, system: "hus", p: 8, errPart: "does not evenly divide"},
		{name: "baseline system rejected", shards: 2, system: "gridgraph", p: 8, errPart: "hus-only"},
		{name: "membudget defers divisibility", shards: 3, system: "hus", p: 8, memBudget: true, want: 3},
		{name: "shards 1 allowed on baselines", shards: 1, system: "xstream", p: 8, want: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := 0
			err := husOnly(tc.system, map[string]bool{"shards": tc.shards != 1})
			if err == nil {
				got, err = shardsConfig(tc.shards, tc.p, tc.memBudget)
			}
			wantErr(t, err, tc.errPart)
			if err == nil && got != tc.want {
				t.Fatalf("resolved K=%d, want %d", got, tc.want)
			}
		})
	}
}

// wantErr fails unless err is nil exactly when part is empty and mentions
// part otherwise.
func wantErr(t *testing.T, err error, part string) {
	t.Helper()
	if part == "" {
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	if err == nil {
		t.Fatalf("want error containing %q, got none", part)
	}
	//lint:ignore huslint/errclass the assertion is about the rendered flag-error text a user sees, not an error class the program branches on
	if !strings.Contains(err.Error(), part) {
		t.Fatalf("error %q does not mention %q", err, part)
	}
}

// TestHusOnly: every flag only the hus engine reads is a startup error
// naming itself when typed under another -system, and none is under hus;
// flags every system reads pass anywhere.
func TestHusOnly(t *testing.T) {
	type husCase struct {
		name    string
		system  string
		typed   []string
		errPart string
	}
	cases := []husCase{
		{name: "hus takes them all", system: "hus", typed: husOnlyFlags},
		{name: "nothing typed", system: "gridgraph"},
		{name: "shared flags pass", system: "xstream", typed: []string{"dataset", "algo", "device", "threads", "p", "trace", "valuesout", "delta"}},
	}
	for _, name := range husOnlyFlags {
		cases = append(cases, husCase{name: name, system: "graphchi", typed: []string{"dataset", name}, errPart: "-" + name + " is hus-only"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			explicit := map[string]bool{}
			for _, name := range tc.typed {
				explicit[name] = true
			}
			wantErr(t, husOnly(tc.system, explicit), tc.errPart)
		})
	}
}

// TestNeedsMet: a flag that only applies alongside another is a startup
// error naming both when typed without it, and passes once it is on.
func TestNeedsMet(t *testing.T) {
	cases := []struct {
		name    string
		typed   []string
		on      []string
		errPart string
	}{
		{name: "nothing typed"},
		{name: "resume without store", typed: []string{"resume"}, errPart: "-resume has no effect without -store"},
		{name: "resume with store", typed: []string{"resume", "store"}, on: []string{"store"}},
		{name: "backoff without retries", typed: []string{"retry-backoff"}, errPart: "-retry-backoff has no effect without -retries"},
		{name: "backoff with retries", typed: []string{"retry-backoff", "retries"}, on: []string{"retries"}},
		{name: "after without a fault count", typed: []string{"fault-after"}, errPart: "-fault-after has no effect without -fault-transient or -fault-bitflip"},
		{name: "seed without a fault count", typed: []string{"fault-seed"}, errPart: "-fault-seed has no effect without -fault-transient"},
		{name: "after and seed with a fault count", typed: []string{"fault-after", "fault-seed", "fault-bitflip"}, on: []string{"fault-bitflip"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			explicit, on := map[string]bool{}, map[string]bool{}
			for _, name := range tc.typed {
				explicit[name] = true
			}
			for _, name := range tc.on {
				on[name] = true
			}
			wantErr(t, needsMet(explicit, on), tc.errPart)
		})
	}
}

// TestRunRejectsOverriddenFlags drives run itself: a flag typed beside one
// that overrides it — -p beside a -membudget that chooses P, -dataset beside
// the -input that replaces it — is a startup error naming both, before a
// graph is built. A -membudget of 0 chooses nothing, so -p stands.
func TestRunRejectsOverriddenFlags(t *testing.T) {
	cases := []struct {
		args    []string
		errPart string
	}{
		{[]string{"-p", "4", "-membudget", "65536"}, "-p has no effect with -membudget"},
		{[]string{"-dataset", "uk-sim", "-input", "edges.txt"}, "-dataset has no effect with -input"},
		{[]string{"-p", "0", "-membudget", "0"}, "need at least one interval, got P = 0"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			err := run(tc.args)
			wantErr(t, err, tc.errPart)
			if code := exitCode(err); code != 1 {
				t.Fatalf("exit code %d, want 1", code)
			}
		})
	}
}

// TestRunRejectsBadNumbers drives run itself: a negative value for any
// numeric flag is a startup error naming the flag, before a graph is
// generated, and so is -p 0 under every -system (a baseline once ran it at
// P = 8), a -delta of NaN (which once ran delta-stepping to a wrong answer
// it called converged), and a -cache-mb past 2⁴³ − 1 (whose budget in bytes
// once wrapped and switched the cache off).
// -fault-seed takes any int64, so a negative seed gets as far as the check
// that it needs a fault count.
func TestRunRejectsBadNumbers(t *testing.T) {
	cases := []struct {
		args    []string
		errPart string
	}{
		{[]string{"-cache-mb", "-5"}, "-cache-mb -5: a negative value"},
		{[]string{"-prefetch", "-2"}, "-prefetch -2: a negative value"},
		{[]string{"-retries", "-1"}, "-retries -1: a negative value"},
		{[]string{"-checkpoint", "-2"}, "-checkpoint -2: a negative value"},
		{[]string{"-membudget", "-10"}, "-membudget -10: a negative value"},
		{[]string{"-threads", "-4"}, "-threads -4: a negative value"},
		{[]string{"-p", "-3"}, "-p -3: a negative value"},
		{[]string{"-shards", "-2"}, "-shards -2: a negative value"},
		{[]string{"-read-deadline", "-1ms"}, "-read-deadline -1ms: a negative value"},
		{[]string{"-delta", "-0.5", "-algo", "sssp-delta"}, "-delta -0.5: a negative value"},
		{[]string{"-delta", "NaN", "-algo", "sssp-delta"}, "-delta NaN: bucket width must be > 0"},
		{[]string{"-cache-mb", "17592186044416"}, "-cache-mb 17592186044416: above 8796093022207"},
		{[]string{"-system", "gridgraph", "-threads", "-1"}, "-threads -1: a negative value"},
		{[]string{"-fault-seed", "-7"}, "-fault-seed has no effect without"},
		{[]string{"-algo", "BFS", "-p", "0"}, "need at least one interval, got P = 0"},
		{[]string{"-system", "gridgraph", "-algo", "BFS", "-p", "0"}, "need at least one interval, got P = 0"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			wantErr(t, run(tc.args), tc.errPart)
		})
	}
}

// retiredFlagArgs, set in a child of TestRetiredFaultDelayFlags, holds the
// command line the child hands run.
const retiredFlagArgs = "HUSGRAPH_TEST_RETIRED_FLAG_ARGS"

// TestRetiredFaultDelayFlags: -fault-delay and -fault-delay-by are gone (a
// slow read is bounded by the -read-deadline timeout and retried; nothing
// duplicates it), so typing either fails flag parsing — exit 2 naming the
// flag — before a graph is generated. The flag set exits the process on a
// parse error, so each command line runs in a child of the test binary.
func TestRetiredFaultDelayFlags(t *testing.T) {
	if args := os.Getenv(retiredFlagArgs); args != "" {
		run(strings.Fields(args))
		os.Exit(0)
	}
	for _, args := range []string{"-fault-delay 5", "-fault-delay-by 1ms"} {
		t.Run(args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestRetiredFaultDelayFlags$")
			cmd.Env = append(os.Environ(), retiredFlagArgs+"="+args)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("husgraph %s: %v, want exit 2\n%s", args, err, out)
			}
			if want := "flag provided but not defined: " + strings.Fields(args)[0]; !strings.Contains(string(out), want) {
				t.Fatalf("husgraph %s printed\n%s\nwant %q", args, out, want)
			}
		})
	}
}

// TestSummaryLabel: the summary names the graph that was processed — the
// -input path, not the -dataset default — and the canonical algorithm name,
// not the flag as typed.
func TestSummaryLabel(t *testing.T) {
	algo, err := experiments.AlgoByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, dataset, input, want string
	}{
		{"registry dataset", "uk-sim", "", "BFS / hus on uk-sim (ssd)"},
		{"input file beats the dataset default", "livejournal-sim", "edges.txt", "BFS / hus on edges.txt (ssd)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := summaryLabel(algo.Name, "hus", tc.dataset, tc.input, "ssd"); got != tc.want {
				t.Fatalf("summaryLabel = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestRunMixedMultigraph drives run over an edge file with a repeated edge:
// a mixed store keeps the parallel edge as a zero gap, so the run returns
// no error — main exits 0 — where the varint encoder once panicked (exit 2
// with a Go stack); so does the raw store's.
func TestRunMixedMultigraph(t *testing.T) {
	input := filepath.Join(t.TempDir(), "e.txt")
	//lint:ignore huslint/rawio the test writes the user's -input edge-list text file, which no store holds
	if err := os.WriteFile(input, []byte("0 1\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"mixed", "raw"} {
		if err := run([]string{"-input", input, "-algo", "BFS", "-format", format, "-p", "2"}); err != nil {
			t.Fatalf("-format %s: %v", format, err)
		}
	}
}
