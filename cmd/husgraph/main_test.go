package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

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
			got, err := shardsConfig(tc.shards, tc.system, tc.p, tc.memBudget)
			if tc.errPart != "" {
				if err == nil {
					t.Fatalf("want error containing %q, got K=%d", tc.errPart, got)
				}
				//lint:ignore huslint/errclass the assertion is about the rendered flag-error text a user sees, not an error class the program branches on
				if !strings.Contains(err.Error(), tc.errPart) {
					t.Fatalf("error %q does not mention %q", err, tc.errPart)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("resolved K=%d, want %d", got, tc.want)
			}
		})
	}
}
