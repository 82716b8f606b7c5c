package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ledger"
)

// TestLedgerCLI drives the full cross-run flow end to end: two tunes
// archived into one ledger, `prose runs` listing and detail, and
// `prose compare` in both the pass and the forced-regression direction.
func TestLedgerCLI(t *testing.T) {
	dir := t.TempDir()
	led := filepath.Join(dir, "ledger")

	// Run A: the full funarc search. Run B: starved to 3 evaluations,
	// which deterministically loses the passing variant and convergence.
	if err := cmdTune([]string{"-model", "funarc", "-journal", filepath.Join(dir, "a.jsonl"), "-ledger", led}); err != nil {
		t.Fatalf("tune A: %v", err)
	}
	if err := cmdTune([]string{"-model", "funarc", "-budget", "3", "-journal", filepath.Join(dir, "b.jsonl"), "-ledger", led}); err != nil {
		t.Fatalf("tune B: %v", err)
	}

	var rerr error
	out := captureStdout(t, func() { rerr = cmdRuns([]string{"-ledger", led}) })
	if rerr != nil {
		t.Fatalf("runs: %v", rerr)
	}
	if !strings.Contains(out, "2 run(s)") {
		t.Errorf("runs did not list both runs:\n%s", out)
	}

	store, err := ledger.Open(led)
	if err != nil {
		t.Fatal(err)
	}
	entries, unreadable, err := store.List()
	if err != nil || len(entries) != 2 || unreadable != 0 {
		t.Fatalf("List: %d entries, %d unreadable, err=%v", len(entries), unreadable, err)
	}
	idA, idB := entries[0].ID, entries[1].ID

	// A manifest that cannot be loaded does not hide the others.
	if err := os.WriteFile(filepath.Join(led, "runs", "bad.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() { rerr = cmdRuns([]string{"-ledger", led}) })
	if rerr != nil || !strings.Contains(out, "2 run(s)") {
		t.Errorf("runs beside an unreadable manifest: err=%v\n%s", rerr, out)
	}
	if _, unreadable, _ := store.List(); unreadable != 1 {
		t.Errorf("List counts %d unreadable manifests, want 1", unreadable)
	}

	// JSON listing parses and is filterable by model.
	out = captureStdout(t, func() { rerr = cmdRuns([]string{"-ledger", led, "-format", "json", "-model", "funarc"}) })
	if rerr != nil {
		t.Fatalf("runs -format json: %v", rerr)
	}
	var listed []ledger.Entry
	if err := json.Unmarshal([]byte(out), &listed); err != nil || len(listed) != 2 {
		t.Fatalf("json listing: %d entries, err=%v\n%s", len(listed), err, out)
	}
	out = captureStdout(t, func() { rerr = cmdRuns([]string{"-ledger", led, "-model", "mom6"}) })
	if rerr != nil || !strings.Contains(out, "0 run(s)") {
		t.Errorf("model filter: err=%v\n%s", rerr, out)
	}

	// Run detail by unique prefix includes the manifest and the funnel.
	out = captureStdout(t, func() { rerr = cmdRuns([]string{"-ledger", led, idA[:12]}) })
	if rerr != nil {
		t.Fatalf("runs <id>: %v", rerr)
	}
	for _, want := range []string{"fingerprint", "search funnel", "round  cands"} {
		if !strings.Contains(out, want) {
			t.Errorf("run detail misses %q:\n%s", want, out)
		}
	}

	// The standalone funnel reader works straight off the decision file.
	out = captureStdout(t, func() { rerr = cmdRuns([]string{"-decisions", filepath.Join(dir, "a.jsonl.decisions")}) })
	if rerr != nil || !strings.Contains(out, "round  cands") {
		t.Errorf("runs -decisions: err=%v\n%s", rerr, out)
	}

	// Pass direction: a run against itself.
	out = captureStdout(t, func() { rerr = cmdCompare([]string{"-ledger", led, idA, idA}) })
	if rerr != nil {
		t.Errorf("self-compare regressed: %v\n%s", rerr, out)
	}
	if !strings.Contains(out, "result: PASS") {
		t.Errorf("self-compare output:\n%s", out)
	}

	// Forced regression: the starved run against the full run.
	out = captureStdout(t, func() { rerr = cmdCompare([]string{"-ledger", led, idA, idB}) })
	if rerr == nil {
		t.Fatalf("regression not flagged:\n%s", out)
	}
	var reg *regressionError
	if !errors.As(rerr, &reg) {
		t.Fatalf("compare returned %T, want *regressionError", rerr)
	}
	if got := exitCodeFor(rerr); got != exitRegression {
		t.Errorf("exit code %d, want %d", got, exitRegression)
	}
	if !strings.Contains(out, "result: REGRESSION") {
		t.Errorf("regression output:\n%s", out)
	}

	// JSON comparison parses and carries the regression list.
	out = captureStdout(t, func() { rerr = cmdCompare([]string{"-ledger", led, "-format", "json", idA, idB}) })
	if rerr == nil {
		t.Error("json compare lost the regression")
	}
	var cmp ledger.Comparison
	if err := json.Unmarshal([]byte(out), &cmp); err != nil || len(cmp.Regressions) == 0 {
		t.Errorf("json comparison: err=%v regressions=%v", err, cmp.Regressions)
	}

	// Usage errors.
	if err := cmdRuns(nil); err == nil {
		t.Error("runs without -ledger accepted")
	}
	if err := cmdCompare([]string{"-ledger", led, idA}); err == nil {
		t.Error("compare with one run accepted")
	}
	if err := cmdCompare([]string{"-ledger", led, idA, "no-such-run"}); err == nil {
		t.Error("compare with an unknown run accepted")
	}
}

// TestObsCLIHardening: `prose trace`, `prose journal` (text and json),
// and the ledger readers must reject empty or truncated input files
// with a graceful error — exit code 1, never a panic.
func TestObsCLIHardening(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("{\"truncated\": [1, 2"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func(path string) error
	}{
		{"trace", func(p string) error { return cmdTrace([]string{p}) }},
		{"journal-text", func(p string) error { return cmdJournal([]string{p}) }},
		{"journal-json", func(p string) error { return cmdJournal([]string{"-format", "json", p}) }},
		{"runs-decisions", func(p string) error { return cmdRuns([]string{"-decisions", p}) }},
		{"compare-manifests", func(p string) error { return cmdCompare([]string{p, p}) }},
	}
	for _, tc := range cases {
		for _, input := range []string{empty, garbage} {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s on %s panicked: %v", tc.name, filepath.Base(input), r)
					}
				}()
				return tc.run(input)
			}()
			if err == nil {
				t.Errorf("%s accepted %s", tc.name, filepath.Base(input))
				continue
			}
			if got := exitCodeFor(err); got != exitErr {
				t.Errorf("%s on %s: exit code %d, want %d (err: %v)", tc.name, filepath.Base(input), got, exitErr, err)
			}
		}
	}
}

// TestJournalTextTruncatedTail: a journal whose final line was torn by
// a crash still inspects cleanly (the torn tail is dropped by design),
// in both text and JSON form.
func TestJournalTextTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", path}); err != nil {
		t.Fatalf("tune: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdJournal([]string{path}); err != nil {
		t.Errorf("journal on torn tail: %v", err)
	}
	out := captureStdout(t, func() { err = cmdJournal([]string{"-format", "json", path}) })
	if err != nil {
		t.Errorf("journal -format json on torn tail: %v", err)
	}
	if !json.Valid([]byte(out)) {
		t.Error("torn-tail JSON dump is not valid JSON")
	}
}
