package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/resilience"
	"repro/internal/search"
)

func TestSplitList(t *testing.T) {
	cases := map[string][]string{
		"":          nil,
		"a":         {"a"},
		"a,b":       {"a", "b"},
		" a , ,b, ": {"a", "b"},
	}
	for in, want := range cases {
		got := splitList(in)
		if len(got) != len(want) {
			t.Errorf("splitList(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("splitList(%q)[%d] = %q, want %q", in, i, got[i], want[i])
			}
		}
	}
}

func TestGetModelErrors(t *testing.T) {
	if _, err := getModel("nope"); err == nil {
		t.Error("unknown model accepted")
	}
	if m, err := getModel("mpas-a"); err != nil || m.Name != "mpas-a" {
		t.Errorf("getModel(mpas-a) = %v, %v", m, err)
	}
}

func TestCommandErrorPaths(t *testing.T) {
	if err := cmdReduce([]string{"-model", "funarc"}); err == nil {
		t.Error("reduce without -targets accepted")
	}
	if err := cmdReduce([]string{"-model", "funarc", "-targets", "ghost.var"}); err == nil {
		t.Error("reduce with unknown target accepted")
	}
	if err := cmdAtoms([]string{"-model", "nope"}); err == nil {
		t.Error("atoms with unknown model accepted")
	}
	if err := cmdVariant([]string{"-model", "funarc", "-lower", "no.such.atom"}); err == nil {
		t.Error("variant with unknown atom accepted")
	}
}

func TestTuneFlagValidation(t *testing.T) {
	if err := cmdTune([]string{"-model", "funarc", "-resume"}); err == nil {
		t.Error("-resume without -journal accepted")
	}
}

func TestTuneJournalResumeCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "funarc.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", path}); err != nil {
		t.Fatalf("tune with journal: %v", err)
	}
	// Re-running without -resume must refuse to clobber the journal…
	if err := cmdTune([]string{"-model", "funarc", "-journal", path}); err == nil {
		t.Error("existing journal clobbered without -resume")
	}
	// …while -resume replays it, at any parallelism level.
	if err := cmdTune([]string{"-model", "funarc", "-journal", path, "-resume", "-par", "4"}); err != nil {
		t.Errorf("resume: %v", err)
	}
}

func TestCommandHappyPaths(t *testing.T) {
	if err := cmdModels(); err != nil {
		t.Errorf("models: %v", err)
	}
	if err := cmdAtoms([]string{"-model", "funarc"}); err != nil {
		t.Errorf("atoms: %v", err)
	}
	if err := cmdVariant([]string{"-model", "funarc", "-lower", "all",
		"-keep", "funarc_mod.funarc.s1", "-diff"}); err != nil {
		t.Errorf("variant: %v", err)
	}
	if err := cmdReduce([]string{"-model", "funarc", "-targets", "funarc_mod.fun.d1"}); err != nil {
		t.Errorf("reduce: %v", err)
	}
}

// TestExitCodeFor: each failure class maps to its documented exit code
// (see docs/resilience.md), including through error wrapping.
func TestExitCodeFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("boom"), exitErr},
		{&resilience.AbortError{Reason: resilience.AbortBreaker}, exitBreaker},
		{fmt.Errorf("wrapped: %w", &resilience.AbortError{Reason: resilience.AbortQuarantine}), exitQuarantine},
		{search.NewCancelled(nil), exitCancelled},
		{fmt.Errorf("wrapped: %w", search.NewCancelled(nil)), exitCancelled},
	}
	for _, c := range cases {
		if got := exitCodeFor(c.err); got != c.want {
			t.Errorf("exitCodeFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestTuneWallBudgetCancelsAndResumes: a tune whose wall-clock budget
// expires stops in an orderly fashion — *search.Cancelled error, exit
// code 5 — and leaves a journal that -resume completes.
func TestTuneWallBudgetCancelsAndResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "funarc.jsonl")
	err := cmdTune([]string{"-model", "funarc", "-journal", path, "-wall-budget", "10ms"})
	var ce *search.Cancelled
	if !errors.As(err, &ce) {
		t.Fatalf("tune under a 10ms wall budget returned %v, want *search.Cancelled", err)
	}
	if got := exitCodeFor(err); got != exitCancelled {
		t.Errorf("exit code %d, want %d", got, exitCancelled)
	}
	if err := cmdTune([]string{"-model", "funarc", "-journal", path, "-resume"}); err != nil {
		t.Errorf("resume after wall-budget stop: %v", err)
	}
}

// TestTuneDeadlineFlagsCLI: the new deadline/resilience flags parse and
// a watchdogged, half-open, per-class-budgeted tune runs clean; bad
// -retries-by-class syntax is rejected.
func TestTuneDeadlineFlagsCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "funarc.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", path,
		"-retries", "1", "-retries-by-class", "scheduler-kill=2,oom=1,hang=1",
		"-watchdog", "30s", "-breaker", "3", "-breaker-halfopen",
		"-drain-grace", "1s", "-retry-backoff", "1ns"}); err != nil {
		t.Fatalf("deadline-flagged tune: %v", err)
	}
	if err := cmdTune([]string{"-model", "funarc", "-retries-by-class", "oom"}); err == nil {
		t.Error("malformed -retries-by-class accepted")
	}
}

// TestJournalInspectCLI: prose journal reads a journal, its checkpoint,
// and its events sidecar without needing the tuner's fingerprint.
func TestJournalInspectCLI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "funarc.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", path,
		"-retries", "1", "-retry-backoff", "1ns"}); err != nil {
		t.Fatalf("tune: %v", err)
	}
	if err := cmdJournal([]string{path}); err != nil {
		t.Errorf("journal <path>: %v", err)
	}
	if err := cmdJournal([]string{"-records", "-journal", path}); err != nil {
		t.Errorf("journal -records: %v", err)
	}
	if err := cmdJournal([]string{filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("missing journal accepted")
	}
	if err := cmdJournal(nil); err == nil {
		t.Error("journal without a path accepted")
	}
}

// TestTuneResilienceFlagsCLI: the resilience knobs parse, a supervised
// tune runs clean, and -resume interoperates with a journal recorded
// under a different retry policy (the knobs are not fingerprinted).
func TestTuneResilienceFlagsCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "funarc.jsonl")
	if err := cmdTune([]string{"-model", "funarc", "-journal", path,
		"-retries", "2", "-breaker", "5", "-retry-backoff", "1ns"}); err != nil {
		t.Fatalf("supervised tune: %v", err)
	}
	if err := cmdTune([]string{"-model", "funarc", "-journal", path, "-resume"}); err != nil {
		t.Errorf("unsupervised resume of supervised journal: %v", err)
	}
	if err := cmdTune([]string{"-model", "funarc", "-journal", path, "-resume", "-breaker", "1"}); err != nil {
		t.Errorf("-breaker 1 resume: %v", err)
	}
}
