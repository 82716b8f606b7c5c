package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/search"
)

// TestDecisionLogKillResumeByteIdentical is the acceptance test for the
// decision telemetry stream's determinism contract (see
// search/decision.go): the stream must be byte-identical at every
// parallelism level, and a tune killed after ANY number of evaluations
// and resumed with -resume must leave a decision log byte-identical to
// an uninterrupted run's — the resumed search replays the journaled
// proposals from round 1 and rewrites the recreated stream in full.
func TestDecisionLogKillResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	refJournal := filepath.Join(dir, "ref.jsonl")
	refDecisions := filepath.Join(dir, "ref.decisions")
	res, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: refJournal, DecisionPath: refDecisions})
	if err != nil || fault != nil {
		t.Fatalf("reference run: err=%v fault=%v", err, fault)
	}
	refBytes, err := os.ReadFile(refDecisions)
	if err != nil {
		t.Fatal(err)
	}
	if len(refBytes) == 0 {
		t.Fatal("reference decision log is empty")
	}
	total := len(res.Outcome.Log.Evals)

	// Parallelism invariance: the stream derives only from the
	// deterministic evaluation log, which is identical at any -par.
	parJournal := filepath.Join(dir, "par8.jsonl")
	parDecisions := filepath.Join(dir, "par8.decisions")
	if _, err, fault := runJournaled(t, Options{Seed: 1, Parallelism: 8, JournalPath: parJournal, DecisionPath: parDecisions}); err != nil || fault != nil {
		t.Fatalf("par=8 run: err=%v fault=%v", err, fault)
	}
	if got, _ := os.ReadFile(parDecisions); string(got) != string(refBytes) {
		t.Errorf("par=8 decision log differs from par=1 (%d vs %d bytes)", len(got), len(refBytes))
	}

	for _, par := range []int{1, 8} {
		for _, kill := range []int{0, 1, total / 2, total - 1} {
			name := fmt.Sprintf("p%dk%d", par, kill)
			journalPath := filepath.Join(dir, name+".jsonl")
			decisionPath := filepath.Join(dir, name+".decisions")
			_, err, fault := runJournaled(t, Options{
				Seed: 1, Parallelism: par,
				JournalPath: journalPath, DecisionPath: decisionPath,
				WrapEvaluator: func(inner search.Evaluator) search.Evaluator {
					return &search.FaultInjector{Inner: inner, Limit: int64(kill)}
				},
			})
			if err != nil {
				t.Fatalf("par=%d kill=%d: unexpected error %v", par, kill, err)
			}
			if fault == nil {
				t.Fatalf("par=%d kill=%d: fault did not fire", par, kill)
			}

			if _, err, fault := runJournaled(t, Options{
				Seed: 1, Parallelism: par, Resume: true,
				JournalPath: journalPath, DecisionPath: decisionPath,
			}); err != nil || fault != nil {
				t.Fatalf("par=%d kill=%d: resume failed: err=%v fault=%v", par, kill, err, fault)
			}
			got, err := os.ReadFile(decisionPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(refBytes) {
				t.Errorf("par=%d kill=%d: resumed decision log differs from uninterrupted run's (%d vs %d bytes)",
					par, kill, len(got), len(refBytes))
			}
		}
	}
}

// TestDecisionsDoNotPerturbJournal: streaming decision telemetry must
// not change a single journal byte — the decision sidecar is derived
// state, the journal is ground truth.
func TestDecisionsDoNotPerturbJournal(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.jsonl")
	if _, err, fault := runJournaled(t, Options{Seed: 1, JournalPath: plain}); err != nil || fault != nil {
		t.Fatalf("err=%v fault=%v", err, fault)
	}
	withDec := filepath.Join(dir, "dec.jsonl")
	if _, err, fault := runJournaled(t, Options{
		Seed: 1, JournalPath: withDec, DecisionPath: filepath.Join(dir, "dec.decisions"),
	}); err != nil || fault != nil {
		t.Fatalf("err=%v fault=%v", err, fault)
	}
	a, _ := os.ReadFile(plain)
	b, _ := os.ReadFile(withDec)
	if string(a) != string(b) {
		t.Errorf("enabling decision telemetry changed journal bytes (%d vs %d)", len(a), len(b))
	}
}

// TestLedgerManifestArchived: a tune with LedgerDir set archives a
// loadable, self-consistent manifest whose decision digest matches the
// decision file actually on disk.
func TestLedgerManifestArchived(t *testing.T) {
	dir := t.TempDir()
	ledDir := filepath.Join(dir, "ledger")
	decisionPath := filepath.Join(dir, "j.jsonl.decisions")
	tn, err := New(models.Funarc(), Options{
		Seed:         1,
		JournalPath:  filepath.Join(dir, "j.jsonl"),
		DecisionPath: decisionPath,
		LedgerDir:    ledDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	led := ledger.Open(ledDir)
	entries, _, err := led.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ledger lists %d runs, want 1", len(entries))
	}
	m, err := led.Get(entries[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.Model != "funarc" || m.Outcome != "completed" || !m.Converged {
		t.Errorf("manifest model/outcome/converged = %s/%s/%v", m.Model, m.Outcome, m.Converged)
	}
	if m.Evaluations != len(res.Outcome.Log.Evals) {
		t.Errorf("manifest evaluations %d, want %d", m.Evaluations, len(res.Outcome.Log.Evals))
	}
	if m.Fingerprint != tn.Fingerprint() {
		t.Error("manifest fingerprint differs from the tuner's")
	}
	if id, err := m.ComputeID(); err != nil || id != m.ID {
		t.Errorf("manifest is not content-addressed: stored %s, recomputed %s (err=%v)", m.ID, id, err)
	}

	// The archived digest must be the digest of the bytes on disk.
	raw, err := os.ReadFile(decisionPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); m.DecisionDigest != got {
		t.Errorf("manifest decision digest %s, file digest %s", m.DecisionDigest, got)
	}
	if m.DecisionEvents == 0 {
		t.Error("manifest records zero decision events")
	}

	// Prefix resolution and a second archived run.
	if _, err := led.Get(entries[0].ID[:10]); err != nil {
		t.Errorf("prefix lookup failed: %v", err)
	}
	tn2, err := New(models.Funarc(), Options{Seed: 1, MaxEvaluations: 3, LedgerDir: ledDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn2.Run(nil); err != nil {
		t.Fatal(err)
	}
	entries, _, err = led.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("ledger lists %d runs after second tune, want 2", len(entries))
	}
	if entries[0].ID == entries[1].ID {
		t.Error("two different runs share a content address")
	}
}
