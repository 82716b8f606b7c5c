package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/transform"
)

func TestFingerprintLengthPrefixed(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("different part splits of the same bytes collide")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Error("fingerprint not deterministic")
	}
	if Fingerprint("x") == Fingerprint("y") {
		t.Error("distinct inputs collide")
	}
}

func mkHeader(fp string) Header {
	return Header{Fingerprint: fp, Model: "fake"}
}

func mkRecord(fp string, idx int) Record {
	akey := fmt.Sprintf("m.p.v%02d;", idx)
	return Record{
		Key: RecordKey(fp, akey), AKey: akey, Index: idx,
		Status: "pass", Speedup: 1.5, RelError: 1e-7, Lowered: idx, TotalAtoms: 8,
	}
}

func TestCreateRefusesExistingRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path, mkHeader("fp1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(mkRecord("fp1", 1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Create(path, mkHeader("fp1")); err == nil {
		t.Error("Create overwrote a journal holding evaluations")
	}
	// A header-only journal (no evaluations lost) may be recreated.
	empty := filepath.Join(t.TempDir(), "e.jsonl")
	je, err := Create(empty, mkHeader("fp1"))
	if err != nil {
		t.Fatal(err)
	}
	je.Close()
	if _, err := Create(empty, mkHeader("fp2")); err != nil {
		t.Errorf("Create refused a record-free journal: %v", err)
	}
	// A file Create cannot parse may hold records it cannot see, so it
	// is refused and left as it was.
	garbage := filepath.Join(t.TempDir(), "g.jsonl")
	if err := os.WriteFile(garbage, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(garbage, mkHeader("fp1")); err == nil {
		t.Error("Create overwrote a file it cannot parse")
	}
	if b, _ := os.ReadFile(garbage); string(b) != "not a journal\n" {
		t.Errorf("refused file changed to %q", b)
	}
}

func TestOpenRejectsCorruptRecordKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path, mkHeader("fp1"))
	if err != nil {
		t.Fatal(err)
	}
	r := mkRecord("fp1", 1)
	r.Key = RecordKey("other-fp", r.AKey) // copied from another journal
	if err := j.Append(r); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(path, mkHeader("fp1")); err == nil {
		t.Error("record with a foreign content key accepted")
	}
}

func TestOpenRejectsSplicedIndices(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path, mkHeader("fp1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(mkRecord("fp1", 2)); err != nil { // starts at 2, not 1
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(path, mkHeader("fp1")); err == nil {
		t.Error("journal with non-contiguous indices accepted")
	}
}

func TestCheckpointRoundTripAndValidation(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j.jsonl")
	cpath := CheckpointPath(jpath)
	if cpath != jpath+".ckpt" {
		t.Errorf("checkpoint path %q", cpath)
	}
	if _, ok, err := LoadCheckpoint(cpath); err != nil || ok {
		t.Fatalf("missing checkpoint: ok=%v err=%v", ok, err)
	}
	c := Checkpoint{Fingerprint: "fp1", Model: "fake", Evaluations: 2, Done: true, Converged: true, Minimal: []string{"m.p.v01"}}
	if err := SaveCheckpoint(cpath, c); err != nil {
		t.Fatal(err)
	}
	// Atomic replacement: a second save fully replaces the first.
	c.Evaluations = 5
	if err := SaveCheckpoint(cpath, c); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadCheckpoint(cpath)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if got.Evaluations != 5 || !got.Done || !got.Converged || len(got.Minimal) != 1 {
		t.Errorf("checkpoint round-trip: %+v", got)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}

	j, err := Create(jpath, mkHeader("fp1"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := j.Append(mkRecord("fp1", i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2, err := Open(jpath, mkHeader("fp1"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// Checkpoint claims 5 evaluations but the journal holds 2.
	if err := ValidateCheckpoint(got, j2); err == nil {
		t.Error("checkpoint leading the journal accepted")
	}
	got.Evaluations = 2
	if err := ValidateCheckpoint(got, j2); err != nil {
		t.Errorf("consistent checkpoint rejected: %v", err)
	}
	got.Fingerprint = "other"
	if err := ValidateCheckpoint(got, j2); err == nil {
		t.Error("foreign checkpoint accepted")
	}
}

func TestRecordEvaluationRoundTrip(t *testing.T) {
	ev := &search.Evaluation{
		Assignment: transform.Assignment{"m.p.x": 4, "m.p.y": 8},
		Status:     search.StatusTimeout,
		Speedup:    1.0625, RelError: 3.14e-9,
		Lowered: 1, TotalAtoms: 2, Detail: "wrappers=2 casts=7", Index: 9,
	}
	r := FromEvaluation("fp", ev)
	if r.AKey != ev.Assignment.Key() || r.Key != RecordKey("fp", r.AKey) {
		t.Errorf("record keys wrong: %+v", r)
	}
	back, err := r.Evaluation()
	if err != nil {
		t.Fatal(err)
	}
	if back.Status != ev.Status || back.Speedup != ev.Speedup || back.RelError != ev.RelError ||
		back.Lowered != ev.Lowered || back.TotalAtoms != ev.TotalAtoms ||
		back.Detail != ev.Detail || back.Index != ev.Index {
		t.Errorf("evaluation round-trip lost data: %+v vs %+v", back, ev)
	}
	r.Status = "exploded"
	if _, err := r.Evaluation(); err == nil {
		t.Error("unknown status accepted")
	}
}
