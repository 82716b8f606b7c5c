package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/search"
)

func writeSampleLog(t *testing.T, path string) *DecisionLog {
	t.Helper()
	dl, err := CreateDecisionLog(path, "fp-1", "funarc")
	if err != nil {
		t.Fatal(err)
	}
	dl.RoundStart(1, 3)
	dl.Decide(search.Decision{Round: 1, Seq: 1, AKey: "a=4", Outcome: search.DecisionEvaluated, Status: search.StatusPass, Speedup: 1.5, RelError: 1e-8, Lowered: 1, Accepted: true})
	dl.Decide(search.Decision{Round: 1, Seq: 2, AKey: "a=4", Outcome: search.DecisionCached, Status: search.StatusPass, Speedup: 1.5, RelError: 1e-8, Lowered: 1})
	dl.Decide(search.Decision{Round: 1, Seq: 3, AKey: "b=4", Outcome: search.DecisionPruned})
	dl.RoundEnd(search.RoundSummary{Round: 1, Candidates: 3, Evaluated: 1, Cached: 1, Pruned: 1, Accepted: 1, Evals: 1, BestSpeedup: 1.5, BestAKey: "a=4", Frontier: 1})
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}
	return dl
}

func TestDecisionLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.jsonl")
	dl := writeSampleLog(t, path)
	if dl.Events() != 5 {
		t.Errorf("Events() = %d, want 5", dl.Events())
	}

	hdr, evs, err := ReadDecisionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != DecisionLogKind || hdr.Fingerprint != "fp-1" || hdr.Model != "funarc" {
		t.Errorf("header = %+v", hdr)
	}
	if len(evs) != 5 {
		t.Fatalf("read %d events, want 5", len(evs))
	}
	if evs[0].Ev != EvRound || evs[0].Candidates != 3 {
		t.Errorf("first event %+v", evs[0])
	}
	if evs[3].Ev != EvCandidate || evs[3].Outcome != search.DecisionPruned || evs[3].Status != "" {
		t.Errorf("pruned candidate carries eval facts: %+v", evs[3])
	}
	if evs[4].Ev != EvRoundEnd || evs[4].BestSpeedup != 1.5 || evs[4].Accepts != 1 {
		t.Errorf("round_end %+v", evs[4])
	}

	// The digest is the digest of the file bytes.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); dl.Digest() != got {
		t.Errorf("Digest() = %s, file digest %s", dl.Digest(), got)
	}
}

func TestDecisionLogCountsMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.jsonl")
	dl, err := CreateDecisionLog(path, "fp", "m")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	dl.SetMetrics(reg)
	dl.RoundStart(1, 1)
	dl.Decide(search.Decision{Round: 1, Seq: 1, AKey: "k", Outcome: search.DecisionEvaluated})
	dl.RoundEnd(search.RoundSummary{Round: 1, Candidates: 1})
	dl.Close()
	s := reg.Snapshot()
	if s.Counters[obs.MetricDecisionEvents] != 3 || s.Counters[obs.MetricDecisionRounds] != 1 {
		t.Errorf("counters = %v", s.Counters)
	}
}

func TestReadDecisionLogGraceful(t *testing.T) {
	dir := t.TempDir()

	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDecisionLog(empty); err == nil {
		t.Error("empty file: want error")
	}

	foreign := filepath.Join(dir, "foreign")
	os.WriteFile(foreign, []byte("not json at all\n"), 0o644)
	if _, _, err := ReadDecisionLog(foreign); err == nil {
		t.Error("foreign file: want error")
	}

	if _, _, err := ReadDecisionLog(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file: want error")
	}

	// A torn tail — killed mid-write — keeps the complete prefix.
	torn := filepath.Join(dir, "torn")
	writeSampleLog(t, torn)
	raw, _ := os.ReadFile(torn)
	os.WriteFile(torn, raw[:len(raw)-7], 0o644)
	_, evs, err := ReadDecisionLog(torn)
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if len(evs) != 4 {
		t.Errorf("torn tail kept %d events, want 4", len(evs))
	}
}

// TestReadDecisionLogCorruptLineIsAnError: a line that does not decode
// before the last newline is damage, not a torn tail. Dropping it and
// everything after would silently shorten the funnel `prose runs`
// shows.
func TestReadDecisionLogCorruptLineIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.jsonl")
	writeSampleLog(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if len(lines) != 7 || lines[6] != "" {
		t.Fatalf("sample log has %d lines, want a header and 5 events", len(lines)-1)
	}
	lines[2] = `{"ev":"candidate","round":1,"seq":1,` + "\n" // line 3 holds record 2
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, evs, err := ReadDecisionLog(path)
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("corrupt record 2 read as %d events, err %v; want an error naming record 2", len(evs), err)
	}
}

func TestCanonicalJSON(t *testing.T) {
	type S struct {
		Zeta  int     `json:"zeta"`
		Alpha string  `json:"alpha"`
		Pi    float64 `json:"pi"`
	}
	b, err := CanonicalJSON(S{Zeta: 1, Alpha: "x", Pi: 3.25})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.HasSuffix(s, "\n") {
		t.Error("no trailing newline")
	}
	if strings.Index(s, "alpha") > strings.Index(s, "zeta") {
		t.Errorf("keys not sorted:\n%s", s)
	}
	if !strings.Contains(s, "3.25") {
		t.Errorf("number drifted:\n%s", s)
	}
	b2, _ := CanonicalJSON(S{Zeta: 1, Alpha: "x", Pi: 3.25})
	if string(b) != string(b2) {
		t.Error("not deterministic")
	}
}

func sampleManifest(speedup float64, evals int) *Manifest {
	return &Manifest{
		Kind: ManifestKind, V: ManifestVersion,
		Model: "funarc", Fingerprint: "fp-1", Machine: "m",
		StartUnixNS: int64(evals) * 1e9, WallMS: 100,
		Outcome: "completed", Converged: true,
		Evaluations: evals, TotalAtoms: 8, MinimalAtoms: 1,
		BestSpeedup: speedup, BestRelError: 1e-7, BestLowered: 7,
	}
}

func TestLedgerPutListGet(t *testing.T) {
	dir := t.TempDir()
	led, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := led.Put(sampleManifest(1.5, 28))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := led.Put(sampleManifest(1.2, 30))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("different manifests share a content address")
	}

	entries, unreadable, err := led.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || unreadable != 0 || entries[0].ID != id1 || entries[1].ID != id2 {
		t.Fatalf("List = %+v, %d unreadable", entries, unreadable)
	}

	m, err := led.Get(id1)
	if err != nil {
		t.Fatal(err)
	}
	if m.BestSpeedup != 1.5 {
		t.Errorf("Get(%s).BestSpeedup = %g", id1, m.BestSpeedup)
	}
	if _, err := led.Get(id1[:8]); err != nil {
		t.Errorf("unique prefix rejected: %v", err)
	}
	if _, err := led.Get("no-such-run"); err == nil {
		t.Error("unknown ref accepted")
	}

	// Re-archiving identical facts hits the same address and rewrites
	// the same file, so the run still lists once.
	if id3, err := led.Put(sampleManifest(1.5, 28)); err != nil || id3 != id1 {
		t.Errorf("re-put: id=%s err=%v, want %s", id3, err, id1)
	}
	// A manifest that cannot be loaded is counted, not listed and not
	// fatal.
	if err := os.WriteFile(filepath.Join(dir, runsDir, "torn.json"), []byte(`{"id":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, unreadable, err = led.List()
	if err != nil || unreadable != 1 || len(entries) != 2 || entries[0].ID != id1 || entries[1].ID != id2 {
		t.Errorf("after a re-put and a torn manifest: List = %+v, %d unreadable, err=%v; want runs %.8s and %.8s, 1 unreadable",
			entries, unreadable, err, id1, id2)
	}
	// No index is written: the manifests are the listing.
	if _, err := os.Stat(filepath.Join(dir, "index.jsonl")); !os.IsNotExist(err) {
		t.Errorf("index.jsonl exists (stat err %v)", err)
	}

	// A manifest file path works without any ledger.
	var nilLed *Ledger
	if _, err := nilLed.Get(filepath.Join(dir, runsDir, id1+".json")); err != nil {
		t.Errorf("path lookup without ledger: %v", err)
	}
}

// TestGetAmbiguousShortNames: an ambiguous reference names its matches
// by their first 12 characters, and a name shorter than that is named
// whole rather than sliced out of range.
func TestGetAmbiguousShortNames(t *testing.T) {
	dir := t.TempDir()
	led, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bad.json", "b.json"} {
		if err := os.WriteFile(filepath.Join(dir, runsDir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := led.Get("b"); err == nil || !strings.Contains(err.Error(), "ambiguous: matches b, bad") {
		t.Errorf("Get(b) = %v, want an ambiguity naming b and bad", err)
	}
}

func TestLoadManifestGraceful(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, nil, 0o644)
	if _, err := LoadManifest(empty); err == nil {
		t.Error("empty manifest accepted")
	}
	foreign := filepath.Join(dir, "foreign.json")
	os.WriteFile(foreign, []byte(`{"kind":"something-else"}`), 0o644)
	if _, err := LoadManifest(foreign); err == nil {
		t.Error("foreign kind accepted")
	}
}

func TestCompareThresholds(t *testing.T) {
	base := sampleManifest(1.5, 28)
	th := DefaultThresholds()

	if c := Compare(base, sampleManifest(1.5, 28), th); c.Regressed() {
		t.Errorf("identical runs regressed: %v", c.Regressions)
	}

	slow := sampleManifest(1.2, 28)
	c := Compare(base, slow, th)
	if !c.Regressed() {
		t.Error("20% speedup drop not flagged")
	}
	if c = Compare(base, slow, Thresholds{MaxSpeedupDrop: 0.5, MaxErrorRise: th.MaxErrorRise, MaxEvalsRise: th.MaxEvalsRise}); c.Regressed() {
		t.Errorf("drop within a loose threshold still flagged: %v", c.Regressions)
	}

	lost := sampleManifest(0, 28)
	if !Compare(base, lost, th).Regressed() {
		t.Error("lost passing variant not flagged")
	}

	hungry := sampleManifest(1.5, 100)
	if !Compare(base, hungry, th).Regressed() {
		t.Error("4x evaluation growth not flagged")
	}

	stuck := sampleManifest(1.5, 28)
	stuck.Converged = false
	if !Compare(base, stuck, th).Regressed() {
		t.Error("convergence loss not flagged")
	}

	drifted := sampleManifest(1.5, 28)
	drifted.Fingerprint = "fp-2"
	c = Compare(base, drifted, th)
	if c.Regressed() {
		t.Error("fingerprint mismatch alone must not gate")
	}
	if len(c.Warnings) == 0 {
		t.Error("fingerprint mismatch produced no warning")
	}

	// JSON encoding must round-trip (CI consumes -format json).
	if _, err := json.Marshal(Compare(base, slow, th)); err != nil {
		t.Fatal(err)
	}
}

func TestFunnelReconstruction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.jsonl")
	writeSampleLog(t, path)
	_, evs, err := ReadDecisionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	rounds := Funnel(evs)
	if len(rounds) != 1 {
		t.Fatalf("%d rounds, want 1", len(rounds))
	}
	r := rounds[0]
	if r.Candidates != 3 || r.Evaluated != 1 || r.Cached != 1 || r.Pruned != 1 || r.Accepted != 1 || r.BestSpeedup != 1.5 {
		t.Errorf("round = %+v", r)
	}
	if !strings.Contains(RenderFunnel(rounds), "1.5x") {
		t.Error("rendered funnel misses the best speedup")
	}

	// Torn log: drop the round_end; the candidate events still tally.
	rounds = Funnel(evs[:len(evs)-1])
	if len(rounds) != 1 || rounds[0].Evaluated != 1 || rounds[0].Pruned != 1 {
		t.Errorf("fallback tally = %+v", rounds)
	}
}

// BenchmarkLedgerAppend pins the cost of one decision-log candidate
// event — the write is a JSON marshal into a buffered writer plus a
// digest update, no syscall, which is what keeps decision telemetry off
// the evaluation hot path (flushes happen only between rounds).
func BenchmarkLedgerAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.decisions")
	dl, err := CreateDecisionLog(path, "fp-bench", "funarc")
	if err != nil {
		b.Fatal(err)
	}
	defer dl.Close()
	d := search.Decision{
		Round: 1, Seq: 1, AKey: "funarc.fun.t1=4;funarc.fun.d1=4;funarc.fun.s1=4",
		Outcome: search.DecisionEvaluated, Status: search.StatusPass,
		Speedup: 1.559, RelError: 2.04e-7, Lowered: 7, Accepted: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Seq = i
		dl.Decide(d)
	}
}
