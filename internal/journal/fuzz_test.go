package journal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/search"
)

// seeds holds one file of each on-disk format the tuner writes, as
// writeSeeds wrote it with the format's own writer, and the records the
// line files read back as.
type seeds struct {
	header   journal.Header
	journal  []byte // 5 records
	records  []journal.Record
	events   []byte // the sidecar: retries and salvaged records
	dlog     []byte // the decision log: 2 rounds
	dlogEvs  []ledger.DecisionEvent
	ckpt     []byte
	manifest []byte
}

func writeSeeds(f *testing.F, dir string) seeds {
	var s seeds
	s.header = journal.Header{Fingerprint: journal.Fingerprint("fuzz"), Model: "fake"}
	fp := s.header.Fingerprint
	jpath := filepath.Join(dir, "j.jsonl")
	j, err := journal.Create(jpath, s.header)
	if err != nil {
		f.Fatal(err)
	}
	e, err := journal.CreateEvents(journal.EventsPath(jpath), s.header)
	if err != nil {
		f.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		akey := fmt.Sprintf("m.p.v%02d=4;", n)
		r := journal.Record{Key: journal.RecordKey(fp, akey), AKey: akey, Index: n, Status: "pass",
			Speedup: 1.5, RelError: 1e-7, Lowered: n, TotalAtoms: 8,
			Detail: fmt.Sprintf("wrappers=%d casts=%d \"quoted\" ünï", n, 7*n)}
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
		ev := journal.EventRecord{Type: journal.EventRetry, AKey: akey, Attempt: n, Fault: "boom", Kind: "transient"}
		if n%2 == 1 {
			ev.Type, ev.Rec = journal.EventSalvaged, &r
		}
		if err := e.Append(ev); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	e.Close()
	s.journal = readFile(f, jpath)
	s.events = readFile(f, journal.EventsPath(jpath))
	if _, s.records, err = journal.Inspect(jpath); err != nil {
		f.Fatal(err)
	}

	dpath := ledger.DecisionPath(jpath)
	dl, err := ledger.CreateDecisionLog(dpath, fp, "fake")
	if err != nil {
		f.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		dl.RoundStart(round, 2)
		dl.Decide(search.Decision{Round: round, Seq: 1, AKey: "a=4", Outcome: search.DecisionEvaluated,
			Status: search.StatusPass, Speedup: 1.25, RelError: 3e-8, Lowered: 1, Accepted: true})
		dl.Decide(search.Decision{Round: round, Seq: 2, AKey: "b=4", Outcome: search.DecisionPruned})
		dl.RoundEnd(search.RoundSummary{Round: round, Candidates: 2, Evaluated: 1, Pruned: 1, Accepted: 1,
			Evals: round, BestSpeedup: 1.25, BestAKey: "a=4", Frontier: 1})
	}
	if err := dl.Close(); err != nil {
		f.Fatal(err)
	}
	s.dlog = readFile(f, dpath)
	if _, s.dlogEvs, err = ledger.ReadDecisionLog(dpath); err != nil {
		f.Fatal(err)
	}

	cpath := journal.CheckpointPath(jpath)
	if err := journal.SaveCheckpoint(cpath, journal.Checkpoint{Fingerprint: fp, Model: "fake",
		Evaluations: 5, Done: true, Converged: true, Minimal: []string{"m.p.v01"}}); err != nil {
		f.Fatal(err)
	}
	s.ckpt = readFile(f, cpath)

	led := ledger.Open(filepath.Join(dir, "ledger"))
	m := &ledger.Manifest{Kind: ledger.ManifestKind, V: ledger.ManifestVersion,
		Model: "fake", Fingerprint: fp, Machine: "milan-avx2", Seed: 1, Budget: 30,
		MaxRelError: 1e-6, MinSpeedup: 1.05, Parallelism: 2, StartUnixNS: 1760000000123456789, WallMS: 1500,
		Outcome: "completed", Converged: true, Evaluations: 5, Statuses: map[string]int{"pass": 4, "fail": 1},
		TotalAtoms: 8, MinimalAtoms: 1, BestSpeedup: 1.5, BestRelError: 1e-7, BestLowered: 7,
		Fleet: &fleet.Stats{Workers: 2, Alive: 2, Leases: 6, Restarts: 1},
		Metrics: &obs.Snapshot{Counters: map[string]int64{"evals": 5}, Gauges: map[string]float64{"busy": 0.5},
			Histograms: map[string]obs.HistogramSnapshot{"eval_ms": {Count: 2, Sum: 3.5, Min: 1.25, Max: 2.25,
				Mean: 1.75, Buckets: map[int]int64{1: 1, 2: 1}}}},
		Quantiles:   map[string]obs.Quantiles{"eval_ms": {P50: 1.25, P95: 2.25, P99: 2.25}},
		JournalPath: jpath, DecisionPath: dpath, DecisionDigest: dl.Digest(), DecisionEvents: dl.Events()}
	id, err := led.Put(m)
	if err != nil {
		f.Fatal(err)
	}
	s.manifest = readFile(f, filepath.Join(dir, "ledger", "runs", id+".json"))
	return s
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzOnDiskFormats fuzzes every file the tuner writes to disk: the
// journal, its events sidecar, the decision log, the checkpoint and a
// run manifest. On arbitrary bytes, every reader returns values or an
// error and never panics, and a ledger whose runs/ holds the bytes
// lists them as one run or one unreadable manifest. A journal cut at
// any byte reopens with exactly its whole records and, completed by
// appends, reproduces the original bytes. A decision log cut at any
// byte reads back exactly the events of its whole lines, or is an
// error when the cut falls inside the header. A checkpoint or manifest
// the bytes decode to survives SaveCheckpoint then LoadCheckpoint, or
// Put then Get, deep-equal and, for a manifest, still content-addressed
// (after one round trip, since a decoded empty map or slice is not
// encoded).
func FuzzOnDiskFormats(f *testing.F) {
	s := writeSeeds(f, f.TempDir())
	for _, seed := range [][]byte{s.journal, s.events, s.dlog, s.ckpt, s.manifest} {
		f.Add(seed, uint16(len(seed)/2))
	}
	f.Add(s.journal[:len(s.journal)-7], uint16(7))
	f.Add(s.dlog[:len(s.dlog)-7], uint16(bytes.IndexByte(s.dlog, '\n')))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		write := func(b []byte) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		write(data)
		_, _, _ = journal.Inspect(path)
		_, _, _ = journal.InspectEvents(path)
		_, _, _ = ledger.ReadDecisionLog(path)
		c, isCkpt, cerr := journal.LoadCheckpoint(path)
		m, merr := ledger.LoadManifest(path)
		if j, err := journal.Open(path, s.header); err == nil {
			j.Close()
		}
		write(data)
		if e, err := journal.OpenEvents(path, s.header); err == nil {
			e.Close()
		}

		led := ledger.Open(filepath.Join(dir, "ledger"))
		if err := os.MkdirAll(filepath.Join(dir, "ledger", "runs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "ledger", "runs", "x.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, unreadable, err := led.List()
		if err != nil || len(entries)+unreadable != 1 || (len(entries) == 1) != (merr == nil) {
			t.Fatalf("List over one manifest: %d runs, %d unreadable, err %v (LoadManifest err %v)", len(entries), unreadable, err, merr)
		}
		if cerr == nil && isCkpt {
			checkpointRoundTrip(t, filepath.Join(dir, "ckpt"), c)
		}
		if merr == nil {
			manifestRoundTrip(t, led, m)
		}

		k := int(cut) % (len(s.journal) + 1)
		write(s.journal[:k])
		j, err := journal.Open(path, s.header)
		if err != nil {
			t.Fatalf("journal cut at byte %d: %v", k, err)
		}
		whole := max(bytes.Count(s.journal[:k], []byte{'\n'})-1, 0)
		if got := j.Records(); len(got) != whole || (whole > 0 && !reflect.DeepEqual(got, s.records[:whole])) {
			t.Fatalf("journal cut at byte %d reopened with %d records, want the %d whole ones", k, len(got), whole)
		}
		for _, r := range s.records[whole:] {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		if got := readFile(t, path); !bytes.Equal(got, s.journal) {
			t.Fatalf("journal cut at byte %d and completed differs from the original:\n%s\nwant:\n%s", k, got, s.journal)
		}

		k = int(cut) % (len(s.dlog) + 1)
		write(s.dlog[:k])
		_, evs, err := ledger.ReadDecisionLog(path)
		if k <= bytes.IndexByte(s.dlog, '\n') {
			if err == nil {
				t.Fatalf("decision log cut at byte %d, inside its header, read as %d events", k, len(evs))
			}
			return
		}
		whole = bytes.Count(s.dlog[:k], []byte{'\n'}) - 1
		if err != nil || len(evs) != whole || (whole > 0 && !reflect.DeepEqual(evs, s.dlogEvs[:whole])) {
			t.Fatalf("decision log cut at byte %d read %d events, err %v; want the %d whole ones", k, len(evs), err, whole)
		}
	})
}

// checkpointRoundTrip saves c and loads it back, twice: the first
// round drops what the encoding does not carry (an empty Minimal), and
// the second must then be exact.
func checkpointRoundTrip(t *testing.T, path string, c journal.Checkpoint) {
	t.Helper()
	for round := 1; round <= 2; round++ {
		if err := journal.SaveCheckpoint(path, c); err != nil {
			t.Fatal(err)
		}
		got, ok, err := journal.LoadCheckpoint(path)
		if err != nil || !ok {
			t.Fatalf("loading a saved checkpoint: ok=%v err=%v", ok, err)
		}
		if round == 2 && !reflect.DeepEqual(got, c) {
			t.Fatalf("checkpoint round trip:\n%+v\nwant\n%+v", got, c)
		}
		c = got
	}
}

// manifestRoundTrip archives m and gets it back by ID, twice, as
// checkpointRoundTrip does: the second round must be exact, keep the
// ID, and stay content-addressed.
func manifestRoundTrip(t *testing.T, led *ledger.Ledger, m *ledger.Manifest) {
	t.Helper()
	for round := 1; round <= 2; round++ {
		id, err := led.Put(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := led.Get(id)
		if err != nil {
			t.Fatalf("Get(%s) after Put: %v", id, err)
		}
		if sum, err := got.ComputeID(); err != nil || sum != got.ID || got.ID != id {
			t.Fatalf("manifest %s read back with ID %s, content address %s (err %v)", id, got.ID, sum, err)
		}
		if round == 2 && !reflect.DeepEqual(got, m) {
			t.Fatalf("manifest round trip:\n%+v\nwant\n%+v", got, m)
		}
		m = got
	}
}
