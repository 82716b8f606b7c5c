package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// kind drives one of the package's two file kinds, the journal and
// the events sidecar, through the tests they share.
type kind struct {
	name    string
	create  func(path string, h Header) (opened, error)
	open    func(path string, h Header) (opened, error)
	inspect func(path string) (int, error)
}

var kinds = []kind{
	{
		name:    "journal",
		create:  func(p string, h Header) (opened, error) { return journalSamples(Create(p, h)) },
		open:    func(p string, h Header) (opened, error) { return journalSamples(Open(p, h)) },
		inspect: func(p string) (int, error) { _, recs, err := Inspect(p); return len(recs), err },
	},
	{
		name:    "events",
		create:  func(p string, h Header) (opened, error) { return eventSamples(CreateEvents(p, h)) },
		open:    func(p string, h Header) (opened, error) { return eventSamples(OpenEvents(p, h)) },
		inspect: func(p string) (int, error) { _, recs, err := InspectEvents(p); return len(recs), err },
	},
}

// opened is an open file of either kind. Its records are the kind's
// numbered samples: mkRecord for the journal, mkEvent for the sidecar.
type opened interface {
	add(n int) error    // appends sample n
	line(n int) []byte  // sample n as its JSON line, without the newline
	replays(n int) bool // the records replayed at open are samples 1..n
	Close() error
}

type samples[R any] struct {
	*file[R]
	sample func(fp string, n int) R
}

func journalSamples(j *Journal, err error) (opened, error) {
	if err != nil {
		return nil, err
	}
	return samples[Record]{j.file, mkRecord}, nil
}

func eventSamples(e *EventLog, err error) (opened, error) {
	if err != nil {
		return nil, err
	}
	return samples[EventRecord]{e.file, mkEvent}, nil
}

func (s samples[R]) add(n int) error { return s.Append(s.sample(s.header.Fingerprint, n)) }

func (s samples[R]) line(n int) []byte {
	b, err := json.Marshal(s.sample(s.header.Fingerprint, n))
	if err != nil {
		panic(err)
	}
	return b
}

func (s samples[R]) replays(n int) bool {
	if len(s.records) != n {
		return false
	}
	for i, r := range s.records {
		if !reflect.DeepEqual(r, s.sample(s.header.Fingerprint, i+1)) {
			return false
		}
	}
	return true
}

// mkEvent is sample sidecar event n. Odd events carry a salvage
// payload, content-keyed like a journal record.
func mkEvent(fp string, n int) EventRecord {
	e := EventRecord{Type: EventRetry, AKey: fmt.Sprintf("m.p.v%02d;", n), Attempt: n, Fault: "boom", Kind: "transient"}
	if n%2 == 1 {
		rec := mkRecord(fp, n)
		e.Type, e.Rec = EventSalvaged, &rec
	}
	return e
}

// forKinds runs test once per file kind, on a path in a fresh directory.
func forKinds(t *testing.T, test func(t *testing.T, k kind, path string)) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) { test(t, k, filepath.Join(t.TempDir(), "f.jsonl")) })
	}
}

func mustOpen(t *testing.T, open func(string, Header) (opened, error), path string, h Header) opened {
	t.Helper()
	f, err := open(path, h)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustAdd(t *testing.T, f opened, from, to int) {
	t.Helper()
	for n := from; n <= to; n++ {
		if err := f.add(n); err != nil {
			t.Fatal(err)
		}
	}
}

func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReopenReplay(t *testing.T) {
	forKinds(t, func(t *testing.T, k kind, path string) {
		f := mustOpen(t, k.create, path, mkHeader("fp1"))
		mustAdd(t, f, 1, 3)
		f.Close()
		f2 := mustOpen(t, k.open, path, mkHeader("fp1"))
		if !f2.replays(3) {
			t.Fatal("reopen did not replay the 3 appended records unchanged")
		}
		// Appending after reopen continues the sequence.
		mustAdd(t, f2, 4, 4)
		f2.Close()
		f3 := mustOpen(t, k.open, path, mkHeader("fp1"))
		defer f3.Close()
		if !f3.replays(4) {
			t.Error("after reopen+append, the file does not replay records 1..4")
		}
	})
}

// TestOpenMissingCreates: resuming with no file starts a fresh one, and
// so does a file a crash left without a complete header line.
func TestOpenMissingCreates(t *testing.T) {
	forKinds(t, func(t *testing.T, k kind, path string) {
		f := mustOpen(t, k.open, path, mkHeader("fp1"))
		f.Close()
		if !f.replays(0) {
			t.Error("fresh file has records")
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("file not created: %v", err)
		}
		if err := os.WriteFile(path, want[:len(want)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		f = mustOpen(t, k.open, path, mkHeader("fp1"))
		f.Close()
		if got, _ := os.ReadFile(path); !f.replays(0) || !bytes.Equal(got, want) {
			t.Errorf("torn header reopened as %q, want a fresh %q", got, want)
		}
	})
}

// TestOpenRejectsStaleFingerprint: a file recorded for a different
// configuration must not leak its evaluations or quarantines into this
// run.
func TestOpenRejectsStaleFingerprint(t *testing.T) {
	forKinds(t, func(t *testing.T, k kind, path string) {
		mustOpen(t, k.create, path, mkHeader("fp-old")).Close()
		_, err := k.open(path, mkHeader("fp-new"))
		if err == nil {
			t.Fatal("stale file accepted")
		}
		if !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("unhelpful stale-file error: %v", err)
		}
	})
}

// TestOpenDropsTruncatedTail: a crash mid-append leaves a torn final
// line; reopening drops it and appends continue cleanly.
func TestOpenDropsTruncatedTail(t *testing.T) {
	forKinds(t, func(t *testing.T, k kind, path string) {
		f := mustOpen(t, k.create, path, mkHeader("fp1"))
		mustAdd(t, f, 1, 2)
		f.Close()
		torn := f.line(3)
		appendRaw(t, path, torn[:len(torn)/2])

		f2 := mustOpen(t, k.open, path, mkHeader("fp1"))
		if !f2.replays(2) {
			t.Fatal("torn tail not dropped: reopen does not replay exactly records 1..2")
		}
		mustAdd(t, f2, 3, 3)
		f2.Close()
		f3 := mustOpen(t, k.open, path, mkHeader("fp1"))
		defer f3.Close()
		if !f3.replays(3) {
			t.Error("after torn-tail recovery and an append, the file does not replay records 1..3")
		}
	})
}

// TestOverlongRecordIsAnError: a record line over the parser's line
// limit is an error naming the record. It must not read as the end of
// the file: Open would then append record 2 after the records it never
// parsed.
func TestOverlongRecordIsAnError(t *testing.T) {
	forKinds(t, func(t *testing.T, k kind, path string) {
		f := mustOpen(t, k.create, path, mkHeader("fp1"))
		mustAdd(t, f, 1, 1)
		f.Close()
		// Sample 2, padded with whitespace to 17 MiB: valid JSON, and a
		// valid record but for its length.
		rec2 := f.line(2)
		big := append([]byte{'{'}, bytes.Repeat([]byte{' '}, 17<<20)...)
		big = append(append(big, rec2[1:]...), '\n')
		appendRaw(t, path, append(big, append(f.line(3), '\n')...))
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		if n, err := k.inspect(path); err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Errorf("inspect read %d records, err %v; want an error naming record 2", n, err)
		}
		if g, err := k.open(path, mkHeader("fp1")); err == nil || !strings.Contains(err.Error(), "record 2") {
			if g != nil {
				g.Close()
			}
			t.Errorf("open err %v; want an error naming record 2", err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
			t.Errorf("a refused open changed the file (%d -> %d bytes)", len(before), len(after))
		}
	})
}

// FuzzJournal fuzzes the parser the journal and the events sidecar
// share. On arbitrary bytes, Inspect, InspectEvents, Open and
// OpenEvents return records or an error, and never panic. A valid
// journal cut at any byte reopens with exactly the records whose lines
// the cut left whole, and appending the rest reproduces the original
// bytes.
func FuzzJournal(f *testing.F) {
	dir := f.TempDir()
	h := mkHeader(Fingerprint("fuzz"))
	jpath, epath := filepath.Join(dir, "j.jsonl"), filepath.Join(dir, "j.jsonl.events")
	j, err := Create(jpath, h)
	if err != nil {
		f.Fatal(err)
	}
	e, err := CreateEvents(epath, h)
	if err != nil {
		f.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		r := mkRecord(h.Fingerprint, n)
		r.Detail = fmt.Sprintf("wrappers=%d casts=%d \"quoted\" ünï", n, 7*n)
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
		if err := e.Append(mkEvent(h.Fingerprint, n)); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	e.Close()
	valid, err := os.ReadFile(jpath)
	if err != nil {
		f.Fatal(err)
	}
	_, all, err := Inspect(jpath)
	if err != nil {
		f.Fatal(err)
	}
	events, err := os.ReadFile(epath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint16(len(valid)))
	f.Add(events, uint16(len(valid)/2))
	f.Add(valid[:len(valid)-7], uint16(7))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		path := filepath.Join(t.TempDir(), "f.jsonl")
		write := func(b []byte) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		write(data)
		_, _, _ = Inspect(path)
		_, _, _ = InspectEvents(path)
		if j, err := Open(path, h); err == nil {
			j.Close()
		}
		write(data)
		if e, err := OpenEvents(path, h); err == nil {
			e.Close()
		}

		k := int(cut) % (len(valid) + 1)
		write(valid[:k])
		j, err := Open(path, h)
		if err != nil {
			t.Fatalf("journal cut at byte %d: %v", k, err)
		}
		whole := max(bytes.Count(valid[:k], []byte{'\n'})-1, 0)
		if got := j.Records(); len(got) != whole || (whole > 0 && !reflect.DeepEqual(got, all[:whole])) {
			t.Fatalf("journal cut at byte %d reopened with %d records, want the %d whole ones", k, len(got), whole)
		}
		for _, r := range all[whole:] {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, valid) {
			t.Fatalf("journal cut at byte %d and completed differs from the original:\n%s\nwant:\n%s", k, got, valid)
		}
	})
}
