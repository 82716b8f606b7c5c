package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// maxLine caps one record line. Records are a few hundred bytes, so a
// longer line is damage, and the parser reports it.
const maxLine = 16 << 20

// format is what the journal and the events sidecar do differently:
// the header kind, and the record whose content key ties a line to the
// file's fingerprint.
type format[R any] struct {
	kind string
	// payload returns the content-keyed record a line carries: the
	// journal record itself, or a sidecar event's salvage payload (nil
	// when it has none).
	payload func(*R) *Record
	// indexed requires payload indices to run 1, 2, 3, … with no gaps.
	indexed bool
}

// file is an open append-only record file: a Header line, then one
// JSON record of type R per line, each fsync'd as it is appended.
// Journal and EventLog are its two kinds. Append is safe for
// concurrent use.
type file[R any] struct {
	format  *format[R]
	path    string
	header  Header
	mu      sync.Mutex
	f       *os.File
	records []R
}

// Path returns the file's path.
func (f *file[R]) Path() string { return f.path }

// Header returns the file's header.
func (f *file[R]) Header() Header { return f.header }

// Records returns the records replayed when the file was opened.
// Records appended later are not included.
func (f *file[R]) Records() []R { return f.records }

// create starts a fresh file at path, truncating any prior content,
// and writes and fsyncs the header.
func (s *format[R]) create(path string, h Header) (*file[R], error) {
	h.Kind, h.Version = s.kind, Version
	osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	f := &file[R]{format: s, path: path, header: h, f: osf}
	if err := f.write(h); err != nil {
		osf.Close()
		return nil, err
	}
	return f, nil
}

// open opens the file at path for appending, validating its header
// against want: a fingerprint mismatch means it was recorded for a
// different program, machine model, seed, or search configuration. A
// file that is missing, or holds no complete line (a crash tore its
// header), starts afresh. A torn final line is dropped and the file
// truncated back to the last complete record.
func (s *format[R]) open(path string, want Header) (*file[R], error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) || (err == nil && empty(raw)) {
		return s.create(path, want)
	}
	if err != nil {
		return nil, err
	}
	h, recs, err := s.parse(raw)
	if err != nil {
		return nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	if h.Fingerprint != want.Fingerprint {
		return nil, fmt.Errorf("journal: %s was recorded for a different configuration (model %q, fingerprint %.12s..., want %.12s...): the program source, machine model, seed, or search options changed — remove it or restore the original configuration",
			path, h.Model, h.Fingerprint, want.Fingerprint)
	}
	goodLen := int64(completeLen(raw))
	osf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := osf.Truncate(goodLen); err != nil {
		osf.Close()
		return nil, err
	}
	if _, err := osf.Seek(goodLen, 0); err != nil {
		osf.Close()
		return nil, err
	}
	return &file[R]{format: s, path: path, header: h, f: osf, records: recs}, nil
}

// inspect reads the file at path without opening it for appending and
// without an expected fingerprint: records are still checked against
// the header's own fingerprint and a torn final line is ignored.
func (s *format[R]) inspect(path string) (Header, []R, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, err
	}
	h, recs, err := s.parse(raw)
	if err != nil {
		return Header{}, nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	return h, recs, nil
}

// parse splits raw file bytes into the header and the complete
// records (see ReadLines). The header must be of this format's kind and
// version, and every record must pass its content-key (and, for an
// indexed format, index) check. A line it cannot read is an error
// naming that line.
func (s *format[R]) parse(raw []byte) (Header, []R, error) {
	var h Header
	var recs []R
	err := ReadLines(raw, func(n int, line []byte) error {
		if n == 0 {
			if err := json.Unmarshal(line, &h); err != nil {
				return fmt.Errorf("bad header: %w", err)
			}
			if h.Kind != s.kind || h.Version != Version {
				return fmt.Errorf("not a %s v%d file (found %q v%d)", s.kind, Version, h.Kind, h.Version)
			}
			return nil
		}
		var r R
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("bad record %d: %w", n, err)
		}
		if p := s.payload(&r); p != nil {
			if p.Key != RecordKey(h.Fingerprint, p.AKey) {
				return fmt.Errorf("record %d fails its content-key check (corrupt or copied from another journal)", n)
			}
			if s.indexed && p.Index != n {
				return fmt.Errorf("record %d has index %d (journal reordered or spliced)", n, p.Index)
			}
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return Header{}, nil, err
	}
	return h, recs, nil
}

// ReadLines reads a line file, the layout of every append-only file
// the tuner writes (the journal, its events sidecar and the decision
// log): a header line, then one record per line. It passes the header
// to fn as record 0 and the lines after it as records 1, 2, 3, …,
// stopping at the first error fn returns. It reads complete lines
// only, since the bytes after the last newline are a torn write, and
// skips blank lines. A file with no complete line is an error, and so
// is a line over 16 MiB, which is never passed to fn.
func ReadLines(raw []byte, fn func(n int, line []byte) error) error {
	rest := raw[:completeLen(raw)]
	n := 0
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if len(line) > maxLine {
			return fmt.Errorf("record %d is %d bytes, over the %d-byte line limit", n, len(line), maxLine)
		}
		if err := fn(n, line); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return errors.New("no complete header line")
	}
	return nil
}

// WriteFileAtomic replaces the file at path with b, as the tuner
// replaces each whole-file document (the checkpoint, a run manifest):
// b goes to a temporary file in the same directory, which is fsync'd
// and renamed over path, and then the directory is fsync'd to make the
// rename durable. A crash leaves the old file or the new, never a torn
// one. The file is readable by all, as a journal is.
func WriteFileAtomic(path string, b []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(b)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	// Best effort: the rename has happened, and some file systems
	// cannot sync a directory.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// completeLen returns the length of raw up to and including its last
// newline: everything after it is a torn partial write.
func completeLen(raw []byte) int {
	return bytes.LastIndexByte(raw, '\n') + 1
}

// empty reports whether raw holds no complete non-blank line, and so
// no header and no record.
func empty(raw []byte) bool {
	return len(bytes.TrimSpace(raw[:completeLen(raw)])) == 0
}

// Append serializes one record, appends it as a line, and fsyncs
// before returning, so a record acknowledged here survives any later
// crash. An empty content key is filled in from the file's
// fingerprint.
func (f *file[R]) Append(r R) error {
	if p := f.format.payload(&r); p != nil && p.Key == "" {
		p.Key = RecordKey(f.header.Fingerprint, p.AKey)
	}
	return f.write(&r) // r has escaped already: a pointer boxes without a copy
}

func (f *file[R]) write(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return fmt.Errorf("journal: %s is closed", f.path)
	}
	if _, err := f.f.Write(b); err != nil {
		return fmt.Errorf("journal: append to %s: %w", f.path, err)
	}
	if err := f.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync %s: %w", f.path, err)
	}
	return nil
}

// Close releases the file. Appended records are already durable;
// Close only invalidates the handle.
func (f *file[R]) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.f == nil {
		return nil
	}
	err := f.f.Close()
	f.f = nil
	return err
}
