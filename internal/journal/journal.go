// Package journal provides the crash-safety layer of the tuning cycle:
// an append-only JSONL evaluation journal plus an atomic checkpoint of
// search state.
//
// The paper's MOM6 search died on Derecho's 12-hour job limit and lost
// every evaluated variant (§IV-B, Table II). Each variant evaluation is
// an expensive artifact — transform, compile, run — so the journal
// treats it as one: every distinct evaluation is serialized as a single
// JSON line and fsync'd before the search proceeds. A killed run leaves
// a journal whose records are exactly the completed prefix of the
// deterministic evaluation order; reopening it warm-starts the search
// (see search.Options.Warm), which replays to the point of death without
// re-running anything and then continues. The resumed journal is
// byte-identical to the journal of an uninterrupted run.
//
// Journal layout:
//
//	line 1:  Header  — format kind/version plus a baseline fingerprint
//	line 2+: Record  — one evaluation each, in evaluation-log order
//
// The fingerprint is a content hash over everything that shapes the
// evaluation stream (program source, machine model, noise seed, search
// options); Open rejects a journal whose fingerprint does not match
// instead of silently reusing stale results from a different program or
// seed. Each record is additionally keyed by a content hash of the
// fingerprint and the variant's canonical assignment key, so records
// remain self-validating when copied between files.
//
// A crash can leave a truncated final line; Open drops it and truncates
// the file back to the last complete record, so appends continue cleanly.
// The events sidecar (EventLog) is the same kind of file with another
// record type, and both share one implementation of create, open,
// parse, append, close and inspect.
package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"repro/internal/search"
)

// Kind identifies the journal file format.
const Kind = "prose-evaluation-journal"

// Version is the current journal format version.
const Version = 1

// Header is the first line of a journal file.
type Header struct {
	Kind        string `json:"kind"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Model       string `json:"model,omitempty"`
}

// Record is one journaled variant evaluation (one JSON line).
type Record struct {
	// Key is RecordKey(header fingerprint, AKey): a content hash tying
	// the record to both the baseline configuration and the variant.
	Key string `json:"key"`
	// AKey is the variant's canonical assignment key
	// (transform.Assignment.Key()).
	AKey       string  `json:"akey"`
	Index      int     `json:"index"` // 1-based evaluation-log order
	Status     string  `json:"status"`
	Speedup    float64 `json:"speedup"`
	RelError   float64 `json:"rel_error"`
	Lowered    int     `json:"lowered"`
	TotalAtoms int     `json:"total_atoms"`
	Detail     string  `json:"detail,omitempty"`
}

// Fingerprint hashes the given parts into a hex digest. Parts are
// length-prefixed, so no concatenation of parts collides with another
// split of the same bytes.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RecordKey hashes a journal fingerprint and a canonical assignment key
// into the per-record content key.
func RecordKey(fingerprint, akey string) string {
	h := sha256.Sum256([]byte(fingerprint + "\x00" + akey))
	return hex.EncodeToString(h[:16])
}

var statusFromName = map[string]search.Status{
	search.StatusPass.String():    search.StatusPass,
	search.StatusFail.String():    search.StatusFail,
	search.StatusTimeout.String(): search.StatusTimeout,
	search.StatusError.String():   search.StatusError,
	search.StatusInfra.String():   search.StatusInfra,
}

// FromEvaluation converts a search evaluation to its journal record.
func FromEvaluation(fingerprint string, ev *search.Evaluation) Record {
	akey := ev.Assignment.Key()
	return Record{
		Key:        RecordKey(fingerprint, akey),
		AKey:       akey,
		Index:      ev.Index,
		Status:     ev.Status.String(),
		Speedup:    ev.Speedup,
		RelError:   ev.RelError,
		Lowered:    ev.Lowered,
		TotalAtoms: ev.TotalAtoms,
		Detail:     ev.Detail,
	}
}

// Evaluation converts a record back to a search evaluation. The
// Assignment field is left nil: a warm-started search re-proposes the
// assignment itself and attaches it when the record is replayed.
func (r Record) Evaluation() (*search.Evaluation, error) {
	st, ok := statusFromName[r.Status]
	if !ok {
		return nil, fmt.Errorf("journal: record %d has unknown status %q", r.Index, r.Status)
	}
	return &search.Evaluation{
		Status:     st,
		Speedup:    r.Speedup,
		RelError:   r.RelError,
		Lowered:    r.Lowered,
		TotalAtoms: r.TotalAtoms,
		Detail:     r.Detail,
		Index:      r.Index,
	}, nil
}

// journalFormat checks each record's content key and its index.
var journalFormat = &format[Record]{kind: Kind, indexed: true, payload: func(r *Record) *Record { return r }}

// Journal is an open journal file. Its Append, Records, Header, Path
// and Close come from the file type it shares with EventLog.
type Journal struct{ *file[Record] }

// Create starts a fresh journal at path, writing and fsyncing the
// header. It refuses to overwrite an existing journal that already
// holds evaluation records — resuming (Open) or removing the file is an
// explicit decision the caller must make — and any file it cannot
// parse.
func Create(path string, h Header) (*Journal, error) {
	if raw, err := os.ReadFile(path); err == nil && !empty(raw) {
		_, recs, err := journalFormat.parse(raw)
		if err != nil {
			return nil, fmt.Errorf("journal: %s exists and cannot be read (%v); remove it", path, err)
		}
		if len(recs) > 0 {
			return nil, fmt.Errorf("journal: %s already holds %d evaluation(s); resume it or remove it", path, len(recs))
		}
	}
	f, err := journalFormat.create(path, h)
	if err != nil {
		return nil, err
	}
	return &Journal{f}, nil
}

// Open opens the journal at path for resumption, validating its header
// against want (a fingerprint mismatch means the journal belongs to a
// different program, machine model, seed, or search configuration and
// is rejected). A missing file starts a fresh journal, so resuming is
// safe on the very first run. A truncated final line — the signature of
// a crash mid-append — is dropped and the file truncated back to the
// last complete record.
func Open(path string, want Header) (*Journal, error) {
	f, err := journalFormat.open(path, want)
	if err != nil {
		return nil, err
	}
	return &Journal{f}, nil
}

// Inspect reads a journal file without opening it for appending and
// without knowing the expected fingerprint: records are still
// integrity-checked against the header's own fingerprint (content keys,
// contiguous indices) and a torn trailing line is ignored, but nothing
// is validated against a caller-supplied configuration. This is the
// entry point for offline tooling (prose journal) that examines a
// journal it did not create.
func Inspect(path string) (Header, []Record, error) { return journalFormat.inspect(path) }
