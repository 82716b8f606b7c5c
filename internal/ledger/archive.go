package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// ManifestKind identifies a run-manifest document.
const ManifestKind = "prose-run-manifest"

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// Manifest is the durable record of one tuning run: identity (what was
// tuned, under which options, on which machine), shape (fleet,
// parallelism), outcome (result summary, status tallies), and telemetry
// (final metrics snapshot with quantiles, decision-log digest). It is
// content-addressed: ID is the SHA-256 of the canonical JSON encoding
// with the ID field blank, so a manifest can be verified against its
// name and identical facts always hash identically.
type Manifest struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	V    int    `json:"v"`

	// Identity: everything that shapes the evaluation stream, plus the
	// non-fingerprinted knobs worth comparing across runs.
	Model       string  `json:"model"`
	Fingerprint string  `json:"fingerprint"`
	Machine     string  `json:"machine"`
	Seed        int64   `json:"seed"`
	WholeModel  bool    `json:"whole_model,omitempty"`
	Budget      int     `json:"budget,omitempty"`
	MaxRelError float64 `json:"max_rel_error"`
	MinSpeedup  float64 `json:"min_speedup"`
	Parallelism int     `json:"parallelism,omitempty"`

	// Timing. StartUnixNS is wall-clock identity (two otherwise
	// identical runs archive as two entries); WallMS is the run's
	// duration.
	StartUnixNS int64 `json:"start_unix_ns"`
	WallMS      int64 `json:"wall_ms"`

	// Outcome.
	Outcome      string         `json:"outcome"` // completed | aborted | cancelled
	Converged    bool           `json:"converged"`
	Evaluations  int            `json:"evaluations"`
	Resumed      int            `json:"resumed,omitempty"`
	Salvaged     int            `json:"salvaged,omitempty"`
	Statuses     map[string]int `json:"statuses,omitempty"`
	TotalAtoms   int            `json:"total_atoms"`
	MinimalAtoms int            `json:"minimal_atoms"`
	BestSpeedup  float64        `json:"best_speedup,omitempty"`
	BestRelError float64        `json:"best_rel_error,omitempty"`
	BestLowered  int            `json:"best_lowered,omitempty"`

	// Telemetry. Fleet is the coordinator's final counters (worker
	// metrics arrive merged inside Metrics under fleet.workers.*);
	// Quantiles summarizes each metrics histogram's p50/p95/p99.
	Fleet     *fleet.Stats             `json:"fleet,omitempty"`
	Metrics   *obs.Snapshot            `json:"metrics,omitempty"`
	Quantiles map[string]obs.Quantiles `json:"quantiles,omitempty"`

	// Pointers to the run's sidecar artifacts.
	JournalPath    string `json:"journal_path,omitempty"`
	DecisionPath   string `json:"decision_path,omitempty"`
	DecisionDigest string `json:"decision_digest,omitempty"`
	DecisionEvents int64  `json:"decision_events,omitempty"`
}

// ComputeID returns the manifest's content address: the hex SHA-256 of
// its canonical JSON with the ID field blank.
func (m *Manifest) ComputeID() (string, error) {
	c := *m
	c.ID = ""
	b, err := CanonicalJSON(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// IndexEntry is one run's line in the ledger index — the facts `prose
// runs` lists without loading every manifest.
type IndexEntry struct {
	ID          string  `json:"id"`
	Model       string  `json:"model"`
	Fingerprint string  `json:"fingerprint"`
	StartUnixNS int64   `json:"start_unix_ns"`
	WallMS      int64   `json:"wall_ms"`
	Evaluations int     `json:"evaluations"`
	BestSpeedup float64 `json:"best_speedup"`
	Outcome     string  `json:"outcome"`
	Converged   bool    `json:"converged"`
}

func (m *Manifest) indexEntry() IndexEntry {
	return IndexEntry{
		ID: m.ID, Model: m.Model, Fingerprint: m.Fingerprint,
		StartUnixNS: m.StartUnixNS, WallMS: m.WallMS,
		Evaluations: m.Evaluations, BestSpeedup: m.BestSpeedup,
		Outcome: m.Outcome, Converged: m.Converged,
	}
}

const (
	indexFile = "index.jsonl"
	runsDir   = "runs"
)

// Ledger is an on-disk archive of run manifests: one JSON document per
// run under <dir>/runs/<id>.json plus an append-only <dir>/index.jsonl
// for cheap listing. It accumulates across runs and processes — Put
// appends with O_APPEND semantics, so concurrent tunes into one ledger
// interleave whole lines, never corrupt each other.
type Ledger struct{ dir string }

// Open opens (creating if needed) the ledger rooted at dir.
func Open(dir string) (*Ledger, error) {
	if err := os.MkdirAll(filepath.Join(dir, runsDir), 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &Ledger{dir: dir}, nil
}

// Dir returns the ledger's root directory.
func (l *Ledger) Dir() string { return l.dir }

// Put archives a manifest: computes its content address, writes
// runs/<id>.json atomically, and appends the index line. Returns the
// ID. The manifest's ID field is set on success.
func (l *Ledger) Put(m *Manifest) (string, error) {
	id, err := m.ComputeID()
	if err != nil {
		return "", err
	}
	m.ID = id
	b, err := CanonicalJSON(m)
	if err != nil {
		return "", err
	}
	final := filepath.Join(l.dir, runsDir, id+".json")
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("ledger: %w", err)
	}
	line, err := json.Marshal(m.indexEntry())
	if err != nil {
		return "", err
	}
	idx, err := os.OpenFile(filepath.Join(l.dir, indexFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	_, werr := idx.Write(append(line, '\n'))
	if cerr := idx.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("ledger: appending index: %w", werr)
	}
	return id, nil
}

// List returns the archived runs in index order (oldest first).
// Malformed index lines — a torn tail from a killed process — are
// skipped, and a missing index falls back to scanning runs/ so a
// ledger with a lost index still lists.
func (l *Ledger) List() ([]IndexEntry, error) {
	data, err := os.ReadFile(filepath.Join(l.dir, indexFile))
	if os.IsNotExist(err) {
		return l.listFromRuns()
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	var out []IndexEntry
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e IndexEntry
		if jerr := json.Unmarshal([]byte(line), &e); jerr != nil || e.ID == "" {
			continue // torn or foreign line: skip, don't fail the listing
		}
		out = append(out, e)
	}
	return out, nil
}

// listFromRuns rebuilds a listing from the manifests themselves.
func (l *Ledger) listFromRuns() ([]IndexEntry, error) {
	dir := filepath.Join(l.dir, runsDir)
	names, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	var out []IndexEntry
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		m, merr := LoadManifest(filepath.Join(dir, de.Name()))
		if merr != nil {
			continue
		}
		out = append(out, m.indexEntry())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixNS < out[j].StartUnixNS })
	return out, nil
}

// Get resolves a run reference — a full ID, a unique ID prefix, or a
// manifest file path — to its manifest.
func (l *Ledger) Get(ref string) (*Manifest, error) {
	if l != nil {
		if m, err := l.getByPrefix(ref); err == nil {
			return m, nil
		} else if !os.IsNotExist(asPathError(err)) && !isNoMatch(err) {
			return nil, err
		}
	}
	// Fall back to treating the reference as a manifest path.
	if _, serr := os.Stat(ref); serr == nil {
		return LoadManifest(ref)
	}
	if l == nil {
		return nil, fmt.Errorf("ledger: %q is not a manifest path (no ledger directory given)", ref)
	}
	return nil, fmt.Errorf("ledger: no run matching %q in %s", ref, l.dir)
}

type noMatchError struct{ ref string }

func (e *noMatchError) Error() string { return fmt.Sprintf("ledger: no run matching %q", e.ref) }

func isNoMatch(err error) bool { _, ok := err.(*noMatchError); return ok }

func asPathError(err error) error { return err }

func (l *Ledger) getByPrefix(ref string) (*Manifest, error) {
	if ref == "" {
		return nil, &noMatchError{ref: ref}
	}
	dir := filepath.Join(l.dir, runsDir)
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var matches []string
	for _, de := range names {
		name := strings.TrimSuffix(de.Name(), ".json")
		if strings.HasPrefix(name, ref) && strings.HasSuffix(de.Name(), ".json") {
			matches = append(matches, de.Name())
		}
	}
	switch len(matches) {
	case 0:
		return nil, &noMatchError{ref: ref}
	case 1:
		return LoadManifest(filepath.Join(dir, matches[0]))
	default:
		sort.Strings(matches)
		short := make([]string, len(matches))
		for i, m := range matches {
			short[i] = strings.TrimSuffix(m, ".json")[:12]
		}
		return nil, fmt.Errorf("ledger: %q is ambiguous: matches %s", ref, strings.Join(short, ", "))
	}
}

// LoadManifest reads and validates one manifest document. Empty,
// truncated, or foreign files are graceful errors, never panics.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(strings.TrimSpace(string(data))) == 0 {
		return nil, fmt.Errorf("ledger: %s: empty manifest", path)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ledger: %s: not a run manifest: %w", path, err)
	}
	if m.Kind != ManifestKind {
		return nil, fmt.Errorf("ledger: %s: kind %q, want %q", path, m.Kind, ManifestKind)
	}
	return &m, nil
}
