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
	"repro/internal/journal"
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

// Entry is one run as `prose runs` lists it: the facts List reads
// from the run's manifest.
type Entry struct {
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

func (m *Manifest) entry() Entry {
	return Entry{
		ID: m.ID, Model: m.Model, Fingerprint: m.Fingerprint,
		StartUnixNS: m.StartUnixNS, WallMS: m.WallMS,
		Evaluations: m.Evaluations, BestSpeedup: m.BestSpeedup,
		Outcome: m.Outcome, Converged: m.Converged,
	}
}

const runsDir = "runs"

// Ledger is an on-disk archive of run manifests: one JSON document per
// run at <dir>/runs/<id>.json, and nothing else. The manifests are the
// only record of the runs, so a listing cannot disagree with them. It
// accumulates across runs and processes: each Put atomically replaces
// one file named by its content address, so concurrent tunes into one
// ledger never corrupt each other, and re-archiving identical facts
// rewrites the same file.
type Ledger struct{ dir string }

// Open names the ledger rooted at dir. It touches no file: Put creates
// the directory, and List and Get fail on one that holds no ledger.
func Open(dir string) *Ledger { return &Ledger{dir: dir} }

// Put archives a manifest: computes its content address and writes
// runs/<id>.json with journal.WriteFileAtomic, creating the ledger's
// directories first. Returns the ID. The manifest's ID field is set on
// success.
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
	if err := os.MkdirAll(filepath.Join(l.dir, runsDir), 0o755); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	if err := journal.WriteFileAtomic(l.path(id), b); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	return id, nil
}

func (l *Ledger) path(id string) string { return filepath.Join(l.dir, runsDir, id+".json") }

// ids returns the names of the files under runs/ that end in .json,
// without it, in name order. A directory without runs/ is an error that
// names it: nothing was ever archived there, so a mistyped path must
// not read as an empty ledger.
func (l *Ledger) ids() ([]string, error) {
	des, err := os.ReadDir(filepath.Join(l.dir, runsDir))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("ledger: no ledger at %s: nothing has been archived there", l.dir)
	}
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	var ids []string
	for _, de := range des {
		if id, ok := strings.CutSuffix(de.Name(), ".json"); ok && !de.IsDir() {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// List loads every manifest under runs/ and returns the runs oldest
// first, ordered by (StartUnixNS, ID), with the number of manifests it
// could not load. A run archived twice with identical facts is one
// file, so it lists once.
func (l *Ledger) List() ([]Entry, int, error) {
	ids, err := l.ids()
	if err != nil {
		return nil, 0, err
	}
	var out []Entry
	unreadable := 0
	for _, id := range ids {
		m, err := LoadManifest(l.path(id))
		if err != nil {
			unreadable++
			continue
		}
		out = append(out, m.entry())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartUnixNS != out[j].StartUnixNS {
			return out[i].StartUnixNS < out[j].StartUnixNS
		}
		return out[i].ID < out[j].ID
	})
	return out, unreadable, nil
}

// Get resolves a run reference — a full ID, a unique ID prefix, or a
// manifest file path — to its manifest. A nil ledger resolves paths
// only.
func (l *Ledger) Get(ref string) (*Manifest, error) {
	var matches []string
	if l != nil {
		ids, err := l.ids()
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if ref != "" && strings.HasPrefix(id, ref) {
				matches = append(matches, id)
			}
		}
	}
	switch {
	case len(matches) == 1:
		return LoadManifest(l.path(matches[0]))
	case len(matches) > 1:
		for i, id := range matches {
			matches[i] = id[:min(12, len(id))]
		}
		return nil, fmt.Errorf("ledger: %q is ambiguous: matches %s", ref, strings.Join(matches, ", "))
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
