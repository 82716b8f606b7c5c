// Package ledger is the tuner's cross-run observability layer: a
// search-decision telemetry stream, a persistent on-disk archive of run
// manifests, and the analyzers behind `prose runs` and `prose compare`.
//
// A single tune's telemetry (spans, metrics, the journal) describes one
// run; the ledger makes runs durable and comparable across processes,
// machines, and time — the corpus the ROADMAP's surrogate-search item
// will train on (a decision-log replay feeding internal/predict
// features is the intended follow-on seam).
//
// Three layers:
//
//   - DecisionLog streams the search's per-round candidate lifecycle
//     (proposed → evaluated/cached/pruned → accepted/rejected, with the
//     evolving best-so-far and Pareto frontier) to an append-only JSONL
//     sidecar. The stream is derived only from deterministic search
//     state, so it is byte-stable at every parallelism level and across
//     kill/-resume cycles, and it never touches the byte-deterministic
//     evaluation journal.
//   - Ledger archives one content-addressed Manifest per run (program +
//     options fingerprint, machine, fleet shape, final metrics
//     snapshot with quantiles, decision-log digest, result summary)
//     under an indexed directory that accumulates across runs.
//   - Compare and Funnel analyze archived runs: speedup/error/evals/
//     metrics deltas with configurable regression thresholds, and the
//     per-round search-funnel table.
package ledger

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/search"
)

// DecisionLogKind identifies a decision-log header line.
const DecisionLogKind = "prose-decision-log"

// DecisionLogVersion is the current decision-log format version.
const DecisionLogVersion = 1

// DecisionPath derives the conventional decision-log path for a
// journal: the journal path plus ".decisions".
func DecisionPath(journalPath string) string { return journalPath + ".decisions" }

// DecisionHeader is the first line of a decision log.
type DecisionHeader struct {
	Kind        string `json:"kind"`
	V           int    `json:"v"`
	Fingerprint string `json:"fingerprint"`
	Model       string `json:"model"`
}

// DecisionEvent is one decision-log line after the header. Ev selects
// the shape: "round" opens a round (Round, Candidates), "candidate"
// records one candidate's lifecycle (Seq..Accepted), "round_end" closes
// it with the funnel tallies and post-round search state (Evaluated..
// Frontier).
type DecisionEvent struct {
	Ev         string `json:"ev"`
	Round      int    `json:"round"`
	Candidates int    `json:"candidates,omitempty"`

	Seq      int     `json:"seq,omitempty"`
	AKey     string  `json:"akey,omitempty"`
	Outcome  string  `json:"outcome,omitempty"`
	Status   string  `json:"status,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`
	RelError float64 `json:"rel_error,omitempty"`
	Lowered  int     `json:"lowered,omitempty"`
	Accepted bool    `json:"accepted,omitempty"`

	Evaluated   int     `json:"evaluated,omitempty"`
	Cached      int     `json:"cached,omitempty"`
	Pruned      int     `json:"pruned,omitempty"`
	Accepts     int     `json:"accepts,omitempty"`
	Evals       int     `json:"evals,omitempty"`
	BestSpeedup float64 `json:"best_speedup,omitempty"`
	BestAKey    string  `json:"best_akey,omitempty"`
	Frontier    int     `json:"frontier,omitempty"`
}

// Decision-log event types.
const (
	EvRound     = "round"
	EvCandidate = "candidate"
	EvRoundEnd  = "round_end"
)

// DecisionLog streams search decisions to an append-only JSONL file.
// It implements search.DecisionSink. Writes are buffered and flushed at
// each round end, so the per-candidate cost is an in-memory append —
// ledger writes stay off the evaluation hot path (BenchmarkLedgerAppend
// pins the per-event cost). Durability is deliberately weaker than the
// journal's fsync-per-record: the stream is derived state, and a
// resumed run recreates it byte-identically from the replayed journal.
type DecisionLog struct {
	f       *os.File
	w       *bufio.Writer
	digest  hash.Hash
	metrics *obs.Registry
	events  int64
	err     error // sticky first write error, surfaced at Close
	closed  bool
}

// CreateDecisionLog creates (or truncates) the decision log at path and
// writes its header. Truncation is correct even on -resume: the stream
// is deterministic, so the resumed search rewrites it from round 1 and
// ends with the bytes an uninterrupted run would have produced.
func CreateDecisionLog(path, fingerprint, model string) (*DecisionLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: creating decision log: %w", err)
	}
	dl := &DecisionLog{f: f, w: bufio.NewWriter(f), digest: sha256.New()}
	hdr := DecisionHeader{Kind: DecisionLogKind, V: DecisionLogVersion, Fingerprint: fingerprint, Model: model}
	if err := dl.writeLine(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return dl, nil
}

// SetMetrics attaches a registry: the log bumps the ledger_decision_*
// counters as events are written. Nil-safe no-op.
func (dl *DecisionLog) SetMetrics(reg *obs.Registry) { dl.metrics = reg }

func (dl *DecisionLog) writeLine(v any) error {
	if dl.err != nil {
		return dl.err
	}
	b, err := json.Marshal(v)
	if err == nil {
		b = append(b, '\n')
		dl.digest.Write(b)
		_, err = dl.w.Write(b)
	}
	if err != nil {
		dl.err = fmt.Errorf("ledger: writing decision log: %w", err)
	}
	return dl.err
}

func (dl *DecisionLog) event(ev DecisionEvent) {
	if dl.writeLine(ev) == nil {
		dl.events++
		dl.metrics.Counter(obs.MetricDecisionEvents).Add(1)
	}
}

// RoundStart implements search.DecisionSink.
func (dl *DecisionLog) RoundStart(round, candidates int) {
	dl.metrics.Counter(obs.MetricDecisionRounds).Add(1)
	dl.event(DecisionEvent{Ev: EvRound, Round: round, Candidates: candidates})
}

// Decide implements search.DecisionSink.
func (dl *DecisionLog) Decide(d search.Decision) {
	ev := DecisionEvent{
		Ev: EvCandidate, Round: d.Round, Seq: d.Seq, AKey: d.AKey,
		Outcome: d.Outcome, Accepted: d.Accepted,
	}
	if d.Outcome != search.DecisionPruned {
		ev.Status = d.Status.String()
		ev.Speedup = d.Speedup
		ev.RelError = d.RelError
		ev.Lowered = d.Lowered
	}
	dl.event(ev)
}

// RoundEnd implements search.DecisionSink; the buffered round is
// flushed here, between batches, never inside one.
func (dl *DecisionLog) RoundEnd(s search.RoundSummary) {
	dl.event(DecisionEvent{
		Ev: EvRoundEnd, Round: s.Round, Candidates: s.Candidates,
		Evaluated: s.Evaluated, Cached: s.Cached, Pruned: s.Pruned,
		Accepts: s.Accepted, Evals: s.Evals,
		BestSpeedup: s.BestSpeedup, BestAKey: s.BestAKey, Frontier: s.Frontier,
	})
	if dl.err == nil {
		if err := dl.w.Flush(); err != nil {
			dl.err = fmt.Errorf("ledger: flushing decision log: %w", err)
		}
	}
}

// Events returns the number of events written so far.
func (dl *DecisionLog) Events() int64 { return dl.events }

// Digest returns the hex SHA-256 of every byte written so far
// (header included) — the content digest archived in the run manifest.
func (dl *DecisionLog) Digest() string { return hex.EncodeToString(dl.digest.Sum(nil)) }

// Close flushes and closes the log, returning the first error the
// stream hit. Idempotent.
func (dl *DecisionLog) Close() error {
	if dl.closed {
		return dl.err
	}
	dl.closed = true
	if ferr := dl.w.Flush(); ferr != nil && dl.err == nil {
		dl.err = fmt.Errorf("ledger: flushing decision log: %w", ferr)
	}
	if cerr := dl.f.Close(); cerr != nil && dl.err == nil {
		dl.err = fmt.Errorf("ledger: closing decision log: %w", cerr)
	}
	return dl.err
}

// ReadDecisionLog reads a decision log back. A torn tail — a partial
// last line from a killed run — is tolerated and simply ends the
// stream; an empty or headerless file is an error, never a panic.
func ReadDecisionLog(path string) (DecisionHeader, []DecisionEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return DecisionHeader{}, nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	hdrLine, err := readLine(r)
	if err != nil || strings.TrimSpace(hdrLine) == "" {
		return DecisionHeader{}, nil, fmt.Errorf("ledger: %s: empty decision log", path)
	}
	var hdr DecisionHeader
	if err := json.Unmarshal([]byte(hdrLine), &hdr); err != nil || hdr.Kind != DecisionLogKind {
		return DecisionHeader{}, nil, fmt.Errorf("ledger: %s: not a decision log (bad header)", path)
	}
	if hdr.V != DecisionLogVersion {
		return DecisionHeader{}, nil, fmt.Errorf("ledger: %s: decision-log version %d, want %d", path, hdr.V, DecisionLogVersion)
	}
	var evs []DecisionEvent
	for {
		line, err := readLine(r)
		if line != "" {
			var ev DecisionEvent
			if jerr := json.Unmarshal([]byte(line), &ev); jerr != nil {
				break // torn tail: keep the complete prefix
			}
			evs = append(evs, ev)
		}
		if err != nil {
			break
		}
	}
	return hdr, evs, nil
}

// readLine reads one newline-terminated line; on io.EOF the partial
// remainder is returned with the error.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF && strings.TrimRight(line, "\n") != "" {
		// A line without its newline is a torn write: report it so the
		// caller can drop it, alongside the EOF.
		return "", err
	}
	return strings.TrimRight(line, "\n"), err
}
