// Package fleet shards variant evaluation across worker processes: a
// coordinator leases evaluations to `prose worker` processes over a
// JSONL protocol on TCP — children it spawns dial its loopback
// listener, off-host workers dial a -listen address — detects crash
// and hang (connection loss, missed heartbeats, lease expiry),
// reassigns expired leases, dedups double completions so the journal
// sees exactly once, and degrades to in-process evaluation when the
// pool collapses below a floor.
//
// The coordinator is a search.Evaluator: worker failures surface as
// panics carrying a *WorkerFault, so the resilience supervisor's
// existing retry/quarantine/breaker taxonomy — per-kind budgets,
// seeded backoff, sidecar events — owns the retry policy, and a lease
// reassignment is just a supervised retry. Because workers reproduce
// the coordinator's evaluations bit for bit (enforced by a fingerprint
// handshake on every connection), the evaluation journal of a tune
// that absorbed worker deaths is byte-identical to a fault-free run's
// at any pool size; worker deaths are visible only in the events
// sidecar and obs metrics.
//
// The wire protocol is one Msg struct in JSONL framing behind a
// Transport interface, which the chaos layer wraps to inject network
// faults without touching the coordinator or worker loops.
package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/journal"
	"repro/internal/obs"
)

// Message types. The worker initiates with ready; the coordinator
// grants leases; the worker answers each lease with heartbeats followed
// by exactly one result or fault; shutdown ends the session.
const (
	// MsgReady is the worker's handshake: it carries the worker's
	// evaluation fingerprint, which must equal the coordinator's or the
	// worker is retired (a worker built from different source, machine
	// model, or seed would silently corrupt the journal).
	MsgReady = "ready"
	// MsgLease grants one evaluation: assignment, per-key attempt
	// number, deadline and heartbeat interval, plus the process fault the
	// worker must inject when the coordinator injects faults.
	MsgLease = "lease"
	// MsgHeartbeat is the worker's liveness signal while evaluating.
	MsgHeartbeat = "heartbeat"
	// MsgResult answers a lease with the completed evaluation, encoded
	// as a journal.Record so its content key is integrity-checked
	// against the shared fingerprint on arrival.
	MsgResult = "result"
	// MsgFault answers a lease with a worker-side evaluation panic the
	// worker survived (the process is still healthy; only the variant's
	// evaluation infrastructure faulted).
	MsgFault = "fault"
	// MsgShutdown asks the worker to exit cleanly.
	MsgShutdown = "shutdown"
)

// Msg is one frame of the coordinator↔worker protocol. A single struct
// (rather than per-type payloads) keeps the JSONL framing trivial and
// the protocol easy to evolve: unknown fields are ignored on decode.
type Msg struct {
	Type string `json:"type"`
	// Lease identifies the lease a heartbeat/result/fault answers.
	Lease int64 `json:"lease,omitempty"`
	// Key is the canonical assignment key (lease).
	Key string `json:"key,omitempty"`
	// Attempt is the coordinator-tracked 1-based per-key attempt (lease).
	Attempt int `json:"attempt,omitempty"`
	// Assignment is the precision assignment to evaluate (lease).
	Assignment map[string]int `json:"assignment,omitempty"`
	// DeadlineMS is the lease TTL in milliseconds (lease; advisory — the
	// coordinator enforces expiry, the worker may use it to self-limit).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// HeartbeatMS is the interval in milliseconds at which the worker
	// beats while it evaluates this lease (lease). The coordinator
	// expects this beat; a lease without it beats at DefaultHeartbeat.
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// Inject is the process fault the worker must fire for this lease
	// (lease; nil = none). The coordinator decides it from Faults.
	Inject *Inject `json:"inject,omitempty"`
	// Fingerprint is the evaluation fingerprint (ready).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Result is the completed evaluation (result).
	Result *journal.Record `json:"result,omitempty"`
	// Fault is the rendered evaluation panic (fault).
	Fault string `json:"fault,omitempty"`
	// Persistent marks a fault retrying cannot cure (fault).
	Persistent bool `json:"persistent,omitempty"`
	// Session identifies a worker across reconnects (ready). A spawned
	// child uses the one its coordinator handed it, and only such
	// sessions are admitted on the coordinator's loopback listener.
	Session string `json:"session,omitempty"`
	// LastLease is the lease a reconnecting network worker still holds
	// in flight (ready). The coordinator uses it to re-adopt the
	// worker's parked lease — or, on a mismatch, to expire the orphan —
	// so no lease is ever double-honored across a partition.
	LastLease int64 `json:"last_lease,omitempty"`

	// Obs carries the coordinator's trace context on a lease grant; its
	// presence is what switches a worker's local tracing/metrics on
	// (observability stays alloc-free on the worker until the first
	// instrumented lease arrives). Observability fields never influence
	// evaluation and are never fingerprinted.
	Obs *ObsCtx `json:"obs,omitempty"`
	// Spans are completed worker spans shipped back piggybacked on
	// heartbeat/result/fault frames, at most MaxSpanBatch per frame,
	// with Start offsets on the worker's own tracer epoch (the
	// coordinator rebases them using TraceNow).
	Spans []obs.SpanRecord `json:"spans,omitempty"`
	// TraceNow is the sender's tracer-epoch offset (ns) at send time,
	// set on any frame carrying Spans. The coordinator computes
	// epoch skew as (its own Now) − TraceNow and shifts the shipped
	// spans onto its epoch.
	TraceNow int64 `json:"trace_now,omitempty"`
	// MetricsSnap is the worker's full registry snapshot, piggybacked
	// on heartbeat/result/fault frames when metrics shipping is on.
	MetricsSnap *obs.Snapshot `json:"metrics,omitempty"`
	// ObsSeq is the worker's monotonic sequence number covering Spans
	// and MetricsSnap on this frame. Chaos transports can delay,
	// duplicate, or reorder frames; the coordinator accepts only
	// strictly increasing sequences per worker connection, so a stale
	// snapshot can never overwrite a newer one and duplicated span
	// batches splice exactly once.
	ObsSeq int64 `json:"obs_seq,omitempty"`
}

// ObsCtx is the trace context a lease grant propagates to the worker.
type ObsCtx struct {
	// SpanID is the coordinator-side fleet.lease span the worker's
	// spans should parent under (hex, as rendered by SpanID.String).
	SpanID string `json:"span_id,omitempty"`
	// Fingerprint seeds the worker's tracer so its derived span IDs
	// agree with the coordinator's deterministic ID scheme.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Metrics asks the worker to also snapshot and ship its registry.
	Metrics bool `json:"metrics,omitempty"`
}

// MaxSpanBatch caps the span records piggybacked on a single frame.
// 256 records at worst-case attribute load stay well inside MaxFrame;
// a worker with more finished spans ships the overflow on extra
// heartbeat frames rather than growing one frame unboundedly.
const MaxSpanBatch = 256

// Transport carries Msgs between coordinator and worker. Send must be
// safe for concurrent use (the worker heartbeats from a side goroutine
// while evaluating); Recv is called from a single goroutine. Close
// unblocks a pending Recv.
type Transport interface {
	Send(Msg) error
	Recv() (Msg, error)
	Close() error
}

// MaxFrame caps one JSONL frame (one line, newline included). The
// largest legitimate frame is a result carrying a journal.Record —
// well under a megabyte — so 8 MiB is generous headroom while keeping
// a malicious or corrupt network peer from forcing unbounded buffering.
const MaxFrame = 8 << 20

// FrameError is a typed framing fault: a frame that is oversized,
// truncated mid-line, or not valid JSON. Transports surface it from
// Recv so the coordinator can distinguish a protocol-violating peer
// (retire the connection, fail its lease) from an orderly close.
type FrameError struct {
	// Oversized reports the frame exceeded MaxFrame.
	Oversized bool
	// Len is the number of bytes seen before the frame was abandoned.
	Len int
	// Err is the underlying decode error, if any.
	Err error
}

func (e *FrameError) Error() string {
	if e.Oversized {
		return fmt.Sprintf("fleet: frame exceeds %d-byte cap (read %d bytes)", MaxFrame, e.Len)
	}
	if e.Err != nil {
		return fmt.Sprintf("fleet: malformed frame (%d bytes): %v", e.Len, e.Err)
	}
	return fmt.Sprintf("fleet: malformed frame (%d bytes)", e.Len)
}

func (e *FrameError) Unwrap() error { return e.Err }

// marshalFrame encodes one Msg as a newline-terminated JSONL frame,
// refusing frames over MaxFrame (a peer enforcing the cap on Recv
// would otherwise drop them anyway).
func marshalFrame(m Msg) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if len(b)+1 > MaxFrame {
		return nil, &FrameError{Oversized: true, Len: len(b) + 1}
	}
	return append(b, '\n'), nil
}

// frameReader decodes newline-delimited Msg frames with the MaxFrame
// cap enforced while reading — an oversized line is abandoned without
// buffering it whole.
type frameReader struct {
	br *bufio.Reader
	// line is the buffer of the last frame read, reused for the next:
	// Msg holds no json.RawMessage, so nothing aliases it once decoded.
	line []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// readLine returns the next line (newline stripped), valid until the
// next call. A clean EOF at a frame boundary is io.EOF; bytes followed
// by EOF mid-line are a truncated frame, reported as a *FrameError.
func (fr *frameReader) readLine() ([]byte, error) {
	line := fr.line[:0]
	for {
		chunk, err := fr.br.ReadSlice('\n')
		n := len(line) + len(chunk)
		if n > MaxFrame {
			return nil, &FrameError{Oversized: true, Len: n}
		}
		if n > cap(line) { // double, so refusing a frame allocates < 2×MaxFrame
			line = append(make([]byte, 0, min(max(2*cap(line), n), MaxFrame)), line...)
		}
		// ReadSlice's chunk aliases the bufio buffer; copy before the
		// next read invalidates it.
		line = append(line, chunk...)
		switch err {
		case nil:
			fr.line = line
			return line[:len(line)-1], nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(line) == 0 {
				return nil, io.EOF
			}
			return nil, &FrameError{Len: len(line), Err: io.ErrUnexpectedEOF}
		default:
			return nil, err
		}
	}
}

// next decodes the next frame, skipping blank lines.
func (fr *frameReader) next() (Msg, error) {
	for {
		line, err := fr.readLine()
		if err != nil {
			return Msg{}, err
		}
		if len(line) == 0 {
			continue
		}
		var m Msg
		if err := json.Unmarshal(line, &m); err != nil {
			return Msg{}, &FrameError{Len: len(line), Err: err}
		}
		return m, nil
	}
}

// decodeResult validates and decodes a MsgResult payload: the record's
// content key must match the shared fingerprint and the leased
// assignment key, exactly as the journal validates its own lines — a
// corrupt frame or a confused worker cannot smuggle a wrong-variant
// record into the evaluation stream.
func decodeResult(fingerprint, wantKey string, m Msg) (*journal.Record, error) {
	rec := m.Result
	if rec == nil {
		return nil, fmt.Errorf("fleet: result frame without payload")
	}
	if rec.AKey != wantKey {
		return nil, fmt.Errorf("fleet: result for %q answers a lease on %q", rec.AKey, wantKey)
	}
	if rec.Key != journal.RecordKey(fingerprint, rec.AKey) {
		return nil, fmt.Errorf("fleet: result for %q fails its content-key check", rec.AKey)
	}
	return rec, nil
}
