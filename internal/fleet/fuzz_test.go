package fleet

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// fuzzSeedMsgs is one frame of each message type, with the payloads a
// real session carries: a lease with its heartbeat interval and fault
// mark, a result with its journal.Record, and a heartbeat with shipped
// spans and a metrics snapshot.
func fuzzSeedMsgs() []Msg {
	const fp = "fp-fuzz"
	akey := "funarc.fun.d1=4;funarc.fun.s1=4"
	return []Msg{
		{Type: MsgReady, Fingerprint: fp, Session: "s-1", LastLease: 3},
		{Type: MsgLease, Lease: 4, Key: akey, Attempt: 2, DeadlineMS: 30000, HeartbeatMS: 250,
			Assignment: map[string]int{"funarc.fun.d1": 4, "funarc.fun.s1": 4},
			Inject:     &Inject{Kind: InjectSlow, Delay: 600 * time.Millisecond},
			Obs:        &ObsCtx{SpanID: "00000000000000a1", Fingerprint: fp, Metrics: true}},
		{Type: MsgHeartbeat, Lease: 4, TraceNow: 123456, ObsSeq: 7,
			Spans: []obs.SpanRecord{{ID: 0xa2, Parent: 0xa1, Name: "worker.eval", Worker: 1, PID: 2,
				Start: 1000, Dur: 2500, Attrs: []obs.Attr{{Key: "key", Value: akey}}}},
			MetricsSnap: &obs.Snapshot{
				Counters: map[string]int64{"evals": 3},
				Gauges:   map[string]float64{"busy": 0.5},
				Histograms: map[string]obs.HistogramSnapshot{"eval_ms": {Count: 2, Sum: 3.5, Min: 1.25,
					Max: 2.25, Mean: 1.75, Buckets: map[int]int64{1: 1, 2: 1}}}}},
		{Type: MsgResult, Lease: 4, Result: &journal.Record{Key: journal.RecordKey(fp, akey), AKey: akey,
			Index: 5, Status: "pass", Speedup: 1.5586910282059592, RelError: 2.0425453490316386e-7,
			Lowered: 2, TotalAtoms: 8, Detail: "ok"}},
		{Type: MsgFault, Lease: 5, Fault: "panic: evaluation exploded", Persistent: true},
		{Type: MsgShutdown},
	}
}

// FuzzFrameReader feeds arbitrary bytes to the frame decoder until it
// returns an error. The decoder must never panic, and every error it
// returns must be io.EOF or a *FrameError. decodeResult must not panic
// on any decoded Msg. A Msg that marshalFrame accepts must decode back
// deep-equal, as each seed does, and its wire form must be stable. A
// decoded Msg may hold an empty map or slice, which the omitempty
// encoding does not carry, so for fuzzed input the check starts from
// one round trip.
func FuzzFrameReader(f *testing.F) {
	var stream []byte
	for _, m := range fuzzSeedMsgs() {
		b, err := marshalFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		if got := decodeFrame(f, b); !reflect.DeepEqual(got, m) {
			f.Fatalf("%s frame decoded to %+v, want %+v", m.Type, got, m)
		}
		f.Add(b)
		stream = append(stream, b...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-7]) // the last frame cut mid-line
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for {
			m, err := fr.next()
			if err != nil {
				var fe *FrameError
				if err != io.EOF && !errors.As(err, &fe) {
					t.Fatalf("decoder error %T (%v), want io.EOF or *FrameError", err, err)
				}
				return
			}
			_, _ = decodeResult("fp-fuzz", m.Key, m)
			if m.Result != nil {
				_, _ = decodeResult("fp-fuzz", m.Result.AKey, m)
			}
			b1, err := marshalFrame(m)
			if err != nil {
				continue
			}
			m1 := decodeFrame(t, b1)
			b2, err := marshalFrame(m1)
			if err != nil {
				t.Fatalf("re-encoding a decoded frame: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("wire form changed across a round trip:\n%s%s", b1, b2)
			}
			if m2 := decodeFrame(t, b2); !reflect.DeepEqual(m1, m2) {
				t.Fatalf("frame did not decode back deep-equal:\n%+v\n%+v", m1, m2)
			}
		}
	})
}

// decodeFrame decodes a frame marshalFrame produced, which must hold
// exactly one Msg.
func decodeFrame(t testing.TB, b []byte) Msg {
	t.Helper()
	fr := newFrameReader(bytes.NewReader(b))
	m, err := fr.next()
	if err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("decoding %q: trailing data (%v)", b, err)
	}
	return m
}
