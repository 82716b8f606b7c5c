package fleet

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/transform"
)

// startNetFleet starts a coordinator for dial-in workers on a loopback
// listener and returns it with its dial address.
func startNetFleet(t *testing.T, cfg Config, rt Runtime) (*Coordinator, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cfg.Listener = ln
	c := startFleet(t, cfg, rt)
	return c, ln.Addr().String()
}

// startNetWorker runs an in-process ServeNet worker against addr; the
// returned WaitGroup completes when the worker loop exits (shutdown
// frame, or dial budget spent once the listener is gone).
func startNetWorker(t *testing.T, addr, session string, mut ...func(*NetServeConfig)) *sync.WaitGroup {
	t.Helper()
	cfg := NetServeConfig{
		Addr:             addr,
		Eval:             stubEval{},
		Fingerprint:      stubFingerprint,
		Session:          session,
		ReconnectBackoff: 10 * time.Millisecond,
		MaxDials:         5,
		DialTimeout:      2 * time.Second,
		SendTimeout:      2 * time.Second,
	}
	for _, m := range mut {
		m(&cfg)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ServeNet(cfg)
	}()
	return &wg
}

// rawClient is a hand-driven worker for protocol-level tests: it
// speaks just enough of the wire protocol to misbehave on cue.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	tr   Transport
}

func dialRaw(t *testing.T, addr, session string, lastLease int64) *rawClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	tr := NewNetTransport(conn, 2*time.Second)
	if err := tr.Send(Msg{Type: MsgReady, Fingerprint: stubFingerprint,
		Session: session, LastLease: lastLease}); err != nil {
		t.Fatalf("handshake send: %v", err)
	}
	return &rawClient{t: t, conn: conn, tr: tr}
}

// recvLease reads frames until a lease grant arrives.
func (rc *rawClient) recvLease() Msg {
	rc.t.Helper()
	for {
		m, err := rc.tr.Recv()
		if err != nil {
			rc.t.Fatalf("recv: %v", err)
		}
		if m.Type == MsgLease {
			return m
		}
	}
}

// result builds the correct reply for a lease, exactly as a healthy
// worker would (content-keyed journal record over the stub evaluator).
func (rc *rawClient) result(m Msg) Msg {
	ev := stubEval{}.Evaluate(transform.Assignment(m.Assignment))
	rec := journal.FromEvaluation(stubFingerprint, ev)
	return Msg{Type: MsgResult, Lease: m.Lease, Result: &rec}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNetFleetEvaluatesOnDialingWorkers(t *testing.T) {
	sink := &eventSink{}
	c, addr := startNetFleet(t, Config{Workers: 2, OnEvent: sink.record}, Runtime{})
	w1 := startNetWorker(t, addr, "w1")
	w2 := startNetWorker(t, addr, "w2")

	var wg sync.WaitGroup
	results := make([]*search.Evaluation, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Evaluate(asn(i + 1))
		}(i)
	}
	wg.Wait()
	for i, ev := range results {
		want := stubEval{}.Evaluate(asn(i + 1))
		if ev.Status != want.Status || ev.Speedup != want.Speedup {
			t.Errorf("eval %d: got %+v, want %+v", i, ev, want)
		}
	}
	st := c.Stats()
	if st.Leases != int64(len(results)) {
		t.Errorf("Leases = %d, want %d", st.Leases, len(results))
	}
	if st.Reconnects != 0 || st.PartitionExpired != 0 || st.DupRefused != 0 || st.FrameErrors != 0 {
		t.Errorf("clean run has network incidents: %+v", st)
	}
	c.Close()
	w1.Wait()
	w2.Wait()
}

func TestNetWorkerReconnectResumesInFlightLease(t *testing.T) {
	sink := &eventSink{}
	c, addr := startNetFleet(t, Config{
		Workers:         1,
		LeaseTTL:        10 * time.Second,
		Heartbeat:       20 * time.Millisecond,
		HeartbeatMisses: 8,
		OnEvent:         sink.record,
	}, Runtime{})

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var connMu sync.Mutex
	var liveConn net.Conn
	w := startNetWorker(t, addr, "resume", func(cfg *NetServeConfig) {
		cfg.Eval = evalFunc(func(a transform.Assignment) *search.Evaluation {
			started <- struct{}{}
			<-release
			return stubEval{}.Evaluate(a)
		})
		cfg.HeartbeatMissLimit = 3
		cfg.Dial = func() (Transport, error) {
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			connMu.Lock()
			liveConn = conn
			connMu.Unlock()
			return NewNetTransport(conn, 2*time.Second), nil
		}
	})

	resCh := make(chan *search.Evaluation, 1)
	go func() { resCh <- supervise(c).Evaluate(asn(3)) }()
	<-started

	// Sever the connection mid-evaluation: the coordinator must park
	// the lease, the worker's failed heartbeats must trigger a redial,
	// and the session resume must re-adopt the same lease — no second
	// grant, no reassignment.
	connMu.Lock()
	liveConn.Close()
	connMu.Unlock()
	waitFor(t, "session reconnect", func() bool { return c.Stats().Reconnects >= 1 })

	close(release)
	ev := <-resCh
	if ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	st := c.Stats()
	if st.Leases != 1 {
		t.Errorf("Leases = %d, want exactly 1 (the lease was resumed, not re-granted)", st.Leases)
	}
	if st.PartitionExpired != 0 {
		t.Errorf("PartitionExpired = %d, want 0", st.PartitionExpired)
	}
	if sink.count(EventWorkerReconnect) < 1 {
		t.Errorf("no worker_reconnect event; events: %+v", sink.events)
	}
	c.Close()
	w.Wait()
}

func TestPartitionExpiryReassignsParkedLease(t *testing.T) {
	sink := &eventSink{}
	c, addr := startNetFleet(t, Config{
		Workers:         1,
		LeaseTTL:        200 * time.Millisecond,
		Heartbeat:       20 * time.Millisecond,
		HeartbeatMisses: 50,
		OnEvent:         sink.record,
	}, Runtime{})

	resCh := make(chan *search.Evaluation, 1)
	go func() { resCh <- supervise(c).Evaluate(asn(2)) }()

	// A worker takes the lease and vanishes for good: the parked lease
	// must expire at its original deadline and be reassigned.
	rc := dialRaw(t, addr, "goner", 0)
	rc.recvLease()
	rc.conn.Close()
	waitFor(t, "partition expiry", func() bool { return c.Stats().PartitionExpired >= 1 })

	// A healthy worker arrives and serves the supervised retry.
	w := startNetWorker(t, addr, "healthy")
	ev := <-resCh
	if ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	if n := sink.count(EventPartitionExpired); n != 1 {
		t.Errorf("partition_expired events = %d, want 1", n)
	}
	c.Close()
	w.Wait()
}

// TestReplacementWorkerObsStartsFresh: when a dial-in session leaves
// and a new session binds its slot, the slot's obs sequence and
// snapshot restart with the new worker, so its shipments are neither
// dropped as stale nor merged as a delta against the old worker's
// registry.
func TestReplacementWorkerObsStartsFresh(t *testing.T) {
	reg := obs.NewRegistry()
	c, addr := startNetFleet(t, Config{Workers: 1, LeaseTTL: 200 * time.Millisecond},
		Runtime{Metrics: reg})
	answer := func(rc *rawClient, seq, evals int64) {
		t.Helper()
		reply := rc.result(rc.recvLease())
		reply.ObsSeq = seq
		reply.MetricsSnap = &obs.Snapshot{Counters: map[string]int64{"evals": evals}}
		if err := rc.tr.Send(reply); err != nil {
			t.Fatalf("send result: %v", err)
		}
	}
	resCh := make(chan *search.Evaluation, 1)
	go func() { resCh <- supervise(c).Evaluate(asn(1)) }()
	a := dialRaw(t, addr, "a", 0)
	answer(a, 5, 5)
	if ev := <-resCh; ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}

	// Session a takes the next lease and vanishes; once the parked lease
	// expires the slot is free for session b.
	go func() { resCh <- supervise(c).Evaluate(asn(2)) }()
	a.recvLease()
	a.conn.Close()
	waitFor(t, "partition expiry", func() bool { return c.Stats().PartitionExpired >= 1 })
	b := dialRaw(t, addr, "b", 0)
	defer b.conn.Close()
	answer(b, 1, 1)
	if ev := <-resCh; ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}

	snap := reg.Snapshot()
	if n := snap.Counters[obs.MetricFleetObsStale]; n != 0 {
		t.Errorf("%s = %d, want 0 (the new worker's first shipment was dropped)", obs.MetricFleetObsStale, n)
	}
	if n := snap.Counters[obs.MetricFleetWorkersPrefix+"evals"]; n != 6 {
		t.Errorf("merged evals = %d, want 6 (5 from a, 1 from b)", n)
	}
	if h := c.Health(); h[0].MetricsSeq != 1 {
		t.Errorf("MetricsSeq = %d, want 1 (session b's)", h[0].MetricsSeq)
	}
}

func TestDuplicateReplyIsRefusedOnce(t *testing.T) {
	sink := &eventSink{}
	c, addr := startNetFleet(t, Config{Workers: 1, OnEvent: sink.record}, Runtime{})

	resCh := make(chan *search.Evaluation, 2)
	for i := 1; i <= 2; i++ {
		go func(i int) { resCh <- supervise(c).Evaluate(asn(i)) }(i)
	}

	rc := dialRaw(t, addr, "dup", 0)
	l1 := rc.recvLease()
	// The network "duplicates" the first reply. The first copy
	// completes the lease; the second must be refused by the
	// monotonic-lease dedup while the next lease is being served.
	r1 := rc.result(l1)
	if err := rc.tr.Send(r1); err != nil {
		t.Fatalf("send result: %v", err)
	}
	if err := rc.tr.Send(r1); err != nil {
		t.Fatalf("send duplicate: %v", err)
	}
	l2 := rc.recvLease()
	if err := rc.tr.Send(rc.result(l2)); err != nil {
		t.Fatalf("send result 2: %v", err)
	}
	for i := 0; i < 2; i++ {
		if ev := <-resCh; ev.Status != search.StatusPass {
			t.Fatalf("eval %d: status = %v, want pass", i, ev.Status)
		}
	}
	waitFor(t, "dup refusal", func() bool { return c.Stats().DupRefused >= 1 })
	st := c.Stats()
	if st.DupRefused != 1 {
		t.Errorf("DupRefused = %d, want 1", st.DupRefused)
	}
	if sink.count(EventDupRefused) != 1 {
		t.Errorf("dup_refused events = %d, want 1", sink.count(EventDupRefused))
	}
	rc.conn.Close()
}

// TestLateResultAfterExpiryIsDeduped: a reply that outlives its expired
// lease is refused once (dup_refused), and the supervised retry passes.
// The expiry ends the worker's session, so the worker redials and
// re-offers its stale reply before it answers the retry's lease.
func TestLateResultAfterExpiryIsDeduped(t *testing.T) {
	sink := &eventSink{}
	c, addr := startNetFleet(t, Config{
		Workers:         1,
		LeaseTTL:        150 * time.Millisecond,
		Heartbeat:       20 * time.Millisecond,
		HeartbeatMisses: 50, // the raw worker never beats: the expiry, not silence, must end the lease
		OnEvent:         sink.record,
	}, Runtime{})

	resCh := make(chan *search.Evaluation, 1)
	go func() { resCh <- supervise(c).Evaluate(asn(4)) }()

	rc := dialRaw(t, addr, "late", 0)
	l1 := rc.recvLease()
	// Hold the lease past its deadline: the coordinator hangs up.
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := rc.tr.Recv(); err != nil {
			break
		}
	}
	rc.conn.Close()

	rc2 := dialRaw(t, addr, "late", l1.Lease)
	defer rc2.conn.Close()
	if err := rc2.tr.Send(rc2.result(l1)); err != nil {
		t.Fatalf("re-offer stale reply: %v", err)
	}
	l2 := rc2.recvLease()
	if l2.Lease == l1.Lease {
		t.Fatalf("the retry reused expired lease %d", l1.Lease)
	}
	if err := rc2.tr.Send(rc2.result(l2)); err != nil {
		t.Fatalf("send result: %v", err)
	}
	if ev := <-resCh; ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	waitFor(t, "dup refusal", func() bool { return c.Stats().DupRefused >= 1 })
	if st := c.Stats(); st.Expired != 1 || st.DupRefused != 1 {
		t.Errorf("Expired = %d, DupRefused = %d; want 1 each", st.Expired, st.DupRefused)
	}
	if sink.count(EventLeaseExpired) != 1 || sink.count(EventDupRefused) != 1 {
		t.Errorf("want one lease_expired and one dup_refused event: %+v", sink.events)
	}
}

func TestMalformedFrameFailsLeaseAndRetiresConnection(t *testing.T) {
	sink := &eventSink{}
	c, addr := startNetFleet(t, Config{
		Workers:     1,
		MaxRestarts: 5,
		OnEvent:     sink.record,
	}, Runtime{})

	resCh := make(chan *search.Evaluation, 1)
	go func() { resCh <- supervise(c).Evaluate(asn(2)) }()

	rc := dialRaw(t, addr, "garbler", 0)
	rc.recvLease()
	// A malformed frame mid-lease is a protocol breach, not a
	// partition: the lease fails (supervised retry) and the
	// connection is retired.
	if _, err := rc.conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	// The coordinator must hang up on us.
	rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	for {
		if _, err := rc.conn.Read(buf); err != nil {
			break
		}
	}

	w := startNetWorker(t, addr, "clean", func(cfg *NetServeConfig) { cfg.MaxDials = 10 })
	ev := <-resCh
	if ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	waitFor(t, "frame error count", func() bool { return c.Stats().FrameErrors >= 1 })
	if st := c.Stats(); st.FrameErrors != 1 {
		t.Errorf("FrameErrors = %d, want 1", st.FrameErrors)
	}
	if st := c.Stats(); st.PartitionExpired != 0 {
		t.Errorf("PartitionExpired = %d, want 0 (breach, not partition)", st.PartitionExpired)
	}
	c.Close()
	w.Wait()
}

// evalFunc adapts a function to search.Evaluator.
type evalFunc func(transform.Assignment) *search.Evaluation

func (f evalFunc) Evaluate(a transform.Assignment) *search.Evaluation { return f(a) }

// hbFailTransport accepts handshake frames but fails every heartbeat
// send; Recv blocks until Close.
type hbFailTransport struct {
	mu      sync.Mutex
	hbFails int
	closed  chan struct{}
	once    sync.Once
}

func newHBFailTransport() *hbFailTransport {
	return &hbFailTransport{closed: make(chan struct{})}
}

func (tr *hbFailTransport) Send(m Msg) error {
	if m.Type == MsgHeartbeat {
		tr.mu.Lock()
		tr.hbFails++
		tr.mu.Unlock()
		return errors.New("link down")
	}
	return nil
}

func (tr *hbFailTransport) failures() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.hbFails
}

func (tr *hbFailTransport) Recv() (Msg, error) {
	<-tr.closed
	return Msg{}, io.EOF
}

func (tr *hbFailTransport) Close() error {
	tr.once.Do(func() { close(tr.closed) })
	return nil
}

// TestHeartbeatMissLimitTriggersReconnect pins the satellite contract:
// exactly HeartbeatMissLimit consecutive failed heartbeat sends — not
// one, not a lucky flake — trigger a reconnect, and the worker
// reconnects rather than exiting.
func TestHeartbeatMissLimitTriggersReconnect(t *testing.T) {
	if DefaultHeartbeatMissLimit != 3 {
		t.Fatalf("DefaultHeartbeatMissLimit = %d, want 3 (documented contract)", DefaultHeartbeatMissLimit)
	}
	var dials atomic.Int64
	var trMu sync.Mutex
	var transports []*hbFailTransport
	cfg := &NetServeConfig{
		Fingerprint:        stubFingerprint,
		Session:            "hb",
		HeartbeatMissLimit: 3,
		ReconnectBackoff:   time.Millisecond,
		MaxDials:           100,
		Dial: func() (Transport, error) {
			tr := newHBFailTransport()
			trMu.Lock()
			transports = append(transports, tr)
			trMu.Unlock()
			dials.Add(1)
			return tr, nil
		},
	}
	lk := &netLink{cfg: cfg}
	if _, err := lk.redial(0); err != nil {
		t.Fatalf("initial dial: %v", err)
	}
	stop := lk.heartbeats(1, 5*time.Millisecond, nil)
	waitFor(t, "heartbeat-triggered redial", func() bool { return dials.Load() >= 2 })
	stop()
	trMu.Lock()
	first := transports[0]
	trMu.Unlock()
	if got := first.failures(); got != 3 {
		t.Errorf("heartbeat failures before reconnect = %d, want exactly %d", got, 3)
	}
}

func TestNetChaosSoakAllEvaluationsSurvive(t *testing.T) {
	sink := &eventSink{}
	c, addr := startNetFleet(t, Config{
		Workers:         2,
		LeaseTTL:        2 * time.Second,
		Heartbeat:       20 * time.Millisecond,
		HeartbeatMisses: 8,
		MaxRestarts:     100,
		OnEvent:         sink.record,
		Faults: &Faults{
			Seed:         7,
			Drop:         0.05,
			Dup:          0.05,
			Reorder:      0.03,
			Partition:    0.02,
			PartitionFor: 100 * time.Millisecond,
		},
	}, Runtime{})
	workers := []*sync.WaitGroup{
		startNetWorker(t, addr, "chaos-a", func(cfg *NetServeConfig) { cfg.MaxDials = 50; cfg.HeartbeatMissLimit = 3 }),
		startNetWorker(t, addr, "chaos-b", func(cfg *NetServeConfig) { cfg.MaxDials = 50; cfg.HeartbeatMissLimit = 3 }),
	}
	sup := &resilience.Supervised{Inner: c, Policy: resilience.Policy{
		Retries:       10,
		RetriesByKind: resilience.DefaultRetryBudgets(10),
		Backoff:       resilience.Backoff{Base: time.Millisecond, Seed: 1},
	}}
	var wg sync.WaitGroup
	results := make([]*search.Evaluation, 20)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sup.Evaluate(asn(i%6 + 1))
		}(i)
	}
	wg.Wait()
	for i, ev := range results {
		want := stubEval{}.Evaluate(asn(i%6 + 1))
		if ev == nil || ev.Status != want.Status || ev.Speedup != want.Speedup {
			t.Errorf("eval %d: got %+v, want %+v", i, ev, want)
		}
	}
	if st := c.Stats(); st.Degraded {
		t.Errorf("fleet degraded under chaos: %q", st.DegradeDetail)
	}
	c.Close()
	for _, w := range workers {
		w.Wait()
	}
}

func TestNetConfigValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	if _, err := New(Config{Workers: 1, Spawn: stubSpawn(t), Listener: ln}); err == nil {
		t.Error("Spawn+Listener accepted; they are mutually exclusive")
	}
	if _, err := New(Config{Workers: 1, Listener: ln}); err != nil {
		t.Errorf("valid dial-in config rejected: %v", err)
	}
	if err := ServeNet(NetServeConfig{Eval: stubEval{}}); err == nil {
		t.Error("ServeNet without Addr/Dial accepted")
	}
	if err := ServeNet(NetServeConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("ServeNet without Eval accepted")
	}
}

func TestFrameReaderCapsAndTypedErrors(t *testing.T) {
	// Malformed JSON: typed *FrameError wrapping the decode error.
	fr := newFrameReader(strings.NewReader("{\"type\":\"ready\"}\nnot json\n"))
	if m, err := fr.next(); err != nil || m.Type != MsgReady {
		t.Fatalf("first frame: %v, %v", m, err)
	}
	_, err := fr.next()
	var fe *FrameError
	if !errors.As(err, &fe) || fe.Oversized {
		t.Fatalf("malformed frame error = %v, want non-oversized *FrameError", err)
	}

	// Oversized frame: refused while reading, not buffered whole.
	big := strings.Repeat("x", MaxFrame+16)
	fr = newFrameReader(strings.NewReader(big + "\n"))
	_, err = fr.next()
	if !errors.As(err, &fe) || !fe.Oversized {
		t.Fatalf("oversized frame error = %v, want oversized *FrameError", err)
	}

	// Blank lines are skipped; clean EOF at a boundary is io.EOF.
	fr = newFrameReader(strings.NewReader("\n\n{\"type\":\"heartbeat\"}\n"))
	if m, err := fr.next(); err != nil || m.Type != MsgHeartbeat {
		t.Fatalf("frame after blanks: %v, %v", m, err)
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("clean EOF = %v, want io.EOF", err)
	}

	// Truncation mid-frame is a framing fault, not a clean end.
	fr = newFrameReader(strings.NewReader("{\"type\":\"rea"))
	_, err = fr.next()
	if !errors.As(err, &fe) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame error = %v, want *FrameError wrapping ErrUnexpectedEOF", err)
	}

	// Send-side enforcement: a frame over the cap is refused before it
	// leaves the process.
	_, err = marshalFrame(Msg{Type: MsgFault, Fault: strings.Repeat("y", MaxFrame)})
	if !errors.As(err, &fe) || !fe.Oversized {
		t.Fatalf("marshalFrame oversize = %v, want oversized *FrameError", err)
	}
}

// endless is a peer that sends bytes and never a newline.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestOversizedFrameAllocationBound: refusing a frame that never ends
// allocates at most 2×MaxFrame beside the read buffer. Growing the line
// by append cost 6×MaxFrame in 41 allocations. Other goroutines can only
// add to a reading, so the least of three is the reader's own.
func TestOversizedFrameAllocationBound(t *testing.T) {
	least := uint64(math.MaxUint64)
	for range 3 {
		fr := newFrameReader(endless{})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := fr.next()
		runtime.ReadMemStats(&after)
		var fe *FrameError
		if !errors.As(err, &fe) || !fe.Oversized {
			t.Fatalf("endless frame error = %v, want oversized *FrameError", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	const bound = 2*MaxFrame + 64<<10
	if least > bound {
		t.Errorf("refusing an oversized frame allocated %d bytes, want at most %d", least, bound)
	}
}

func TestChaosTransportIsDeterministic(t *testing.T) {
	// Two chaos instances with the same seed must make identical
	// decisions over the same frame sequence.
	run := func() []string {
		ch := newChaos(&Faults{Seed: 42, Drop: 0.2, Dup: 0.2, Reorder: 0.1})
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		tr := ch.wrap(NewNetTransport(a, time.Second), func() {})
		peer := NewNetTransport(b, time.Second)
		var got []string
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				m, err := peer.Recv()
				if err != nil {
					return
				}
				got = append(got, fmt.Sprintf("%s/%d", m.Type, m.Lease))
			}
		}()
		for i := 1; i <= 30; i++ {
			tr.Send(Msg{Type: MsgHeartbeat, Lease: int64(i)})
		}
		a.Close()
		<-done
		return got
	}
	first := run()
	second := run()
	if len(first) == 0 || len(first) == 30 {
		t.Fatalf("chaos did nothing observable over 30 frames: %d delivered", len(first))
	}
	if strings.Join(first, ",") != strings.Join(second, ",") {
		t.Errorf("chaos not deterministic:\n  %v\n  %v", first, second)
	}
}

// TestParseFaults: a -fleet-faults spec sets exactly the Faults fields
// its keys name, with seed 1 and a 150ms partition window by default;
// an unknown key or an unparsable value is an error.
func TestParseFaults(t *testing.T) {
	f, err := ParseFaults("kill=0.15, seed=7,wedge=m.p.v0;m.p.v1;,drop=0.02,dup=0.05,reorder=0.02,delay=1ms,partition=0.03")
	if err != nil {
		t.Fatal(err)
	}
	want := &Faults{Seed: 7, KillRate: 0.15, WedgeKey: "m.p.v0;m.p.v1;", Drop: 0.02, Dup: 0.05,
		Reorder: 0.02, Delay: time.Millisecond, Partition: 0.03, PartitionFor: 150 * time.Millisecond}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("parsed %+v, want %+v", f, want)
	}
	if f, err := ParseFaults(" "); f != nil || err != nil {
		t.Errorf("empty spec = %+v, %v; want nil, nil", f, err)
	}
	if f, err := ParseFaults("drop=0.1"); err != nil || f.Seed != 1 {
		t.Errorf("drop=0.1 = %+v, %v; want seed 1", f, err)
	}
	for _, bad := range []string{"crash=k", "kill", "kill=lots", "delay=5", "partition-for=soon",
		"-,kill=0.5", "--,kill=0.5", "-kill=0.5", "wedge,drop=0.1", "=0.5"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}

// TestLeaseWithoutHeartbeatBeatsAtDefault: a lease frame that carries
// no heartbeat interval makes the worker beat at DefaultHeartbeat
// instead of panicking on a zero ticker interval.
func TestLeaseWithoutHeartbeatBeatsAtDefault(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	release := make(chan struct{})
	w := startNetWorker(t, ln.Addr().String(), "no-beat", func(cfg *NetServeConfig) {
		cfg.Eval = evalFunc(func(a transform.Assignment) *search.Evaluation {
			<-release
			return stubEval{}.Evaluate(a)
		})
	})
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	tr := NewNetTransport(conn, 2*time.Second)
	if m, err := tr.Recv(); err != nil || m.Type != MsgReady {
		t.Fatalf("handshake = %+v, %v", m, err)
	}
	sent := time.Now()
	if err := tr.Send(Msg{Type: MsgLease, Lease: 1, Key: asn(1).Key(), Attempt: 1, Assignment: asn(1)}); err != nil {
		t.Fatal(err)
	}
	m, err := tr.Recv()
	if err != nil || m.Type != MsgHeartbeat {
		t.Fatalf("first frame = %+v, %v; want a heartbeat", m, err)
	}
	if gap := time.Since(sent); gap < DefaultHeartbeat {
		t.Errorf("first heartbeat %v after the lease, want at least DefaultHeartbeat (%v)", gap, DefaultHeartbeat)
	}
	close(release)
	for m.Type != MsgResult {
		if m, err = tr.Recv(); err != nil {
			t.Fatalf("awaiting the result: %v", err)
		}
	}
	tr.Send(Msg{Type: MsgShutdown})
	w.Wait()
}

func TestNetFleetCleanShutdownUnblocksEverything(t *testing.T) {
	// One slot never sees a connection: Close must still return — the
	// idle slot's loop unblocks on context cancellation, the served
	// worker gets a shutdown frame.
	c, addr := startNetFleet(t, Config{Workers: 2}, Runtime{})
	w := startNetWorker(t, addr, "only")
	if ev := c.Evaluate(asn(1)); ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	w.Wait()
}
