package fleet

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/search"
	"repro/internal/transform"
)

const stubFingerprint = "stub-fingerprint"

// TestMain doubles as the worker executable: the coordinator tests
// spawn this very test binary through Command with FLEET_STUB_WORKER=1
// in the environment, and the stub dials the coordinator on the
// production ServeNet loop with a deterministic toy evaluator — so the
// spawn path under test is exactly the one `prose tune -workers` uses.
func TestMain(m *testing.M) {
	if os.Getenv("FLEET_STUB_WORKER") == "1" {
		if err := runStubWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "stub worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runStubWorker() error {
	fs := flag.NewFlagSet("stub", flag.ContinueOnError)
	addr := fs.String("connect", "", "coordinator address")
	session := fs.String("session", "", "session ID")
	maxDials := fs.Int("max-dials", 0, "dial attempts per reconnect")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	fp := os.Getenv("FLEET_STUB_FP")
	if fp == "" {
		fp = stubFingerprint
	}
	return ServeNet(NetServeConfig{
		Addr:        *addr,
		Session:     *session,
		MaxDials:    *maxDials,
		Eval:        stubEval{panicKey: os.Getenv("FLEET_STUB_PANIC_KEY")},
		Fingerprint: fp,
	})
}

// stubEval is a deterministic toy evaluator: identical on coordinator
// and worker, so fleet results can be checked against in-process ones.
type stubEval struct{ panicKey string }

func (e stubEval) Evaluate(a transform.Assignment) *search.Evaluation {
	if e.panicKey != "" && a.Key() == e.panicKey {
		panic(fmt.Errorf("stub: injected evaluation fault"))
	}
	return &search.Evaluation{
		Assignment: a,
		Status:     search.StatusPass,
		Speedup:    1 + float64(a.Lowered()),
		RelError:   1e-9 * float64(len(a)),
		Lowered:    a.Lowered(),
		TotalAtoms: len(a),
		Detail:     "stub",
	}
}

// stubSpawn spawns the test binary as a stub worker through Command,
// with the environment overrides ("K=V" strings) set for the test.
func stubSpawn(t testing.TB, extra ...string) SpawnFunc {
	t.Setenv("FLEET_STUB_WORKER", "1")
	for _, kv := range extra {
		k, v, _ := strings.Cut(kv, "=")
		t.Setenv(k, v)
	}
	return Command(os.Args[0])
}

// eventSink collects fleet events concurrency-safely.
type eventSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *eventSink) record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

func (s *eventSink) count(typ string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func startFleet(t *testing.T, cfg Config, rt Runtime) *Coordinator {
	t.Helper()
	if rt.Local == nil {
		rt.Local = stubEval{}
	}
	if rt.Fingerprint == "" {
		rt.Fingerprint = stubFingerprint
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(context.Background(), rt); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// supervise wraps the coordinator the way core does, so worker faults
// become retries (lease reassignments) instead of test panics.
func supervise(c *Coordinator) *resilience.Supervised {
	return &resilience.Supervised{Inner: c, Policy: resilience.Policy{
		Retries:       3,
		RetriesByKind: resilience.DefaultRetryBudgets(3),
		Backoff:       resilience.Backoff{Base: time.Millisecond, Seed: 1},
	}}
}

func asn(n int) transform.Assignment {
	a := transform.Assignment{}
	for i := 0; i < n; i++ {
		a[fmt.Sprintf("m.p.v%d", i)] = 4 // kind 4 = lowered to 32-bit
	}
	return a
}

func TestFleetEvaluatesOnWorkers(t *testing.T) {
	sink := &eventSink{}
	c := startFleet(t, Config{Workers: 2, Spawn: stubSpawn(t), OnEvent: sink.record}, Runtime{})

	var wg sync.WaitGroup
	results := make([]*search.Evaluation, 6)
	for i := 0; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Evaluate(asn(i + 1))
		}(i)
	}
	wg.Wait()
	for i, ev := range results {
		want := stubEval{}.Evaluate(asn(i + 1))
		if ev.Status != want.Status || ev.Speedup != want.Speedup || ev.RelError != want.RelError {
			t.Errorf("eval %d: got %+v, want %+v", i, ev, want)
		}
		if ev.Assignment.Key() != asn(i+1).Key() {
			t.Errorf("eval %d: assignment not restored", i)
		}
	}
	st := c.Stats()
	if st.Leases != int64(len(results)) {
		t.Errorf("Leases = %d, want %d", st.Leases, len(results))
	}
	if st.Degraded || st.Exits != 0 {
		t.Errorf("unexpected degradation or exits: %+v", st)
	}
	if sink.count(EventLeaseGrant) != len(results) {
		t.Errorf("lease_grant events = %d, want %d", sink.count(EventLeaseGrant), len(results))
	}
	c.Close()
	if st := c.Stats(); st.Alive != 2 {
		t.Errorf("Alive after orderly close = %d, want 2", st.Alive)
	}
}

func TestWorkerCrashIsRetriedToSuccess(t *testing.T) {
	// Pick a seed whose injected-kill stream kills attempt 1 of our key
	// but spares attempt 2 — so one worker death later the retried lease
	// must succeed. The stream is pure in (seed, key, attempt), so this
	// search is deterministic too.
	const rate = 0.5
	key := asn(3).Key()
	seed := int64(-1)
	for s := int64(0); s < 10_000; s++ {
		if search.FaultFrac(s, key, 1) < rate && search.FaultFrac(s, key, 2) >= rate {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no suitable fault seed found")
	}

	sink := &eventSink{}
	c := startFleet(t, Config{
		Workers:        1,
		Spawn:          stubSpawn(t),
		Faults:         &Faults{KillRate: rate, Seed: seed},
		RestartBackoff: 10 * time.Millisecond,
		OnEvent:        sink.record,
	}, Runtime{})

	ev := supervise(c).Evaluate(asn(3))
	if ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	st := c.Stats()
	if st.Exits < 1 || st.Restarts < 1 {
		t.Errorf("Exits = %d, Restarts = %d; want >= 1 each", st.Exits, st.Restarts)
	}
	if sink.count(EventWorkerExit) < 1 || sink.count(EventWorkerRestart) < 1 {
		t.Errorf("missing worker_exit/worker_restart events: %+v", sink.events)
	}
}

func TestWedgedWorkerIsDetectedByHeartbeatLoss(t *testing.T) {
	key := asn(2).Key()
	sink := &eventSink{}
	c := startFleet(t, Config{
		Workers:         1,
		Spawn:           stubSpawn(t),
		Faults:          &Faults{WedgeKey: key},
		Heartbeat:       20 * time.Millisecond,
		HeartbeatMisses: 4,
		RestartBackoff:  10 * time.Millisecond,
		OnEvent:         sink.record,
	}, Runtime{})

	// Attempt 1 wedges (no heartbeats, no result); the silence detector
	// must kill the worker and the supervised retry must succeed.
	ev := supervise(c).Evaluate(asn(2))
	if ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	if sink.count(EventWorkerLost) < 1 {
		t.Errorf("no worker_lost event after a wedge; events: %+v", sink.events)
	}
	if st := c.Stats(); st.Exits < 1 {
		t.Errorf("Exits = %d, want >= 1", st.Exits)
	}
}

func TestWorkerEvaluationPanicBecomesFaultFrame(t *testing.T) {
	key := asn(1).Key()
	c := startFleet(t, Config{
		Workers: 1,
		Spawn:   stubSpawn(t, "FLEET_STUB_PANIC_KEY="+key),
	}, Runtime{})

	defer func() {
		r := recover()
		wf, ok := r.(*WorkerFault)
		if !ok {
			t.Fatalf("recovered %T (%v), want *WorkerFault", r, r)
		}
		if !strings.Contains(wf.Error(), "injected evaluation fault") {
			t.Errorf("fault message %q lost the worker's panic detail", wf.Error())
		}
		if !wf.Transient() {
			t.Errorf("plain panic should be transient")
		}
		// The process survived its evaluation panic: no exits.
		if st := c.Stats(); st.Exits != 0 {
			t.Errorf("Exits = %d, want 0", st.Exits)
		}
	}()
	c.Evaluate(asn(1))
	t.Fatal("Evaluate returned; want *WorkerFault panic")
}

func TestFingerprintMismatchRetiresWorkerAndDegrades(t *testing.T) {
	sink := &eventSink{}
	c := startFleet(t, Config{
		Workers: 1,
		Spawn:   stubSpawn(t, "FLEET_STUB_FP=some-other-build"),
		OnEvent: sink.record,
	}, Runtime{})

	// The sole worker fails its handshake and is retired without
	// respawn; the fleet degrades and the evaluation runs in-process.
	ev := c.Evaluate(asn(2))
	if ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	st := c.Stats()
	if !st.Degraded {
		t.Fatal("fleet did not degrade after a fingerprint mismatch")
	}
	if st.LocalEvals < 1 {
		t.Errorf("LocalEvals = %d, want >= 1", st.LocalEvals)
	}
	if st.Restarts != 0 {
		t.Errorf("Restarts = %d; a mismatched worker must not respawn", st.Restarts)
	}
	if sink.count(EventFingerprintMismatch) != 1 || sink.count(EventDegraded) != 1 {
		t.Errorf("events: %+v", sink.events)
	}
}

func TestSpawnFailureExhaustsRestartsAndDegrades(t *testing.T) {
	sink := &eventSink{}
	spawnFail := func(id int, addr, session string) (Process, error) {
		return nil, fmt.Errorf("no such binary")
	}
	c := startFleet(t, Config{
		Workers:        1,
		Spawn:          spawnFail,
		MaxRestarts:    2,
		RestartBackoff: time.Millisecond,
		OnEvent:        sink.record,
	}, Runtime{})

	ev := c.Evaluate(asn(3))
	if ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	st := c.Stats()
	if !st.Degraded || st.Alive != 0 {
		t.Errorf("Degraded = %v, Alive = %d; want degraded with 0 alive", st.Degraded, st.Alive)
	}
	if !strings.Contains(st.DegradeDetail, "0 of 1 worker(s) remain") {
		t.Errorf("DegradeDetail = %q", st.DegradeDetail)
	}
	if sink.count(EventWorkerDead) != 1 {
		t.Errorf("worker_dead events = %d, want 1", sink.count(EventWorkerDead))
	}
}

func TestHealthAndDebugSnapshot(t *testing.T) {
	c := startFleet(t, Config{Workers: 2, Spawn: stubSpawn(t)}, Runtime{})
	if ev := c.Evaluate(asn(2)); ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	h := c.Health()
	if len(h) != 2 {
		t.Fatalf("Health() returned %d slots, want 2", len(h))
	}
	var done int64
	for _, w := range h {
		done += w.LeasesDone
		if w.State == StateDead.String() {
			t.Errorf("worker %d dead: %+v", w.ID, w)
		}
	}
	if done != 1 {
		t.Errorf("total LeasesDone = %d, want 1", done)
	}
}

// TestLoopbackListenerAdmitsOnlyChildren: a spawning fleet's listener
// binds only the sessions it handed to its children. A stranger, or a
// dial with no session, is hung up on without a lease.
func TestLoopbackListenerAdmitsOnlyChildren(t *testing.T) {
	sink := &eventSink{}
	type spawned struct {
		addr string
		pid  int
	}
	children := make(chan spawned, 1)
	spawn := stubSpawn(t)
	c := startFleet(t, Config{
		Workers: 1,
		Spawn: func(id int, addr, session string) (Process, error) {
			p, err := spawn(id, addr, session)
			if err == nil {
				select {
				case children <- spawned{addr, p.Pid()}:
				default:
				}
			}
			return p, err
		},
		OnEvent: sink.record,
	}, Runtime{})
	child := <-children
	if ev := c.Evaluate(asn(1)); ev.Status != search.StatusPass {
		t.Fatalf("status = %v, want pass", ev.Status)
	}
	waitFor(t, "idle child", func() bool {
		h := c.Health()[0]
		return h.State == StateIdle.String() && h.LeasesDone == 1
	})
	before := c.Health()
	if before[0].Pid != child.pid {
		t.Errorf("Health Pid = %d, want the child's %d", before[0].Pid, child.pid)
	}

	for _, session := range []string{"stranger", ""} {
		rc := dialRaw(t, child.addr, session, 0)
		rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		m, err := rc.tr.Recv()
		var ne net.Error
		switch {
		case err == nil:
			t.Errorf("session %q: got a %q frame, want the connection closed", session, m.Type)
		case errors.As(err, &ne) && ne.Timeout():
			t.Errorf("session %q: connection left open", session)
		}
		rc.conn.Close()
	}
	if after := c.Health(); !reflect.DeepEqual(after, before) {
		t.Errorf("Health changed:\n  before %+v\n  after  %+v", before, after)
	}
	if st := c.Stats(); st.Leases != 1 {
		t.Errorf("Leases = %d, want 1", st.Leases)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.events) != 1 {
		t.Errorf("events = %+v, want the one lease_grant", sink.events)
	}
}

// TestChildExitsWhenCoordinatorDies: a child whose coordinator vanishes
// without a shutdown frame does not linger — its single redial is
// refused and it exits.
func TestChildExitsWhenCoordinatorDies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	proc, err := stubSpawn(t)(0, ln.Addr().String(), "orphaned")
	if err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		proc.Wait()
		close(exited)
	}()
	defer func() {
		proc.Kill()
		<-exited
	}()

	ln.(*net.TCPListener).SetDeadline(time.Now().Add(30 * time.Second))
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	m, err := NewNetTransport(conn, time.Second).Recv()
	if err != nil || m.Type != MsgReady || m.Session != "orphaned" {
		t.Fatalf("handshake = %+v, %v; want ready for session orphaned", m, err)
	}
	conn.Close()
	ln.Close()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("child still running 5s after its coordinator went away")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 0, Spawn: stubSpawn(t)}); err == nil {
		t.Error("Workers=0 accepted")
	}
	if _, err := New(Config{Workers: 1}); err == nil {
		t.Error("neither Spawn nor Listener accepted")
	}
	if _, err := New(Config{Workers: 2, Spawn: stubSpawn(t), MinWorkers: 3}); err == nil {
		t.Error("MinWorkers > Workers accepted")
	}
	// Leases carry the heartbeat in whole milliseconds: 500µs would go
	// out as no interval, and the worker would beat at DefaultHeartbeat
	// while the coordinator expects a beat every 500µs.
	if _, err := New(Config{Workers: 1, Spawn: stubSpawn(t), Heartbeat: 500 * time.Microsecond}); err == nil {
		t.Error("sub-millisecond Heartbeat accepted")
	}
	c, err := New(Config{Workers: 1, Spawn: stubSpawn(t)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Start(context.Background(), Runtime{}); err == nil {
		t.Error("Start without Local/Fingerprint accepted")
		c.Close()
	}
}
