package fleet

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/search"
)

// Network-worker defaults.
const (
	// DefaultHeartbeatMissLimit is how many consecutive failed
	// heartbeat sends make the worker treat its link as dead and
	// reconnect (rather than exit — flaky links are survivable).
	DefaultHeartbeatMissLimit = 3
	// DefaultDialTimeout bounds one connection attempt.
	DefaultDialTimeout = 5 * time.Second
	// DefaultReconnectBackoff is the base of the capped-exponential
	// backoff between dial attempts (doubling, capped at 32x).
	DefaultReconnectBackoff = 200 * time.Millisecond
	// DefaultMaxDials bounds one reconnect's dial attempts; past it
	// the worker gives up and ServeNet returns the dial error.
	DefaultMaxDials = 10
)

// NetServeConfig configures a worker (`prose worker -connect`).
type NetServeConfig struct {
	// Addr is the coordinator's listen address (required unless Dial
	// is set).
	Addr string
	// Eval evaluates leases (required); in `prose worker` it is the
	// worker's own core.Tuner.
	Eval search.Evaluator
	// Fingerprint is the evaluation fingerprint sent in the handshake
	// (required); the coordinator rejects workers that disagree.
	Fingerprint string
	// Session identifies this worker across reconnects (default: a
	// random hex ID). The coordinator routes a reconnecting session
	// back to its slot so a parked lease can be re-adopted.
	Session string
	// HeartbeatMissLimit is how many consecutive failed heartbeat
	// sends trigger a reconnect (default DefaultHeartbeatMissLimit).
	HeartbeatMissLimit int
	// SendTimeout bounds one frame's write (default DefaultSendTimeout).
	SendTimeout time.Duration
	// DialTimeout bounds one connection attempt (default
	// DefaultDialTimeout).
	DialTimeout time.Duration
	// ReconnectBackoff is the base backoff between dial attempts
	// (default DefaultReconnectBackoff; doubles, capped at 32x).
	ReconnectBackoff time.Duration
	// MaxDials bounds one reconnect's attempts (default DefaultMaxDials).
	MaxDials int
	// Dial overrides the TCP dial (tests inject failing or recording
	// transports here). The returned transport carries no handshake;
	// the link layer sends ready itself.
	Dial func() (Transport, error)
}

func (cfg *NetServeConfig) withDefaults() {
	if cfg.HeartbeatMissLimit <= 0 {
		cfg.HeartbeatMissLimit = DefaultHeartbeatMissLimit
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = DefaultReconnectBackoff
	}
	if cfg.MaxDials <= 0 {
		cfg.MaxDials = DefaultMaxDials
	}
	if cfg.Session == "" {
		cfg.Session = newSession()
	}
}

// newSession returns a random session ID.
func newSession() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// netLink is a worker's self-healing connection to the coordinator:
// one live transport plus the session state (in-flight lease, pending
// reply) that must survive a reconnect so the handshake can resume the
// session instead of abandoning its work.
type netLink struct {
	cfg *NetServeConfig

	// mu serializes redials; gen increments per established
	// connection so concurrent failure observers (the heartbeat
	// goroutine, the main loop) trigger at most one redial each.
	mu  sync.Mutex
	tr  Transport
	gen int

	// stateMu guards the resume state carried across reconnects.
	stateMu   sync.Mutex
	lastLease int64
	pending   *Msg
}

// current returns the live transport and its generation.
func (lk *netLink) current() (Transport, int) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	return lk.tr, lk.gen
}

// setLease records a newly granted lease. A new grant also proves the
// previous pending reply was delivered (or its lease superseded), so
// it is dropped.
func (lk *netLink) setLease(id int64) {
	lk.stateMu.Lock()
	lk.lastLease = id
	lk.pending = nil
	lk.stateMu.Unlock()
}

// setPending records the reply for the in-flight lease so a reconnect
// can re-offer it: the reply is either the first delivery or a
// duplicate the coordinator's dedup refuses — never lost.
func (lk *netLink) setPending(m Msg) {
	lk.stateMu.Lock()
	lk.pending = &m
	lk.stateMu.Unlock()
}

// resume snapshots the session state for a handshake.
func (lk *netLink) resume() (int64, *Msg) {
	lk.stateMu.Lock()
	defer lk.stateMu.Unlock()
	return lk.lastLease, lk.pending
}

// redial re-establishes the link after the connection of generation
// gen failed. Single-flight: a concurrent observer of the same dead
// generation blocks and then reuses the fresh connection. Dial
// attempts back off capped-exponentially up to MaxDials; past that the
// worker gives up and the error is returned.
func (lk *netLink) redial(gen int) (Transport, error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if lk.gen != gen {
		return lk.tr, nil
	}
	if lk.tr != nil {
		lk.tr.Close()
		lk.tr = nil
	}
	backoff := lk.cfg.ReconnectBackoff
	for attempt := 1; ; attempt++ {
		tr, err := lk.dialOnce()
		if err == nil {
			lk.tr = tr
			lk.gen++
			return tr, nil
		}
		if attempt >= lk.cfg.MaxDials {
			return nil, fmt.Errorf("fleet: giving up after %d dial attempt(s): %w", attempt, err)
		}
		time.Sleep(backoff)
		if backoff < 32*lk.cfg.ReconnectBackoff {
			backoff *= 2
		}
	}
}

// dialOnce makes one connection and resumes the session on it: the
// ready handshake carries the session ID and the in-flight lease, and
// a pending reply is re-offered immediately (the coordinator's dedup
// refuses it if the first copy landed).
func (lk *netLink) dialOnce() (Transport, error) {
	tr, err := lk.cfg.Dial()
	if err != nil {
		return nil, err
	}
	last, pending := lk.resume()
	if err := tr.Send(Msg{Type: MsgReady, Fingerprint: lk.cfg.Fingerprint,
		Session: lk.cfg.Session, LastLease: last}); err != nil {
		tr.Close()
		return nil, err
	}
	if pending != nil {
		if err := tr.Send(*pending); err != nil {
			tr.Close()
			return nil, err
		}
	}
	return tr, nil
}

// sendReply delivers a lease's reply, reconnecting on failure (the
// redial's handshake re-offers the pending reply itself).
func (lk *netLink) sendReply(m Msg) error {
	tr, gen := lk.current()
	if err := tr.Send(m); err != nil {
		_, rerr := lk.redial(gen)
		return rerr
	}
	return nil
}

// heartbeats beats on the link every interval until stopped; the
// returned stop waits for the beater to exit so a heartbeat can never
// trail the lease's result frame. Flaky sends are tolerated: only
// HeartbeatMissLimit consecutive failures declare the link dead and
// trigger a reconnect.
// Each beat piggybacks the worker's pending observability payload when
// shipping is on.
func (lk *netLink) heartbeats(lease int64, interval time.Duration, wo *workerObs) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		misses := 0
		for {
			select {
			case <-t.C:
				tr, gen := lk.current()
				hb := Msg{Type: MsgHeartbeat, Lease: lease}
				if wo != nil {
					wo.attach(&hb)
				}
				if err := tr.Send(hb); err != nil {
					misses++
					if misses >= lk.cfg.HeartbeatMissLimit {
						misses = 0
						if _, rerr := lk.redial(gen); rerr != nil {
							return
						}
					}
					continue
				}
				misses = 0
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// ServeNet runs a worker's lease loop: connect, handshake, serve
// leases, and ride out connection losses by reconnecting with session
// resume — in-flight work is never abandoned, and its reply is
// delivered exactly once (the coordinator's monotonic-lease dedup
// refuses duplicates). Evaluation panics are caught and answered as
// fault frames — the process survives them; only real crashes and the
// kill or wedge marks of a fault-injecting coordinator (see Faults)
// kill or freeze it. Each lease sets its heartbeat interval. It returns nil on an orderly shutdown frame and
// an error when the coordinator stays unreachable past the dial budget.
func ServeNet(cfg NetServeConfig) error {
	if cfg.Eval == nil {
		return fmt.Errorf("fleet: ServeNet needs Eval")
	}
	if cfg.Addr == "" && cfg.Dial == nil {
		return fmt.Errorf("fleet: ServeNet needs Addr or Dial")
	}
	cfg.withDefaults()
	if cfg.Dial == nil {
		addr, dialTO, sendTO := cfg.Addr, cfg.DialTimeout, cfg.SendTimeout
		cfg.Dial = func() (Transport, error) {
			conn, err := net.DialTimeout("tcp", addr, dialTO)
			if err != nil {
				return nil, err
			}
			return NewNetTransport(conn, sendTO), nil
		}
	}
	lk := &netLink{cfg: &cfg}
	wo := &workerObs{}
	if _, err := lk.redial(0); err != nil {
		return err
	}
	// gotFrame tracks whether the current connection delivered anything:
	// a connection dropped before its first frame (a full pool, a
	// partition window) earns a backoff so redials cannot hot-spin.
	gotFrame := false
	lastGen := 1
	for {
		tr, gen := lk.current()
		if gen != lastGen {
			lastGen, gotFrame = gen, false
		}
		m, err := tr.Recv()
		if err != nil {
			if !gotFrame {
				time.Sleep(cfg.ReconnectBackoff)
			}
			if _, rerr := lk.redial(gen); rerr != nil {
				return rerr
			}
			continue
		}
		gotFrame = true
		switch m.Type {
		case MsgShutdown:
			tr.Close()
			return nil
		case MsgLease:
			if last, pending := lk.resume(); m.Lease == last && last != 0 {
				// A duplicated grant of work this session already holds:
				// re-offer the reply if it is done, ignore otherwise.
				if pending != nil {
					if err := lk.sendReply(*pending); err != nil {
						return err
					}
				}
				continue
			}
			lk.setLease(m.Lease)
			wo.enable(m.Obs, cfg.Eval)
			m.Inject.preEval()
			// The coordinator sets the beat; a lease without one (an
			// older or foreign coordinator) gets the default.
			interval := time.Duration(m.HeartbeatMS) * time.Millisecond
			if interval <= 0 {
				interval = DefaultHeartbeat
			}
			stop := lk.heartbeats(m.Lease, interval, wo)
			sp := wo.leaseSpan(m)
			ev, fault, faulted, persistent := runEval(cfg.Eval, m.Assignment, sp, wo.registry())
			m.Inject.preReply()
			stop()
			var reply Msg
			if faulted {
				reply = Msg{Type: MsgFault, Lease: m.Lease, Fault: fault, Persistent: persistent}
			} else {
				rec := journal.FromEvaluation(cfg.Fingerprint, ev)
				reply = Msg{Type: MsgResult, Lease: m.Lease, Result: &rec}
			}
			// Overflow span batches go out best-effort on the live link
			// (a dead link loses them; the reply itself is what session
			// resume protects). The reply's own obs payload is attached
			// before setPending so a re-offered duplicate carries the
			// same sequence number and the coordinator splices it at
			// most once.
			_ = wo.shipOverflow(func(hb Msg) error {
				if tr, _ := lk.current(); tr != nil {
					_ = tr.Send(hb)
				}
				return nil
			}, m.Lease)
			wo.attach(&reply)
			lk.setPending(reply)
			if err := lk.sendReply(reply); err != nil {
				return err
			}
		}
	}
}
