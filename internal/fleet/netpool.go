package fleet

import (
	"fmt"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// netConn is one admitted worker connection, handed from the accept
// loop to a slot.
type netConn struct {
	tr      Transport
	raw     net.Conn
	session string
	// lastLease is the lease the worker claims to still hold in
	// flight (0 = none); adoptOrphan checks it against the slot's
	// parked lease.
	lastLease int64
	// mismatch is set when a child's fingerprint disagreed; its slot
	// retires on receipt (awaitConn).
	mismatch string
}

// acceptLoop admits worker connections until the listener closes
// (which the shutdown path guarantees on ctx cancellation).
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.cfg.Listener.Accept()
		if err != nil {
			if c.ctx.Err() != nil {
				return
			}
			// Transient accept failure (e.g. EMFILE); brief pause.
			select {
			case <-time.After(10 * time.Millisecond):
			case <-c.ctx.Done():
				return
			}
			continue
		}
		c.wg.Add(1)
		go c.admit(conn)
	}
}

// admit performs the handshake on one freshly accepted connection and
// routes it to a worker slot: to its session's bound slot, or for a new
// dial-in session to the first free one. A spawning fleet admits only
// the sessions it handed to its children. The ready frame is read off
// the raw transport — before chaos wrapping — so an injected fault can
// never starve the handshake and reconnects always make progress.
func (c *Coordinator) admit(conn net.Conn) {
	defer c.wg.Done()
	// Abort a handshake in flight when the fleet shuts down.
	hsDone := make(chan struct{})
	defer close(hsDone)
	go func() {
		select {
		case <-c.ctx.Done():
			conn.Close()
		case <-hsDone:
		}
	}()

	if c.nchaos.partitioned() {
		// A hard partition window is open: the network "eats" the dial.
		conn.Close()
		return
	}
	raw := NewNetTransport(conn, 0)
	conn.SetReadDeadline(time.Now().Add(c.cfg.ReadyTimeout))
	m, err := raw.Recv()
	if err != nil || m.Type != MsgReady || m.Session == "" {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	var mismatch string
	if m.Fingerprint != c.rt.Fingerprint {
		mismatch = fmt.Sprintf("worker fingerprint %.12s... does not match coordinator %.12s... (its evaluations would not reproduce the journal)",
			m.Fingerprint, c.rt.Fingerprint)
		if c.cfg.Spawn == nil {
			// A dial-in worker is turned away before it binds a slot; a
			// child goes on to its slot, which retires.
			c.event(Event{Type: EventFingerprintMismatch, Worker: -1, Detail: mismatch})
			conn.Close()
			return
		}
	}
	nc := &netConn{tr: c.nchaos.wrap(raw, func() { conn.Close() }), raw: conn,
		session: m.Session, lastLease: m.LastLease, mismatch: mismatch}

	c.mu.Lock()
	if c.ctx.Err() != nil {
		c.mu.Unlock()
		conn.Close()
		return
	}
	s := c.sessions[m.Session]
	if s == nil && c.cfg.Spawn == nil {
		for _, cand := range c.slots {
			if cand.session == "" && cand.state != StateDead {
				c.bindLocked(cand, m.Session)
				s = cand
				break
			}
		}
	}
	if s == nil || s.state == StateDead {
		// A stranger on the loopback listener, a full pool, or a
		// retired slot.
		c.mu.Unlock()
		conn.Close()
		return
	}
	reconnect := c.seenSessions[m.Session]
	c.seenSessions[m.Session] = true
	// The newest dial wins: drop an unclaimed queued connection and
	// sever the live one so its serve loop winds down.
	select {
	case old := <-s.netCh:
		old.tr.Close()
	default:
	}
	if s.netLive != nil {
		s.netLive.Close()
		s.netLive = nil
	}
	s.netCh <- nc
	sid := s.id
	c.mu.Unlock()

	c.counter(obs.MetricFleetNetSessions).Add(1)
	if reconnect {
		c.counter(obs.MetricFleetNetReconnects).Add(1)
		c.statAdd(func(st *Stats) { st.Reconnects++ })
		c.event(Event{Type: EventWorkerReconnect, Worker: sid,
			Detail: fmt.Sprintf("session %s reconnected", m.Session)})
	}
}

// awaitConn blocks until admit hands the slot a connection. A child's
// wait is bounded by ReadyTimeout and ends early if the child exits; a
// child whose fingerprint mismatched arrives here too, and its slot
// retires.
func (c *Coordinator) awaitConn(s *slot, ch *child) (*netConn, exitReason, string) {
	var exited <-chan struct{}
	var timeout <-chan time.Time
	if ch != nil {
		t := time.NewTimer(c.cfg.ReadyTimeout)
		defer t.Stop()
		exited, timeout = ch.exited, t.C
	}
	select {
	case nc := <-s.netCh:
		if nc.mismatch != "" {
			nc.tr.Close()
			c.event(Event{Type: EventFingerprintMismatch, Worker: s.id, Detail: nc.mismatch})
			return nil, exitMismatch, nc.mismatch
		}
		return nc, 0, ""
	case <-exited:
		return nil, exitCrash, "worker exited before handshake"
	case <-timeout:
		return nil, exitCrash, fmt.Sprintf("no handshake within %v", c.cfg.ReadyTimeout)
	case <-c.ctx.Done():
		return nil, exitShutdown, ""
	}
}

// bindLocked binds session to s. A new session is a new worker
// process, whose obs sequence and registry start from zero, so the
// stale-frame guard and the delta merge restart with it (a reconnect
// resumes its session, so its state carries over). c.mu must be held.
func (c *Coordinator) bindLocked(s *slot, session string) {
	s.session = session
	c.sessions[session] = s
	s.obsSeq = 0
	s.obsSnap = obs.Snapshot{}
}

// unbindLocked frees the slot's session and drops a connection still
// queued for it. c.mu must be held.
func (c *Coordinator) unbindLocked(s *slot) {
	if s.session != "" {
		delete(c.sessions, s.session)
		s.session = ""
	}
	select {
	case nc := <-s.netCh:
		nc.tr.Close()
	default:
	}
}

// parkOrphan holds a lease whose connection was lost, pending the
// session's reconnect. The orphan timer fails it at the lease's
// original deadline — parking never extends the TTL, so a lease is
// either re-adopted intact or expires exactly when it always would.
func (c *Coordinator) parkOrphan(s *slot, l *lease) {
	c.mu.Lock()
	s.orphan = l
	s.orphanTimer = time.AfterFunc(time.Until(l.deadline), func() { c.expireOrphan(s, l) })
	c.mu.Unlock()
}

// expireOrphan fires when a parked lease reaches its deadline without
// its worker reconnecting: the lease is failed for reassignment and
// the session unbound.
func (c *Coordinator) expireOrphan(s *slot, l *lease) {
	if c.ctx.Err() != nil {
		return
	}
	c.mu.Lock()
	if s.orphan != l {
		// Adopted (or superseded) in the meantime.
		c.mu.Unlock()
		return
	}
	s.orphan = nil
	s.orphanTimer = nil
	if s.netLive == nil && len(s.netCh) == 0 {
		c.unbindLocked(s)
	}
	c.mu.Unlock()
	c.failOrphan(s, l)
}

// failOrphan fails a parked lease as a hang fault (the supervised
// retry reassigns it) and records the partition expiry. The fault
// message is deterministic — no session IDs, slots, or timing — so a
// quarantine that eventually records it keeps the journal
// byte-identical across runs.
func (c *Coordinator) failOrphan(s *slot, l *lease) {
	if !c.q.fail(l.id, &WorkerFault{Key: l.job.key, Kind: resilience.KindHang,
		Msg: fmt.Sprintf("fleet: lease on %q was lost to a network partition; reassigning", l.job.key)}) {
		return
	}
	c.counter(obs.MetricFleetNetPartitionExpired).Add(1)
	c.statAdd(func(st *Stats) { st.PartitionExpired++ })
	c.event(Event{Type: EventPartitionExpired, Worker: s.id, Key: l.job.key, Attempt: l.job.attempt,
		Kind: resilience.KindHang, Detail: "parked lease expired before its worker reconnected"})
}

// adoptOrphan hands a reconnecting session its parked lease back —
// but only if the worker still holds exactly that lease in flight. A
// mismatch means the worker restarted (or never got the grant): the
// parked work cannot complete, so it is expired immediately rather
// than waiting out the TTL.
func (c *Coordinator) adoptOrphan(s *slot, nc *netConn) *lease {
	c.mu.Lock()
	l := s.orphan
	if l == nil {
		c.mu.Unlock()
		return nil
	}
	s.orphan = nil
	if s.orphanTimer != nil {
		s.orphanTimer.Stop()
		s.orphanTimer = nil
	}
	c.mu.Unlock()
	if nc.lastLease != l.id {
		c.failOrphan(s, l)
		return nil
	}
	c.mu.Lock()
	s.state = StateBusy
	s.currentKey = l.job.key
	s.lastBeat = time.Now()
	c.mu.Unlock()
	return l
}
