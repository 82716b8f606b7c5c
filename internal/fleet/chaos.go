package fleet

import (
	"errors"
	"sync"
	"time"

	"repro/internal/search"
)

// errChaosPartition is the injected failure a chaos transport returns
// while a partition window is open; the connection is severed at the
// same moment, so both sides observe the partition like a real one.
var errChaosPartition = errors.New("fleet: chaos partition")

// chaos is the shared mutable state behind every chaos-wrapped
// connection of one endpoint: one frame-sequence counter (so rolls are
// deterministic across reconnects) and the current partition window.
type chaos struct {
	cfg Faults
	mu  sync.Mutex
	seq int64
	// partUntil is the end of the open partition window, zero when none.
	partUntil time.Time
}

// newChaos returns the network-fault state for f, nil when f injects
// no network fault.
func newChaos(f *Faults) *chaos {
	if !f.network() {
		return nil
	}
	return &chaos{cfg: *f}
}

// roll draws the next deterministic uniform value for one kind of
// fault. Each op tag gets its own independent stream position.
func (c *chaos) roll(tag string) float64 {
	c.mu.Lock()
	c.seq++
	n := c.seq
	c.mu.Unlock()
	return search.FaultFrac(c.cfg.Seed, "chaos."+tag, n)
}

// partitioned reports whether a partition window is open.
func (c *chaos) partitioned() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.partUntil)
}

// startPartition opens a partition window.
func (c *chaos) startPartition() {
	c.mu.Lock()
	c.partUntil = time.Now().Add(c.cfg.PartitionFor)
	c.mu.Unlock()
}

// wrap layers chaos over a transport. sever is called when a partition
// opens so the underlying connection actually breaks (both directions,
// like a real partition). Nil-safe: a nil chaos returns tr unchanged.
func (c *chaos) wrap(tr Transport, sever func()) Transport {
	if c == nil {
		return tr
	}
	if sever == nil {
		sever = func() {}
	}
	return &chaosTransport{chaos: c, inner: tr, sever: sever}
}

// chaosTransport injects drop/dup/reorder/delay/partition on both
// directions of one connection. Handshake frames never pass through it:
// the coordinator reads ready off the raw transport before wrapping, so
// reconnects always make progress and chaos only perturbs the lease
// protocol — whose exactly-once machinery is exactly what is under test.
type chaosTransport struct {
	chaos *chaos
	inner Transport
	sever func()

	sendMu   sync.Mutex
	heldSend *Msg

	recvMu   sync.Mutex
	recvQ    []Msg
	heldRecv *Msg
}

func (t *chaosTransport) Send(m Msg) error {
	c := t.chaos
	if c.cfg.Delay > 0 {
		time.Sleep(c.cfg.Delay)
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if c.cfg.Partition > 0 && c.roll("part") < c.cfg.Partition {
		c.startPartition()
		t.sever()
		return errChaosPartition
	}
	if c.cfg.Drop > 0 && c.roll("drop") < c.cfg.Drop {
		return nil // silently vanished; the sender believes it went out
	}
	if t.heldSend != nil {
		// A previously reordered frame goes out after this newer one.
		held := *t.heldSend
		t.heldSend = nil
		if err := t.inner.Send(m); err != nil {
			return err
		}
		return t.inner.Send(held)
	}
	if c.cfg.Reorder > 0 && c.roll("reorder") < c.cfg.Reorder {
		m := m
		t.heldSend = &m
		return nil
	}
	if err := t.inner.Send(m); err != nil {
		return err
	}
	if c.cfg.Dup > 0 && c.roll("dup") < c.cfg.Dup {
		return t.inner.Send(m)
	}
	return nil
}

func (t *chaosTransport) Recv() (Msg, error) {
	c := t.chaos
	for {
		t.recvMu.Lock()
		if len(t.recvQ) > 0 {
			m := t.recvQ[0]
			t.recvQ = t.recvQ[1:]
			t.recvMu.Unlock()
			return m, nil
		}
		t.recvMu.Unlock()
		m, err := t.inner.Recv()
		if err != nil {
			return Msg{}, err
		}
		if c.cfg.Delay > 0 {
			time.Sleep(c.cfg.Delay)
		}
		if c.cfg.Partition > 0 && c.roll("part") < c.cfg.Partition {
			c.startPartition()
			t.sever()
			return Msg{}, errChaosPartition
		}
		if c.cfg.Drop > 0 && c.roll("drop") < c.cfg.Drop {
			continue
		}
		t.recvMu.Lock()
		if t.heldRecv != nil {
			// Deliver the newer frame first, then the held one.
			held := *t.heldRecv
			t.heldRecv = nil
			t.recvQ = append(t.recvQ, held)
			if c.cfg.Dup > 0 && c.roll("dup") < c.cfg.Dup {
				t.recvQ = append(t.recvQ, m)
			}
			t.recvMu.Unlock()
			return m, nil
		}
		if c.cfg.Reorder > 0 && c.roll("reorder") < c.cfg.Reorder {
			m := m
			t.heldRecv = &m
			t.recvMu.Unlock()
			continue
		}
		if c.cfg.Dup > 0 && c.roll("dup") < c.cfg.Dup {
			t.recvQ = append(t.recvQ, m)
		}
		t.recvMu.Unlock()
		return m, nil
	}
}

func (t *chaosTransport) Close() error {
	return t.inner.Close()
}
