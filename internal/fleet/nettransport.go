package fleet

import (
	"net"
	"sync"
	"time"
)

// DefaultSendTimeout bounds one frame's write on a network transport.
// A link that cannot accept a frame in this window is treated as
// partitioned: the send errors, the connection is severed, and the
// normal reconnect/lease-recovery machinery takes over.
const DefaultSendTimeout = 5 * time.Second

// netTransport is Transport over a single TCP (or any net.Conn)
// connection: JSONL frames, with a per-message send deadline so a
// stalled peer cannot wedge the sender forever.
type netTransport struct {
	mu          sync.Mutex
	conn        net.Conn
	fr          *frameReader
	sendTimeout time.Duration
}

// NewNetTransport wraps an established connection in the JSONL
// transport. sendTimeout ≤ 0 selects DefaultSendTimeout.
func NewNetTransport(conn net.Conn, sendTimeout time.Duration) Transport {
	if sendTimeout <= 0 {
		sendTimeout = DefaultSendTimeout
	}
	return &netTransport{conn: conn, fr: newFrameReader(conn), sendTimeout: sendTimeout}
}

func (t *netTransport) Send(m Msg) error {
	b, err := marshalFrame(m)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.conn.SetWriteDeadline(time.Now().Add(t.sendTimeout)); err != nil {
		return err
	}
	_, err = t.conn.Write(b)
	return err
}

func (t *netTransport) Recv() (Msg, error) {
	return t.fr.next()
}

func (t *netTransport) Close() error {
	return t.conn.Close()
}
