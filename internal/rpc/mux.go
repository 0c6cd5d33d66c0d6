package rpc

import (
	"bufio"
	"context"
	"net"
	"os"
	"sync"
	"time"

	"spectra/internal/wire"
)

// sendqDepth bounds frames queued for a connection's writer goroutine.
// Callers block (interruptibly) when the queue is full; best-effort
// cancel frames are dropped instead, since a congested connection's
// server will shed the expired request at admission anyway.
const sendqDepth = 128

// pending is one in-flight stream's rendezvous state. The reply channel
// is buffered so the reader goroutine never blocks delivering a match;
// the byte counts are written under muxConn.mu (by the writer and reader
// goroutines) and read under it by the caller, giving the happens-before
// edge a cross-goroutine counter needs.
type pending struct {
	reply    chan *wire.Message
	sent     int // request-frame bytes put on the wire
	received int // reply-frame bytes read off the wire
}

// muxWrite is one frame queued for the writer goroutine. id names the
// pending entry to credit sent bytes to; 0 marks untracked frames
// (cancels), which expect no reply.
type muxWrite struct {
	msg *wire.Message
	id  uint64
}

// muxConn multiplexes concurrent exchanges over one framed connection,
// HTTP/2 style: every request carries a distinct wire.Message.ID, a
// single writer goroutine serializes outbound frames, and a single
// reader goroutine matches inbound responses to waiting callers by ID —
// out-of-order delivery is expected, since the server executes requests
// concurrently. Replies whose ID matches no waiter are strays from
// cancelled or timed-out streams and are dropped.
//
// A muxConn fails as a unit: when either goroutine hits a transport
// fault, the first cause is recorded, done closes, and every in-flight
// call returns that classified error. A failed muxConn is never reused —
// the owning Client discards it and dials afresh.
type muxConn struct {
	addr string
	conn net.Conn

	sendq chan muxWrite
	done  chan struct{}
	// onDead, when non-nil, is called exactly once with the winning
	// failure cause, from whichever goroutine recorded it (no muxConn
	// locks held). Owners use it for eager eviction accounting.
	onDead func(cause error)

	mu    sync.Mutex
	calls map[uint64]*pending
	err   error
}

// newMuxConn wraps an established connection and starts its writer and
// reader goroutines. onDead may be nil.
func newMuxConn(addr string, conn net.Conn, onDead func(cause error)) *muxConn {
	m := &muxConn{
		addr:   addr,
		conn:   conn,
		sendq:  make(chan muxWrite, sendqDepth),
		done:   make(chan struct{}),
		onDead: onDead,
		calls:  make(map[uint64]*pending),
	}
	go m.writeLoop()
	go m.readLoop()
	return m
}

// writeLoop is the connection's single writer: it drains sendq in order,
// so a request frame always precedes its own cancel frame. A write fault
// fails the whole connection. A write that blocks on TCP backpressure
// holds the loop — callers are not stuck with it (they wait on their own
// timers), and a caller-side flat timeout breaks the connection, which
// errors the blocked write out.
func (m *muxConn) writeLoop() {
	for {
		select {
		case w := <-m.sendq:
			n, err := wire.WriteMessage(m.conn, w.msg)
			if w.id != 0 {
				m.mu.Lock()
				if p := m.calls[w.id]; p != nil {
					p.sent = n
				}
				m.mu.Unlock()
			}
			if err != nil {
				m.fail(&TransportError{Op: "write", Addr: m.addr, Err: err})
				return
			}
		case <-m.done:
			return
		}
	}
}

// readLoop is the connection's single reader: it matches each inbound
// frame to its waiting caller by ID. Unmatched IDs are strays from
// abandoned streams and are dropped. Any read fault — including garbage
// framing, which desynchronizes the stream beyond recovery — fails the
// whole connection, and with it every in-flight stream.
func (m *muxConn) readLoop() {
	// Buffered so a small frame costs one read syscall, not one for the
	// length prefix and one for the body.
	r := bufio.NewReader(m.conn)
	for {
		reply, n, err := wire.ReadMessage(r)
		if err != nil {
			m.fail(&TransportError{Op: "read", Addr: m.addr, Err: err})
			return
		}
		m.mu.Lock()
		p := m.calls[reply.ID]
		if p != nil {
			delete(m.calls, reply.ID)
			p.received = n
		}
		m.mu.Unlock()
		if p != nil {
			p.reply <- reply
		}
	}
}

// fail records the connection's first failure cause, wakes every
// in-flight call through done, and closes the underlying connection
// (which errors out the reader and writer). Only the first cause wins;
// later calls are no-ops. Returns the connection Close error on the
// winning call.
func (m *muxConn) fail(cause error) error {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return nil
	}
	m.err = cause
	m.mu.Unlock()
	if m.onDead != nil {
		m.onDead(cause)
	}
	close(m.done)
	return m.conn.Close()
}

// failure returns the recorded failure cause after done has closed.
func (m *muxConn) failure() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		return &TransportError{Op: "read", Addr: m.addr, Err: net.ErrClosed}
	}
	return m.err
}

// dead reports whether the connection has failed.
func (m *muxConn) dead() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// register parks a new stream in the demux table, failing fast when the
// connection is already dead.
func (m *muxConn) register(id uint64, p *pending) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.calls[id] = p
	return nil
}

// unregister abandons a stream; a reply arriving later is dropped as a
// stray.
func (m *muxConn) unregister(id uint64) {
	m.mu.Lock()
	delete(m.calls, id)
	m.mu.Unlock()
}

// sendCancel enqueues a best-effort MsgCancel for an abandoned stream so
// the server stops (or never starts) the work. A full send queue drops
// the frame: the connection is congested and the server will shed the
// expired request at admission from its propagated deadline.
func (m *muxConn) sendCancel(id uint64) {
	select {
	case m.sendq <- muxWrite{msg: &wire.Message{Type: wire.MsgCancel, ID: id}}:
	default:
	}
}

// call runs one exchange over the multiplexed connection: register the
// stream, enqueue the request frame, and wait for the demuxed reply. The
// returned byte count covers both frames, for the traffic log.
//
// Failure classification mirrors the serial client's contract:
//
//   - Context cancellation or expiry abandons the stream, sends a
//     best-effort cancel frame, and returns a *DeadlineError. The
//     connection stays healthy — other streams proceed untouched.
//   - An effTimeout expiry while budgetBound (the context's remaining
//     budget was the binding constraint) is the same deadline expiry,
//     classified identically.
//   - An effTimeout expiry that is NOT budget-bound is the per-exchange
//     flat timeout: the server went silent past the liveness bound, so
//     the whole connection is broken and the failure is a
//     *TransportError — exactly as the serial client treated a read
//     timeout — and the owner redials on the next exchange.
//   - Connection death (reader or writer fault, possibly from a sibling
//     stream's flat timeout) returns the connection's classified cause.
func (m *muxConn) call(ctx context.Context, msg *wire.Message, effTimeout time.Duration, budgetBound bool) (*wire.Message, int64, error) {
	p := &pending{reply: make(chan *wire.Message, 1)}
	if err := m.register(msg.ID, p); err != nil {
		return nil, 0, err
	}

	var timeC <-chan time.Time
	if effTimeout > 0 {
		timer := time.NewTimer(effTimeout)
		defer timer.Stop()
		timeC = timer.C
	}

	// Enqueue the request frame. Nothing has been sent until the writer
	// picks it up, so abandoning here needs no cancel frame.
	select {
	case m.sendq <- muxWrite{msg: msg, id: msg.ID}:
	case <-m.done:
		m.unregister(msg.ID)
		return nil, 0, m.failure()
	case <-ctx.Done():
		m.unregister(msg.ID)
		return nil, 0, &DeadlineError{Op: "exchange", Addr: m.addr, Err: ctx.Err()}
	case <-timeC:
		m.unregister(msg.ID)
		if budgetBound {
			return nil, 0, &DeadlineError{Op: "exchange", Addr: m.addr, Err: context.DeadlineExceeded}
		}
		m.fail(&TransportError{Op: "write", Addr: m.addr, Err: os.ErrDeadlineExceeded})
		return nil, 0, m.failure()
	}

	finish := func(reply *wire.Message) (*wire.Message, int64, error) {
		m.mu.Lock()
		bytes := int64(p.sent + p.received)
		m.mu.Unlock()
		return reply, bytes, nil
	}

	select {
	case reply := <-p.reply:
		return finish(reply)
	case <-m.done:
		m.unregister(msg.ID)
		// The reply may have been delivered in the race window before
		// the failure; prefer it.
		select {
		case reply := <-p.reply:
			return finish(reply)
		default:
		}
		return nil, 0, m.failure()
	case <-ctx.Done():
		m.unregister(msg.ID)
		select {
		case reply := <-p.reply:
			return finish(reply)
		default:
		}
		m.sendCancel(msg.ID)
		return nil, 0, &DeadlineError{Op: "exchange", Addr: m.addr, Err: ctx.Err()}
	case <-timeC:
		m.unregister(msg.ID)
		select {
		case reply := <-p.reply:
			return finish(reply)
		default:
		}
		if budgetBound {
			m.sendCancel(msg.ID)
			return nil, 0, &DeadlineError{Op: "exchange", Addr: m.addr, Err: context.DeadlineExceeded}
		}
		m.fail(&TransportError{Op: "read", Addr: m.addr, Err: os.ErrDeadlineExceeded})
		return nil, 0, m.failure()
	}
}
