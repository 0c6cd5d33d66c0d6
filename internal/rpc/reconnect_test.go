package rpc

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"spectra/internal/wire"
)

// faultyServer is a handcrafted wire-speaking server whose first nBad
// connections misbehave (per badMode) and whose later connections serve
// echo correctly.
type faultyServer struct {
	ln    net.Listener
	conns atomic.Int64
	nBad  int64
	// badMode: "garbage" writes a non-frame; "close" drops the conn after
	// reading the request; "stall" reads the request and never replies.
	badMode string
}

func startFaultyServer(t *testing.T, nBad int64, badMode string) *faultyServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &faultyServer{ln: ln, nBad: nBad, badMode: badMode}
	go fs.accept()
	t.Cleanup(func() { ln.Close() })
	return fs
}

func (fs *faultyServer) accept() {
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		n := fs.conns.Add(1)
		go fs.serve(conn, n <= fs.nBad)
	}
}

func (fs *faultyServer) serve(conn net.Conn, bad bool) {
	defer conn.Close()
	for {
		msg, _, err := wire.ReadMessage(conn)
		if err != nil {
			return
		}
		if bad {
			switch fs.badMode {
			case "garbage":
				conn.Write([]byte("!!!! this is not a spectra frame !!!!"))
				return
			case "close":
				return
			case "stall":
				time.Sleep(5 * time.Second)
				return
			}
		}
		reply := &wire.Message{Type: wire.MsgResponse, ID: msg.ID}
		switch msg.Type {
		case wire.MsgPing:
			reply.Type = wire.MsgPong
		case wire.MsgStatus:
			reply.Type = wire.MsgStatusReply
			reply.Status = &wire.ServerStatus{Name: "faulty", SpeedMHz: 100}
		default:
			reply.Payload = append([]byte("echo:"), msg.Payload...)
		}
		if _, err := wire.WriteMessage(conn, reply); err != nil {
			return
		}
	}
}

// TestGarbageReplyPoisonsConnectionOnceOnly is the poisoned-connection
// regression test: a garbage frame kills the exchange, the client discards
// the desynchronized connection, and the next call transparently redials
// instead of reading garbage forever.
func TestGarbageReplyPoisonsConnectionOnceOnly(t *testing.T) {
	fs := startFaultyServer(t, 1, "garbage")
	c, err := Dial(fs.ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, _, err = c.CallContext(context.Background(), "echo", "op", []byte("x"), nil)
	if err == nil {
		t.Fatal("call over garbage stream succeeded")
	}
	if !IsTransient(err) {
		t.Fatalf("garbage frame classified as non-transient: %v", err)
	}

	out, _, _, err := c.CallContext(context.Background(), "echo", "op", []byte("y"), nil)
	if err != nil {
		t.Fatalf("call after redial: %v", err)
	}
	if string(out) != "echo:y" {
		t.Fatalf("reply = %q", out)
	}
	if c.Redials() != 1 {
		t.Fatalf("redials = %d, want 1", c.Redials())
	}
}

// TestTimeoutDesynchronizedStreamRedials covers the timeout flavor of the
// same bug: after a deadline expires mid-exchange the stream may hold a
// late reply; the client must not reuse it.
func TestTimeoutDesynchronizedStreamRedials(t *testing.T) {
	fs := startFaultyServer(t, 1, "stall")
	c, err := Dial(fs.ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(150 * time.Millisecond)

	if _, _, _, err := c.CallContext(context.Background(), "echo", "op", []byte("x"), nil); err == nil {
		t.Fatal("call to stalled server succeeded")
	} else if !IsTransient(err) {
		t.Fatalf("timeout classified as non-transient: %v", err)
	}

	out, _, _, err := c.CallContext(context.Background(), "echo", "op", []byte("y"), nil)
	if err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	if string(out) != "echo:y" {
		t.Fatalf("reply = %q", out)
	}
}

// TestPingRetriesWithBackoff exercises the idempotent-exchange retry loop:
// the first two connections break, the third serves, and the observed
// backoff delays grow.
func TestPingRetriesWithBackoff(t *testing.T) {
	fs := startFaultyServer(t, 2, "close")
	c := NewClient(fs.ln.Addr().String(), nil)
	defer c.Close()

	var delays []time.Duration
	c.sleep = func(d time.Duration) { delays = append(delays, d) }
	c.SetRetryPolicy(RetryPolicy{
		MaxAttempts:    4,
		BaseDelay:      10 * time.Millisecond,
		MaxDelay:       time.Second,
		JitterFraction: -1, // deterministic delays for the assertion
	})

	if _, err := c.PingContext(context.Background()); err != nil {
		t.Fatalf("ping never recovered: %v", err)
	}
	if len(delays) != 2 {
		t.Fatalf("observed %d backoff sleeps, want 2 (%v)", len(delays), delays)
	}
	if delays[0] != 10*time.Millisecond || delays[1] != 20*time.Millisecond {
		t.Fatalf("backoff = %v, want [10ms 20ms]", delays)
	}
}

// TestStatusRetryGivesUpAfterBudget verifies the retry budget is honored
// against a server that never recovers.
func TestStatusRetryGivesUpAfterBudget(t *testing.T) {
	fs := startFaultyServer(t, 1<<30, "close")
	c := NewClient(fs.ln.Addr().String(), nil)
	defer c.Close()

	attempts := 0
	c.sleep = func(time.Duration) { attempts++ }
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})

	if _, err := c.StatusContext(context.Background()); err == nil {
		t.Fatal("status against a dead server succeeded")
	} else if !IsTransient(err) {
		t.Fatalf("dead server error non-transient: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("backoff sleeps = %d, want 2 (3 attempts)", attempts)
	}
}

// TestRemoteErrorNotRetriedNotTransient pins the error classification:
// remote application failures are final.
func TestRemoteErrorNotRetriedNotTransient(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, _, err = c.CallContext(context.Background(), "fail", "op", nil, nil)
	if err == nil {
		t.Fatal("failing service returned success")
	}
	if IsTransient(err) {
		t.Fatalf("remote app error classified transient: %v", err)
	}
	if !IsRemote(err) {
		t.Fatalf("remote app error not classified remote: %v", err)
	}
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("error type = %T", err)
	}
}

// TestBackoffCapAndJitterDeterminism checks delays cap at MaxDelay and
// jitter only ever shrinks them, deterministically for a fixed seed.
func TestBackoffCapAndJitterDeterminism(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 300 * time.Millisecond}
	r1 := &splitMix{state: 42}
	r2 := &splitMix{state: 42}
	for n := 0; n < 6; n++ {
		d1 := p.delay(n, r1)
		d2 := p.delay(n, r2)
		if d1 != d2 {
			t.Fatalf("delay(%d) nondeterministic: %v vs %v", n, d1, d2)
		}
		if d1 > 300*time.Millisecond {
			t.Fatalf("delay(%d) = %v exceeds cap", n, d1)
		}
		if d1 <= 0 {
			t.Fatalf("delay(%d) = %v", n, d1)
		}
	}
}

// TestClosedClientNeverRedials ensures explicit Close is final.
func TestClosedClientNeverRedials(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, _, _, err := c.CallContext(context.Background(), "echo", "op", nil, nil); err == nil {
		t.Fatal("call on closed client succeeded")
	} else if IsTransient(err) {
		t.Fatalf("closed-client error should not be transient: %v", err)
	}
	if c.Redials() != 0 {
		t.Fatalf("closed client redialed %d times", c.Redials())
	}
}

// TestDialFailureIsTransient classifies initial dial failures so callers
// can fail over.
func TestDialFailureIsTransient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	if _, err := Dial(addr, nil); err == nil {
		t.Fatal("dial to closed port succeeded")
	} else if !IsTransient(err) {
		t.Fatalf("dial failure non-transient: %v", err)
	}
}
