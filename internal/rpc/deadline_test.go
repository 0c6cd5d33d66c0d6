package rpc

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"spectra/internal/wire"
)

// TestPoolCheckoutDeadlineExhausted proves a deadline-bounded checkout
// against a fully busy pool fails promptly with a *DeadlineError that
// satisfies errors.Is for both ErrPoolExhausted and the context cause,
// instead of blocking until a stream slot frees up.
func TestPoolCheckoutDeadlineExhausted(t *testing.T) {
	addr, entered, release := startBlockingServer(t)
	p := NewPool(addr, nil, PoolOptions{Size: 1, StreamsPerConn: 1})
	defer p.Close()

	go p.CallContext(context.Background(), "gate", "x", nil, nil)
	<-entered // the single stream slot is now busy

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, _, err := p.CallContext(ctx, "echo", "x", []byte("late"), nil)
	elapsed := time.Since(start)

	if !IsDeadline(err) {
		t.Fatalf("checkout past deadline = %v, want *DeadlineError", err)
	}
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("errors.Is(err, ErrPoolExhausted) = false for %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("deadline checkout failure must be transient so failover engages")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("abandoned checkout took %v, want prompt return", elapsed)
	}
	if st := p.Stats(); st.Waiters != 0 {
		t.Fatalf("abandoned waiter still queued: %+v", st)
	}

	// The pool must still function once the stream slot frees up.
	release <- struct{}{}
	if _, _, _, err := p.CallContext(context.Background(), "echo", "x", []byte("after"), nil); err != nil {
		t.Fatalf("pool broken after abandoned wait: %v", err)
	}
}

// TestPoolCheckoutCancelPrompt proves explicit cancellation (not just
// expiry) unparks a waiting checkout immediately.
func TestPoolCheckoutCancelPrompt(t *testing.T) {
	addr, entered, release := startBlockingServer(t)
	p := NewPool(addr, nil, PoolOptions{Size: 1, StreamsPerConn: 1})
	defer p.Close()

	go p.CallContext(context.Background(), "gate", "x", nil, nil)
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := p.CallContext(ctx, "echo", "x", nil, nil)
		errc <- err
	}()
	// Let the waiter park, then cancel.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !IsDeadline(err) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled checkout = %v, want *DeadlineError wrapping context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled checkout did not return promptly")
	}
	release <- struct{}{}
}

// TestRetryBudgetBucket exercises the token-bucket arithmetic, including
// nil-safety.
func TestRetryBudgetBucket(t *testing.T) {
	b := NewRetryBudget(2, 0.5)
	if !b.Allow() || !b.Allow() {
		t.Fatal("full bucket must allow its burst")
	}
	if b.Allow() {
		t.Fatal("drained bucket must refuse retries")
	}
	b.Credit() // 0.5 tokens: still below one whole retry
	if b.Allow() {
		t.Fatal("fractional balance must not permit a retry")
	}
	b.Credit() // 1.0 token
	if !b.Allow() {
		t.Fatal("earned token must permit a retry")
	}
	for i := 0; i < 10; i++ {
		b.Credit()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("credits must cap at max: got %v, want 2", got)
	}

	var nilBudget *RetryBudget
	if !nilBudget.Allow() {
		t.Fatal("nil budget must allow everything")
	}
	nilBudget.Credit() // must not panic
}

// TestServerShedsExpiredAtAdmission drives the wire protocol directly: a
// request arriving with its budget already spent must be answered
// CodeDeadlineExceeded without the handler ever running.
func TestServerShedsExpiredAtAdmission(t *testing.T) {
	executed := make(chan struct{}, 1)
	srv := NewServer(nil)
	srv.Register("work", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		executed <- struct{}{}
		return nil, nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := &wire.Message{
		Type:     wire.MsgRequest,
		ID:       1,
		Service:  "work",
		Deadline: &wire.DeadlineContext{BudgetMillis: -1},
	}
	if _, err := wire.WriteMessage(conn, req); err != nil {
		t.Fatal(err)
	}
	reply, _, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("reply code = %q, want %q", reply.Code, wire.CodeDeadlineExceeded)
	}
	select {
	case <-executed:
		t.Fatal("handler ran for an already-expired request")
	default:
	}
}

// TestServerShedsExpiredWhileQueued proves the queue wait itself is
// deadline-bounded: a queued request whose budget runs out while a worker
// slot is held is shed without executing, while the same request without a
// deadline would have waited indefinitely.
func TestServerShedsExpiredWhileQueued(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	executed := make(chan struct{}, 8)
	srv := NewServer(nil)
	srv.SetLimits(ServerLimits{MaxConcurrent: 1, MaxQueue: 8})
	srv.Register("gate", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		entered <- struct{}{}
		<-release
		return nil, nil, nil
	})
	srv.Register("work", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		executed <- struct{}{}
		return nil, nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		srv.Close()
	}()

	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if _, err := wire.WriteMessage(hold, &wire.Message{Type: wire.MsgRequest, ID: 1, Service: "gate"}); err != nil {
		t.Fatal(err)
	}
	<-entered // the single worker slot is now occupied

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &wire.Message{
		Type:     wire.MsgRequest,
		ID:       1,
		Service:  "work",
		Deadline: &wire.DeadlineContext{BudgetMillis: 80},
	}
	start := time.Now()
	if _, err := wire.WriteMessage(conn, req); err != nil {
		t.Fatal(err)
	}
	reply, _, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if reply.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("reply code = %q, want %q", reply.Code, wire.CodeDeadlineExceeded)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("queued shed took %v, want ~the 80ms budget", elapsed)
	}
	select {
	case <-executed:
		t.Fatal("handler ran for a request that expired while queued")
	default:
	}
}

// TestClientServerShedClassified proves the client maps a server-side shed
// to a *DeadlineError and the pooled connection survives it.
func TestClientServerShedClassified(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("echo", func(_ string, p []byte) ([]byte, *wire.UsageReport, error) {
		return p, nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := NewPool(addr, nil, PoolOptions{Size: 1})
	defer p.Close()

	// Warm the connection, then issue a call whose budget is so small the
	// server judges it expired on arrival (1ms propagated budget plus the
	// scheduling gap between the client stamping it and the server's
	// admission check). Retry until the race lands; it typically does on
	// the first try.
	if _, _, _, err := p.CallContext(context.Background(), "echo", "x", []byte("warm"), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, _, _, err := p.CallContext(ctx, "echo", "x", []byte("tiny"), nil)
		cancel()
		if err == nil {
			continue // the exchange beat the budget; try again
		}
		if !IsDeadline(err) {
			t.Fatalf("tiny-budget call = %v, want *DeadlineError", err)
		}
		// Whether the client or the server gave up first, the connection
		// must remain usable (deadline failures never poison the pool).
		if _, _, _, err := p.CallContext(context.Background(), "echo", "x", []byte("after"), nil); err != nil {
			t.Fatalf("pool poisoned by deadline failure: %v", err)
		}
		if st := p.Stats(); st.Evicted != 0 {
			// A cancellation that broke the stream mid-exchange legitimately
			// discards the connection client-side; the pool slot itself must
			// still be live either way.
			if st.Live != 1 {
				t.Fatalf("pool lost its slot after deadline failure: %+v", st)
			}
		}
		return
	}
	t.Skip("could not land a deadline expiry in 5s; machine too fast/slow")
}

// TestClientCancelMidExchangeKeepsConnection cancels an in-flight exchange
// and proves (a) the call returns promptly as a *DeadlineError even though
// the server is still holding the reply, and (b) the multiplexed
// connection survives: the abandoned stream's late reply is discarded as a
// stray, and the next call reuses the same connection without redialing —
// the serial client had to break the connection here, which cancellation
// no longer costs.
func TestClientCancelMidExchangeKeepsConnection(t *testing.T) {
	addr, entered, release := startBlockingServer(t)
	c := NewClient(addr, nil)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := c.CallContext(ctx, "gate", "x", nil, nil)
		errc <- err
	}()
	<-entered // the exchange is in flight, blocked on the server
	cancel()

	select {
	case err := <-errc:
		if !IsDeadline(err) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled exchange = %v, want *DeadlineError wrapping context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled exchange did not return promptly")
	}

	release <- struct{}{} // let the server-side handler finish
	out, _, _, err := c.CallContext(context.Background(), "echo", "x", []byte("resync"), nil)
	if err != nil {
		t.Fatalf("client broken after cancellation: %v", err)
	}
	if string(out) != "resync" {
		t.Fatalf("follow-up call returned %q", out)
	}
	if c.Redials() != 1 {
		t.Fatalf("redials = %d, want 1: cancellation must not break the multiplexed connection", c.Redials())
	}
}

// TestRetryBackoffCappedByDeadline proves an idempotent retry gives up as a
// *DeadlineError the moment the next backoff would overrun the remaining
// budget, instead of sleeping through it and returning the stale transport
// fault late.
func TestRetryBackoffCappedByDeadline(t *testing.T) {
	// A listener that is immediately closed yields fast connection-refused
	// dials, making every attempt a transient transport fault.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := NewClient(addr, nil)
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Second})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.StatusContext(ctx)
	elapsed := time.Since(start)

	var derr *DeadlineError
	if !errors.As(err, &derr) {
		t.Fatalf("budget-capped retry = %v, want *DeadlineError", err)
	}
	if derr.Op != "backoff" {
		t.Fatalf("deadline op = %q, want %q", derr.Op, "backoff")
	}
	// The give-up must still expose the underlying transport fault for
	// diagnosis.
	var terr *TransportError
	if !errors.As(err, &terr) {
		t.Fatalf("deadline give-up hides the transport cause: %v", err)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("retry slept %v through the deadline instead of giving up", elapsed)
	}
}

// TestRetryStopsWhenBudgetDrained proves the shared retry budget gates
// retries: with an empty bucket the first failure is final.
func TestRetryStopsWhenBudgetDrained(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := NewClient(addr, nil)
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond})
	drained := NewRetryBudget(1, 0.1)
	drained.Allow() // empty the bucket
	c.SetRetryBudget(drained)

	attempts := 0
	c.sleep = func(time.Duration) { attempts++ }
	if _, err := c.StatusContext(context.Background()); err == nil {
		t.Fatal("status against a dead address must fail")
	}
	if attempts != 0 {
		t.Fatalf("drained budget still permitted %d retries", attempts)
	}
}
