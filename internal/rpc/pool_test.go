package rpc

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spectra/internal/wire"
)

// startBlockingServer hosts a "gate" service that blocks until released,
// so tests can hold pool stream slots busy deterministically, plus the
// usual echo.
func startBlockingServer(t *testing.T) (addr string, entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	srv := NewServer(nil)
	srv.Register("echo", func(optype string, payload []byte) ([]byte, *wire.UsageReport, error) {
		return payload, nil, nil
	})
	srv.Register("gate", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		entered <- struct{}{}
		<-release
		return []byte("through"), nil, nil
	})
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Unblock any stragglers so Close can drain.
		close(release)
		srv.Close()
	})
	return bound, entered, release
}

func TestPoolCallsOverlap(t *testing.T) {
	addr, entered, release := startBlockingServer(t)
	p := NewPool(addr, nil, PoolOptions{Size: 3})
	defer p.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := p.CallContext(context.Background(), "gate", "x", nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	// All three calls must enter the handler simultaneously — impossible
	// when exchanges serialize.
	for i := 0; i < 3; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 3 calls entered the handler concurrently", i)
		}
	}
	for i := 0; i < 3; i++ {
		release <- struct{}{}
	}
	wg.Wait()

	// Round-robin spread the three streams over all three connections.
	st := p.Stats()
	if st.Live != 3 || st.Created != 3 || st.Idle != p.StreamSlots() {
		t.Fatalf("stats after overlap = %+v (want Live=3 Created=3 Idle=%d)", st, p.StreamSlots())
	}
}

func TestPoolSingleConnOverlap(t *testing.T) {
	// The inverse of the old serial-per-connection behavior: ONE connection
	// must carry concurrent streams.
	addr, entered, release := startBlockingServer(t)
	p := NewPool(addr, nil, PoolOptions{Size: 1})
	defer p.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := p.CallContext(context.Background(), "gate", "x", nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 3 calls entered the handler over one multiplexed connection", i)
		}
	}
	for i := 0; i < 3; i++ {
		release <- struct{}{}
	}
	wg.Wait()
	if st := p.Stats(); st.Live != 1 || st.Created != 1 {
		t.Fatalf("single-connection pool grew: %+v", st)
	}
}

func TestPoolCheckoutUnderExhaustion(t *testing.T) {
	addr, entered, release := startBlockingServer(t)
	// One connection, one stream slot: the old fully-serialized shape.
	p := NewPool(addr, nil, PoolOptions{Size: 1, StreamsPerConn: 1})
	defer p.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.CallContext(context.Background(), "gate", "x", nil, nil)
	}()
	<-entered // the single stream slot is now busy

	// A second call must wait for the slot, not dial a second connection.
	done := make(chan []byte, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		out, _, _, err := p.CallContext(context.Background(), "echo", "x", []byte("queued"), nil)
		if err != nil {
			t.Error(err)
		}
		done <- out
	}()

	// Give the waiter time to block, then verify it has neither failed nor
	// grown the pool.
	deadline := time.After(5 * time.Second)
	for p.Stats().Waiters == 0 {
		select {
		case <-deadline:
			t.Fatal("second call never blocked as a waiter")
		case <-time.After(time.Millisecond):
		}
	}
	if st := p.Stats(); st.Live != 1 || st.Created != 1 {
		t.Fatalf("pool grew past its cap: %+v", st)
	}

	release <- struct{}{} // finish the gate call; its release feeds the waiter
	select {
	case out := <-done:
		if !bytes.Equal(out, []byte("queued")) {
			t.Fatalf("queued call returned %q", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never received the freed stream slot")
	}
	wg.Wait()
}

func TestPoolExhaustedWithWaiterCap(t *testing.T) {
	addr, entered, release := startBlockingServer(t)
	p := NewPool(addr, nil, PoolOptions{Size: 1, StreamsPerConn: 1, MaxWaiters: -1})
	defer p.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.CallContext(context.Background(), "gate", "x", nil, nil)
	}()
	<-entered

	if _, _, _, err := p.CallContext(context.Background(), "echo", "x", nil, nil); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("want ErrPoolExhausted with no-wait policy, got %v", err)
	}
	release <- struct{}{}
	wg.Wait()
}

func TestPoolCheckoutDeadlineBounded(t *testing.T) {
	addr, entered, release := startBlockingServer(t)
	p := NewPool(addr, nil, PoolOptions{Size: 1, StreamsPerConn: 1})
	defer p.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.CallContext(context.Background(), "gate", "x", nil, nil)
	}()
	<-entered

	// A deadline-bounded checkout on the exhausted pool must fail promptly
	// with a classified deadline error, not block indefinitely.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, _, err := p.CallContext(ctx, "echo", "x", nil, nil)
	if !IsDeadline(err) {
		t.Fatalf("want DeadlineError from bounded checkout, got %v", err)
	}
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("deadline checkout failure should wrap ErrPoolExhausted, got %v", err)
	}
	release <- struct{}{}
	wg.Wait()
}

func TestPoolEvictsOnTransportError(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("echo", func(_ string, payload []byte) ([]byte, *wire.UsageReport, error) {
		return payload, nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(addr, nil, PoolOptions{Size: 2})
	defer p.Close()

	if _, _, _, err := p.CallContext(context.Background(), "echo", "x", []byte("warm"), nil); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Live != 1 || st.Created != 1 {
		t.Fatalf("stats after warm call = %+v", st)
	}

	// Kill the server: the established connection breaks at the transport
	// level and must be counted as an eviction, not recycled.
	srv.Close()
	if _, _, _, err := p.CallContext(context.Background(), "echo", "x", nil, nil); !IsTransient(err) {
		t.Fatalf("want transport error after server death, got %v", err)
	}
	deadline := time.After(5 * time.Second)
	for p.Stats().Evicted == 0 {
		select {
		case <-deadline:
			t.Fatalf("broken connection never counted as evicted: %+v", p.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("a broken connection still counts as live: %+v", st)
	}

	// A remote application error, by contrast, must NOT evict.
	srv2 := NewServer(nil)
	srv2.Register("fail", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		return nil, nil, errors.New("app error")
	})
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	p2 := NewPool(addr2, nil, PoolOptions{Size: 2})
	defer p2.Close()
	if _, _, _, err := p2.CallContext(context.Background(), "fail", "x", nil, nil); !IsRemote(err) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if st := p2.Stats(); st.Live != 1 || st.Evicted != 0 {
		t.Fatalf("remote app error evicted a healthy connection: %+v", st)
	}
}

func TestPoolCloseDrainsWaiters(t *testing.T) {
	addr, entered, release := startBlockingServer(t)
	p := NewPool(addr, nil, PoolOptions{Size: 1, StreamsPerConn: 1})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.CallContext(context.Background(), "gate", "x", nil, nil)
	}()
	<-entered

	// Park several waiters on the exhausted pool.
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, err := p.CallContext(context.Background(), "echo", "x", nil, nil)
			errs <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for p.Stats().Waiters < waiters {
		select {
		case <-deadline:
			t.Fatalf("only %d waiters parked", p.Stats().Waiters)
		case <-time.After(time.Millisecond):
		}
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("waiter %d got %v, want ErrPoolClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a waiter blocked")
		}
	}

	release <- struct{}{} // let the server-side handler finish
	wg.Wait()
	if _, _, _, err := p.CallContext(context.Background(), "echo", "x", nil, nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("call on closed pool = %v, want ErrPoolClosed", err)
	}
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("connections survived Close: %+v", st)
	}
}

func TestPoolOverloadKeepsConnection(t *testing.T) {
	srv := NewServer(nil)
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.Register("slow", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		started <- struct{}{}
		<-block
		return []byte("ok"), nil, nil
	})
	srv.SetLimits(ServerLimits{MaxConcurrent: 1, MaxQueue: 0})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		srv.Close()
	}()

	p := NewPool(addr, nil, PoolOptions{Size: 2})
	defer p.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.CallContext(context.Background(), "slow", "x", nil, nil) // occupies the single worker slot
	}()
	<-started

	_, _, _, err = p.CallContext(context.Background(), "slow", "x", nil, nil)
	if !IsOverloaded(err) {
		t.Fatalf("want OverloadError from admission control, got %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("overload must be transient so failover engages")
	}
	// The shed call's connection is healthy: no eviction, and the only
	// occupied stream slot is the still-blocked first call's.
	if st := p.Stats(); st.Evicted != 0 || st.Idle != p.StreamSlots()-1 {
		t.Fatalf("overload evicted a healthy connection: %+v", st)
	}
	block <- struct{}{}
	wg.Wait()
}

func TestPoolJitterDecorrelated(t *testing.T) {
	// Pooled siblings to one address must not share a jitter stream, and
	// clients of different addresses must differ too (the old constant seed
	// put every client in the fleet in lockstep).
	p := NewPool("10.0.0.1:7009", nil, PoolOptions{Size: 2})
	defer p.Close()
	c1, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("round-robin handed consecutive streams the same connection in a 2-conn pool")
	}
	if c1.rng.state == c2.rng.state {
		t.Fatal("pooled siblings share a jitter seed")
	}
	other := NewClient("10.0.0.2:7009", nil)
	if c1.rng.state == other.rng.state {
		t.Fatal("clients of different addresses share a jitter seed")
	}
	p.release()
	p.release()
}

func TestPoolConcurrentStress(t *testing.T) {
	addr, _, _ := startBlockingServer(t)
	p := NewPool(addr, nil, PoolOptions{Size: 4})
	defer p.Close()

	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, _, _, err := p.CallContext(context.Background(), "echo", "x", []byte("s"), nil); err != nil {
					t.Error(err)
					return
				}
				calls.Add(1)
			}
		}()
	}
	wg.Wait()
	if calls.Load() != 16*25 {
		t.Fatalf("completed %d calls, want %d", calls.Load(), 16*25)
	}
	st := p.Stats()
	if st.Live > 4 || st.Created > 4 {
		t.Fatalf("pool exceeded its cap under stress: %+v", st)
	}
}
