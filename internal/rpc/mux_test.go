package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spectra/internal/wire"
)

// TestMuxOutOfOrderResponses drives the wire protocol directly: two
// requests are written on one connection, the first blocked server-side
// and the second fast, so the replies come back in reverse order. Each
// must carry the ID of its own request — the whole point of the demux.
func TestMuxOutOfOrderResponses(t *testing.T) {
	release := make(chan struct{})
	srv := NewServer(nil)
	srv.Register("slow", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		<-release
		return []byte("slow"), nil, nil
	})
	srv.Register("fast", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		return []byte("fast"), nil, nil
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

	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgRequest, ID: 1, Service: "slow"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgRequest, ID: 2, Service: "fast"}); err != nil {
		t.Fatal(err)
	}

	first, _, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != 2 || string(first.Payload) != "fast" {
		t.Fatalf("first reply = ID %d payload %q, want the fast request (ID 2)", first.ID, first.Payload)
	}
	close(release)
	second, _, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != 1 || string(second.Payload) != "slow" {
		t.Fatalf("second reply = ID %d payload %q, want the slow request (ID 1)", second.ID, second.Payload)
	}
}

// TestMuxClientMatchesInterleavedReplies proves the client-side demux end
// to end: slow and fast calls interleaved on ONE client (one connection)
// each get their own payload back, and the fast calls complete while the
// slow ones are still parked.
func TestMuxClientMatchesInterleavedReplies(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv := NewServer(nil)
	srv.Register("hold", func(_ string, p []byte) ([]byte, *wire.UsageReport, error) {
		entered <- struct{}{}
		<-release
		return p, nil, nil
	})
	srv.Register("echo", func(_ string, p []byte) ([]byte, *wire.UsageReport, error) {
		return p, nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(addr, nil)
	defer c.Close()

	var wg sync.WaitGroup
	held := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, _, _, err := c.CallContext(context.Background(), "hold", "x", []byte(fmt.Sprintf("held-%d", i)), nil)
			if err == nil && string(out) != fmt.Sprintf("held-%d", i) {
				err = fmt.Errorf("held call %d got %q", i, out)
			}
			held <- err
		}(i)
	}
	<-entered
	<-entered // both slow calls are in flight on the shared connection

	// Fast calls must cut through while the slow replies are outstanding.
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("quick-%d", i)
		out, _, _, err := c.CallContext(context.Background(), "echo", "x", []byte(want), nil)
		if err != nil {
			t.Fatalf("interleaved echo %d: %v", i, err)
		}
		if string(out) != want {
			t.Fatalf("interleaved echo %d returned %q, want %q", i, out, want)
		}
	}

	close(release)
	wg.Wait()
	close(held)
	for err := range held {
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.Redials() != 1 {
		t.Fatalf("redials = %d, want 1 (everything multiplexed over the first dial)", c.Redials())
	}
}

// TestMuxReaderDeathFailsAllStreams kills the connection while several
// streams are in flight: every one must fail promptly with a classified
// transport error (not a deadline), and the break must be counted as one
// eviction, not one per stream.
func TestMuxReaderDeathFailsAllStreams(t *testing.T) {
	entered := make(chan struct{}, 8)
	srv := NewServer(nil)
	srv.Register("hold", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		entered <- struct{}{}
		select {} // never replies; the conn dies first
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The server leaks its stuck handlers deliberately; don't Close it
	// (Close waits for them).

	c := NewClient(addr, nil)
	defer c.Close()
	var evictions atomic.Int64
	c.setEvictHook(func() { evictions.Add(1) })

	const streams = 4
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		go func() {
			_, _, _, err := c.CallContext(context.Background(), "hold", "x", nil, nil)
			errs <- err
		}()
	}
	for i := 0; i < streams; i++ {
		<-entered // all streams in flight on one connection
	}

	// Break the transport out from under them.
	c.mu.Lock()
	m := c.mux
	c.mu.Unlock()
	m.conn.Close()

	for i := 0; i < streams; i++ {
		select {
		case err := <-errs:
			var terr *TransportError
			if !errors.As(err, &terr) {
				t.Fatalf("stream %d failed with %v, want *TransportError", i, err)
			}
			if IsDeadline(err) {
				t.Fatalf("stream %d misclassified as deadline: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream %d still blocked after connection death", i)
		}
	}
	if got := evictions.Load(); got != 1 {
		t.Fatalf("connection death counted as %d evictions, want exactly 1", got)
	}
}

// TestMuxCancelFrameStopsServerWork registers a context-aware handler and
// proves a MsgCancel for an in-flight request cancels the handler's
// context, that the cancelled stream gets no reply, and that the
// connection keeps serving other streams.
func TestMuxCancelFrameStopsServerWork(t *testing.T) {
	started := make(chan struct{}, 1)
	cancelled := make(chan struct{}, 1)
	srv := NewServer(nil)
	srv.RegisterContext("watch", func(ctx context.Context, _ string, _ []byte) ([]byte, *wire.UsageReport, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			cancelled <- struct{}{}
			return nil, nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return []byte("never cancelled"), nil, nil
		}
	})
	srv.Register("echo", func(_ string, p []byte) ([]byte, *wire.UsageReport, error) {
		return p, nil, nil
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

	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgRequest, ID: 7, Service: "watch"}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgCancel, ID: 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("cancel frame never reached the handler's context")
	}

	// The cancelled stream must produce no reply; the next frame on the
	// connection must be the echo's.
	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgRequest, ID: 8, Service: "echo", Payload: []byte("alive")}); err != nil {
		t.Fatal(err)
	}
	reply, _, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.ID != 8 || string(reply.Payload) != "alive" {
		t.Fatalf("post-cancel frame = ID %d payload %q err %q, want the echo reply (ID 8); the cancelled stream must stay silent", reply.ID, reply.Payload, reply.Err)
	}
}

// TestMuxCancelBeforeExecutionDropsWork sends a cancel for a request still
// waiting in the server's admission queue: the work must never execute.
func TestMuxCancelBeforeExecutionDropsWork(t *testing.T) {
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
		return []byte("ran"), nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		srv.Close()
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgRequest, ID: 1, Service: "gate"}); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker slot is held; the next request queues

	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgRequest, ID: 2, Service: "work"}); err != nil {
		t.Fatal(err)
	}
	// The frames travel over TCP while the gate is freed in-process, so
	// wait for the server to have queued the request and then to have read
	// its cancel; otherwise the release can overtake either frame.
	waitQueued(t, srv, 1)
	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgCancel, ID: 2}); err != nil {
		t.Fatal(err)
	}
	waitQueued(t, srv, 0)

	// Free the worker slot; the cancelled request must be dropped, not run.
	release <- struct{}{}
	reply, _, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.ID != 1 {
		t.Fatalf("got reply for stream %d, want only the gate's (ID 1): cancelled queued work must stay silent", reply.ID)
	}
	select {
	case <-executed:
		t.Fatal("queued work executed despite its cancel frame")
	case <-time.After(100 * time.Millisecond):
	}
}

// waitQueued polls the server's admission-queue depth until it reads want.
func waitQueued(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.queued.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("admission queue depth = %d, want %d", srv.queued.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMuxDuplicateStreamIDRejected proves the server refuses a request
// reusing an in-flight stream ID instead of corrupting the demux table.
func TestMuxDuplicateStreamIDRejected(t *testing.T) {
	release := make(chan struct{})
	srv := NewServer(nil)
	srv.Register("hold", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		<-release
		return []byte("done"), nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(release)
		srv.Close()
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgRequest, ID: 5, Service: "hold"}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WriteMessage(conn, &wire.Message{Type: wire.MsgRequest, ID: 5, Service: "hold"}); err != nil {
		t.Fatal(err)
	}
	reply, _, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.ID != 5 || reply.Err == "" {
		t.Fatalf("duplicate in-flight ID got reply %+v, want an error response", reply)
	}
}

// TestMuxSingleConnStress hammers one client — one multiplexed connection
// — from 64 goroutines, mixing plain calls with budget-bounded ones that
// sometimes expire (exercising the cancel path), under -race in CI. The
// connection must survive: deadline expiries never break it.
func TestMuxSingleConnStress(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("echo", func(_ string, p []byte) ([]byte, *wire.UsageReport, error) {
		return p, nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(addr, nil)
	defer c.Close()

	const goroutines = 64
	const perG = 25
	var ok, expired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := []byte(fmt.Sprintf("g%d-i%d", g, i))
				var out []byte
				var err error
				if i%5 == 4 {
					// A tiny budget that sometimes expires mid-flight,
					// driving the cancel-frame path under load.
					ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
					out, _, _, err = c.CallContext(ctx, "echo", "x", payload, nil)
					cancel()
				} else {
					out, _, _, err = c.CallContext(context.Background(), "echo", "x", payload, nil)
				}
				switch {
				case err == nil:
					if string(out) != string(payload) {
						t.Errorf("goroutine %d call %d got %q, want %q (cross-stream reply mixup)", g, i, out, payload)
						return
					}
					ok.Add(1)
				case IsDeadline(err):
					expired.Add(1)
				default:
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no call succeeded under stress")
	}
	if c.Redials() != 1 {
		t.Fatalf("redials = %d, want 1: deadline expiries under load must not break the shared connection", c.Redials())
	}
	t.Logf("stress: %d ok, %d expired over one connection", ok.Load(), expired.Load())
}
