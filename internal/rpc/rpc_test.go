package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"spectra/internal/wire"
)

func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(func() *wire.ServerStatus {
		return &wire.ServerStatus{Name: "test", SpeedMHz: 500, AvailMHz: 400}
	})
	srv.Register("echo", func(optype string, payload []byte) ([]byte, *wire.UsageReport, error) {
		return append([]byte(optype+":"), payload...), &wire.UsageReport{CPUMegacycles: 5}, nil
	})
	srv.Register("fail", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		return nil, nil, errors.New("service exploded")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestClientServerCall(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, usage, _, err := c.CallContext(context.Background(), "echo", "greet", []byte("world"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte("greet:world")) {
		t.Fatalf("response = %q", out)
	}
	if usage == nil || usage.CPUMegacycles != 5 {
		t.Fatalf("usage = %+v", usage)
	}
	if c.Traffic().Len() != 1 {
		t.Fatalf("traffic observations = %d, want 1", c.Traffic().Len())
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, _, err = c.CallContext(context.Background(), "fail", "x", nil, nil)
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if rerr.Service != "fail" || rerr.Msg != "service exploded" {
		t.Fatalf("remote error = %+v", rerr)
	}
}

func TestUnknownService(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, _, err = c.CallContext(context.Background(), "nope", "x", nil, nil)
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("want RemoteError for unknown service, got %v", err)
	}
}

func TestStatus(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.StatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "test" || st.SpeedMHz != 500 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Services) != 2 {
		t.Fatalf("services = %v, want echo+fail", st.Services)
	}
}

func TestPing(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	d, err := c.PingContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("ping duration = %v", d)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
}

func TestClientClosedCall(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, _, _, err := c.CallContext(context.Background(), "echo", "x", nil, nil); err == nil {
		t.Fatal("call on closed client should fail")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.CallContext(context.Background(), "echo", "x", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	c.SetTimeout(500 * time.Millisecond)
	if _, _, _, err := c.CallContext(context.Background(), "echo", "x", nil, nil); err == nil {
		t.Fatal("call after server close should fail")
	}
}

func TestSequentialCallsShareConnection(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("msg-%d", i))
		out, _, _, err := c.CallContext(context.Background(), "echo", "op", payload, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		want := append([]byte("op:"), payload...)
		if !bytes.Equal(out, want) {
			t.Fatalf("call %d response = %q, want %q", i, out, want)
		}
	}
	if got := c.Traffic().Len(); got != 20 {
		t.Fatalf("traffic observations = %d, want 20", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startTestServer(t)
	const clients = 8
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			c, err := Dial(addr, nil)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if _, _, _, err := c.CallContext(context.Background(), "echo", "op", []byte{byte(i), byte(j)}, nil); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegisterReplaces(t *testing.T) {
	srv, addr := startTestServer(t)
	srv.Register("echo", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		return []byte("v2"), nil, nil
	})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, _, _, err := c.CallContext(context.Background(), "echo", "op", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "v2" {
		t.Fatalf("response = %q, want v2", out)
	}
}
