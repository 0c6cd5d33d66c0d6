package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"spectra/internal/wire"
)

// TestServerSurvivesGarbageConnection feeds raw garbage to the server; the
// offending connection dies, but the server keeps serving others.
func TestServerSurvivesGarbageConnection(t *testing.T) {
	_, addr := startTestServer(t)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("this is not a spectra frame at all")); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.CallContext(context.Background(), "echo", "op", []byte("still alive"), nil); err != nil {
		t.Fatalf("server died after garbage: %v", err)
	}
}

// TestServerRejectsOversizedFrame sends a frame whose length prefix claims
// more than the protocol maximum; the connection must be dropped without
// the server attempting a giant allocation-and-read.
func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr := startTestServer(t)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxMessageBytes+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server should close the connection rather than wait for 64 MiB.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("expected connection close or read error")
	}

	// And other clients are unaffected.
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.CallContext(context.Background(), "echo", "op", nil, nil); err != nil {
		t.Fatalf("server unusable after oversized frame: %v", err)
	}
}

// TestClientTimeoutOnSilentServer ensures a stuck server cannot hang the
// client past its deadline.
func TestClientTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Accept and say nothing.
		defer conn.Close()
		time.Sleep(5 * time.Second)
	}()

	c, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(200 * time.Millisecond)
	start := time.Now()
	if _, _, _, err := c.CallContext(context.Background(), "echo", "op", nil, nil); err == nil {
		t.Fatal("call to silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestNonFiniteUsageReachesTheClientAsZero: a handler that reports NaN or
// ±Inf resource usage must not cost the caller its reply, and the
// non-finite values must not reach the caller's demand models.
func TestNonFiniteUsageReachesTheClientAsZero(t *testing.T) {
	srv, addr := startTestServer(t)
	srv.Register("nan", func(_ string, payload []byte) ([]byte, *wire.UsageReport, error) {
		return payload, &wire.UsageReport{
			CPUMegacycles: math.NaN(),
			Extra:         []wire.NamedValue{{Name: "computeSeconds", Value: math.Inf(1)}, {Name: "fetchSeconds", Value: 0.5}},
		}, nil
	})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, usage, _, err := c.CallContext(ctx, "nan", "op", []byte("ok"), nil)
	if err != nil {
		t.Fatalf("call with non-finite usage failed: %v", err)
	}
	if string(out) != "ok" {
		t.Fatalf("output = %q", out)
	}
	if usage == nil || usage.CPUMegacycles != 0 || len(usage.Extra) != 2 ||
		usage.Extra[0].Value != 0 || usage.Extra[1].Value != 0.5 {
		t.Fatalf("usage = %+v, want non-finite values zeroed and finite ones kept", usage)
	}
}

// TestOversizedReplyBecomesRemoteError: an output too large to frame is an
// application-level failure of that one stream. The caller gets a
// *RemoteError promptly — not a hang until its deadline — and the
// connection, with its sibling streams, stays up.
func TestOversizedReplyBecomesRemoteError(t *testing.T) {
	srv, addr := startTestServer(t)
	srv.Register("huge", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		return make([]byte, wire.MaxMessageBytes+1), nil, nil
	})
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, _, err = c.CallContext(ctx, "huge", "op", nil, nil)
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("want *RemoteError for an unframeable reply, got %v", err)
	}
	if rerr.Service != "huge" || !strings.Contains(rerr.Msg, "message too large") {
		t.Fatalf("remote error = %+v", rerr)
	}
	if ctx.Err() != nil {
		t.Fatal("the error arrived only at the deadline")
	}

	out, _, _, err := c.CallContext(context.Background(), "echo", "op", []byte("still here"), nil)
	if err != nil || !bytes.Equal(out, []byte("op:still here")) {
		t.Fatalf("call after the oversized reply = %q, %v", out, err)
	}
	if n := c.Redials(); n != 0 {
		t.Fatalf("client redialed %d times: the connection did not survive", n)
	}
}
