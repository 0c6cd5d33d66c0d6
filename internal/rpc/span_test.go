package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"spectra/internal/obs"
	"spectra/internal/wire"
)

// TestCallTracedReturnsServerSpans pins the cross-wire span protocol: a
// traced call comes back with queue/exec/respond records covering the
// server-side handling, while an untraced call ships none.
func TestCallTracedReturnsServerSpans(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, _, spans, err := c.CallContext(context.Background(), "echo", "greet", []byte("hi"), &wire.TraceContext{TraceID: 7, SpanID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "greet:hi" {
		t.Fatalf("response = %q", out)
	}
	if len(spans) != 3 {
		t.Fatalf("server spans = %d, want 3 (queue/exec/respond): %+v", len(spans), spans)
	}
	byName := map[string]wire.SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.StartOffsetNs < 0 || s.DurationNs < 0 {
			t.Errorf("span %s has negative timing: %+v", s.Name, s)
		}
	}
	for _, name := range []string{obs.SpanServerQueue, obs.SpanServerExec, obs.SpanServerRespond} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing server span %s in %+v", name, spans)
		}
	}
	if exec, respond := byName[obs.SpanServerExec], byName[obs.SpanServerRespond]; respond.StartOffsetNs < exec.StartOffsetNs {
		t.Errorf("respond starts before exec: %+v vs %+v", respond, exec)
	}

	// Untraced calls stay span-free.
	if _, _, spans, err = c.CallContext(context.Background(), "echo", "greet", nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("untraced call returned spans: %+v", spans)
	}
}

// TestCallTracedSpansOnError checks that even failing calls return the
// server-side spans recorded up to the failure.
func TestCallTracedSpansOnError(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, spans, err := c.CallContext(context.Background(), "fail", "x", nil, &wire.TraceContext{TraceID: 1, SpanID: 0})
	var rerr *RemoteError
	if !errors.As(err, &rerr) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if len(spans) == 0 {
		t.Fatal("failed call returned no server spans")
	}
}

// TestServerObserverEmitsTraces checks the server-side flight-recorder
// view: with an observer attached, each handled request is counted and
// emitted as a thin DecisionTrace carrying the request's spans, keyed by
// the propagated trace ID.
func TestServerObserverEmitsTraces(t *testing.T) {
	srv, addr := startTestServer(t)
	sink := obs.NewMemorySink(16)
	o := obs.NewObserver()
	o.Sink = sink
	srv.SetObserver("srv-a", o)

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, _, err := c.CallContext(context.Background(), "echo", "greet", []byte("x"), &wire.TraceContext{TraceID: 99, SpanID: 4}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.CallContext(context.Background(), "fail", "x", nil, nil); err == nil {
		t.Fatal("fail service succeeded")
	}

	deadline := time.Now().Add(2 * time.Second)
	for sink.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	traces := sink.Traces()
	if len(traces) != 2 {
		t.Fatalf("server traces = %d, want 2", len(traces))
	}
	tr := traces[0]
	if tr.OpID != 99 {
		t.Errorf("server trace OpID = %d, want propagated trace ID 99", tr.OpID)
	}
	if tr.Operation != "echo/greet" {
		t.Errorf("server trace operation = %q, want echo/greet", tr.Operation)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("server trace spans = %d, want 3", len(tr.Spans))
	}
	for _, s := range tr.Spans {
		if s.Origin != "srv-a" {
			t.Errorf("span origin = %q, want srv-a", s.Origin)
		}
	}
	if !traces[1].Aborted {
		t.Error("failed request's server trace not marked Aborted")
	}

	if got := o.Registry.Counter(obs.MServerRequests).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", obs.MServerRequests, got)
	}
	if got := o.Registry.Counter(obs.MServerErrors).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MServerErrors, got)
	}
}
