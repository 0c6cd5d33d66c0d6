package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// TestTraceContextRoundTrip checks that the trace-context field and
// server-side span records survive the frame encoding, and that their
// absence costs nothing on the wire.
func TestTraceContextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type:    MsgRequest,
		ID:      9,
		Service: "svc",
		OpType:  "run",
		Trace:   &TraceContext{TraceID: 42, SpanID: 3},
	}
	if _, err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || *out.Trace != *in.Trace {
		t.Fatalf("trace context = %+v, want %+v", out.Trace, in.Trace)
	}

	reply := &Message{
		Type:  MsgResponse,
		ID:    9,
		Trace: &TraceContext{TraceID: 42, SpanID: 3},
		Spans: []SpanRecord{
			{Name: "server.queue", StartOffsetNs: 0, DurationNs: 100},
			{Name: "server.exec", StartOffsetNs: 100, DurationNs: 5000},
			{Name: "server.respond", StartOffsetNs: 5100, DurationNs: 200},
		},
	}
	buf.Reset()
	if _, err := WriteMessage(&buf, reply); err != nil {
		t.Fatal(err)
	}
	out, _, err = ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Spans, reply.Spans) {
		t.Fatalf("spans = %+v, want %+v", out.Spans, reply.Spans)
	}

	// Untraced messages must not carry the sections at all, so tracing
	// costs nothing when off.
	buf.Reset()
	if _, err := WriteMessage(&buf, &Message{Type: MsgRequest, ID: 1, Service: "svc"}); err != nil {
		t.Fatal(err)
	}
	if flags := binary.BigEndian.Uint16(buf.Bytes()[6:]); flags&(flagTrace|flagSpans) != 0 {
		t.Fatalf("untraced frame carries trace sections: flags %#04x", flags)
	}
}

func TestWorkRequestRoundTrip(t *testing.T) {
	for _, w := range []WorkRequest{
		{Megacycles: 0},
		{Megacycles: 500},
		{Megacycles: 1 << 40, FloatingPoint: true},
	} {
		enc := w.Encode()
		if len(enc) != WorkRequestBytes {
			t.Fatalf("encoded size = %d, want %d", len(enc), WorkRequestBytes)
		}
		got, err := DecodeWorkRequest(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("round trip = %+v, want %+v", got, w)
		}
	}
	// Legacy 8-byte form (no flag byte) decodes as integer work.
	got, err := DecodeWorkRequest(WorkRequest{Megacycles: 77}.Encode()[:8])
	if err != nil {
		t.Fatal(err)
	}
	if got.Megacycles != 77 || got.FloatingPoint {
		t.Fatalf("legacy decode = %+v", got)
	}
	if _, err := DecodeWorkRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
}
