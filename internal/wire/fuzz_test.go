package wire

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
)

// FuzzReadMessage hardens the frame decoder against arbitrary input: it
// must never panic, never claim to have consumed more bytes than it was
// given, and whatever it accepts must re-encode to a frame that decodes to
// the same message. Run with `go test -fuzz FuzzReadMessage ./internal/wire`.
func FuzzReadMessage(f *testing.F) {
	// Seed with valid frames and near-misses.
	var valid bytes.Buffer
	if _, err := WriteMessage(&valid, &Message{Type: MsgRequest, ID: 1, Service: "s"}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var cancel bytes.Buffer
	if _, err := WriteMessage(&cancel, &Message{Type: MsgCancel, ID: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(cancel.Bytes())
	// A request immediately followed by its own cancel, as a multiplexed
	// client emits when abandoning a stream; decoding the first frame of
	// the pair must not be confused by the trailing bytes.
	var interleaved bytes.Buffer
	interleaved.Write(valid.Bytes())
	interleaved.Write(cancel.Bytes())
	f.Add(interleaved.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A JSON-era peer's frame.
	f.Add([]byte{0, 0, 0, 3, '{', '}', '!'})
	// One frame of every section kind, so mutation starts inside each.
	for _, g := range goldenFrames {
		frame, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Near-misses: a span count far beyond the body, a string running past
	// the end, an unknown flag bit.
	f.Add(frameOf(rawBody(frameVersion, MsgResponse, flagSpans, uvarint(1<<40), make([]byte, 30))))
	f.Add(frameOf(rawBody(frameVersion, MsgRequest, flagService, uvarint(200), []byte("abc"))))
	f.Add(frameOf(rawBody(frameVersion, MsgRequest, flagPayload<<1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := ReadMessage(bytes.NewReader(data))
		if n < 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if err != nil {
			return
		}
		if msg == nil {
			t.Fatal("nil message without error")
		}
		var buf bytes.Buffer
		if _, err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("re-encoding an accepted message: %v", err)
		}
		again, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("decoding the re-encoded message: %v", err)
		}
		if !reflect.DeepEqual(again, msg) {
			t.Fatalf("re-encoded message decodes to %+v, want %+v", again, msg)
		}
	})
}

// FuzzInterleavedCancelStream writes an arbitrary interleaving of request
// and cancel frames onto one buffer — the shape a multiplexed connection
// carries — and re-reads the whole stream, checking every frame comes back
// with its own type and stream ID and that byte accounting stays exact
// across frame boundaries.
func FuzzInterleavedCancelStream(f *testing.F) {
	// Each bit of pattern selects frame kind: 0 = request, 1 = cancel.
	f.Add(uint8(0b0101), uint64(1))
	f.Add(uint8(0b1111), uint64(1<<40))
	f.Add(uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, pattern uint8, baseID uint64) {
		const frames = 8
		var buf bytes.Buffer
		var wrote []Message
		written := 0
		for i := 0; i < frames; i++ {
			m := Message{ID: baseID + uint64(i)}
			if pattern&(1<<i) != 0 {
				m.Type = MsgCancel
			} else {
				m.Type = MsgRequest
				m.Service = "svc"
				m.Payload = []byte{byte(i)}
			}
			n, err := WriteMessage(&buf, &m)
			if err != nil {
				t.Fatal(err)
			}
			written += n
			wrote = append(wrote, m)
		}
		read := 0
		for i, want := range wrote {
			got, n, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			read += n
			if got.Type != want.Type || got.ID != want.ID {
				t.Fatalf("frame %d = type %v id %d, want type %v id %d", i, got.Type, got.ID, want.Type, want.ID)
			}
			if !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d payload = %v, want %v", i, got.Payload, want.Payload)
			}
		}
		if read != written {
			t.Fatalf("read %d bytes of %d written", read, written)
		}
	})
}

// FuzzTraceRoundTrip checks encode/decode symmetry for the trace-context
// field and server-side span records under arbitrary values.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), "server.exec", int64(10), int64(500))
	f.Add(uint64(0), uint64(0), "", int64(-1), int64(0))
	f.Add(uint64(math.MaxUint64), uint64(1<<63), "\xff\xfe not UTF-8", int64(math.MinInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, traceID, spanID uint64, name string, startNs, durNs int64) {
		var buf bytes.Buffer
		in := &Message{
			Type:  MsgResponse,
			ID:    1,
			Trace: &TraceContext{TraceID: traceID, SpanID: spanID},
			Spans: []SpanRecord{{Name: name, StartOffsetNs: startNs, DurationNs: durNs}},
		}
		if _, err := WriteMessage(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if out.Trace == nil || *out.Trace != *in.Trace {
			t.Fatalf("trace = %+v, want %+v", out.Trace, in.Trace)
		}
		if len(out.Spans) != 1 || out.Spans[0] != in.Spans[0] {
			t.Fatalf("spans = %+v, want %+v", out.Spans, in.Spans)
		}
	})
}

// FuzzDeadlineRoundTrip checks encode/decode symmetry for the deadline
// context under arbitrary budgets, including negative (already expired)
// ones, and that a frame without a deadline decodes to a nil context.
func FuzzDeadlineRoundTrip(f *testing.F) {
	f.Add(int64(250), true)
	f.Add(int64(0), true)
	f.Add(int64(-7), true)
	f.Add(int64(1<<40), false)
	f.Fuzz(func(t *testing.T, budgetMillis int64, withDeadline bool) {
		var buf bytes.Buffer
		in := &Message{Type: MsgRequest, ID: 9, Service: "s"}
		if withDeadline {
			in.Deadline = &DeadlineContext{BudgetMillis: budgetMillis}
		}
		if _, err := WriteMessage(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !withDeadline {
			if out.Deadline != nil {
				t.Fatalf("deadline = %+v, want nil", out.Deadline)
			}
			return
		}
		if out.Deadline == nil || out.Deadline.BudgetMillis != budgetMillis {
			t.Fatalf("deadline = %+v, want budgetMillis %d", out.Deadline, budgetMillis)
		}
	})
}

// FuzzRoundTrip checks encode/decode symmetry for a message carrying every
// section: arbitrary bytes in the payload and in the strings (both are
// byte-transparent), arbitrary integers, and arbitrary floats — which come
// back unchanged when finite and as 0 when not.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), "service", "optype", uint64(7), 123.5, 0.25, int64(250), int64(-9))
	f.Add([]byte{}, "", "\xff\x00", uint64(math.MaxUint64), math.NaN(), math.Inf(-1), int64(math.MinInt64), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, payload []byte, service, optype string, id uint64, cpu, load float64, budget, offset int64) {
		in := &Message{
			Type:    MsgResponse,
			ID:      id,
			Service: service,
			OpType:  optype,
			Err:     optype,
			Code:    service,
			Payload: payload,
			Usage: &UsageReport{
				CPUMegacycles: cpu,
				Files:         []FileUsage{{Path: service, SizeBytes: budget, FetchedBytes: offset}},
				Extra:         []NamedValue{{Name: optype, Value: load}},
			},
			Status: &ServerStatus{
				Name: service, SpeedMHz: cpu, LoadFraction: load, AvailMHz: cpu, FetchRateBps: load,
				CachedFiles: []string{optype, service}, Services: []string{service},
			},
			Trace:    &TraceContext{TraceID: id, SpanID: ^id},
			Deadline: &DeadlineContext{BudgetMillis: budget},
			Spans:    []SpanRecord{{Name: optype, StartOffsetNs: offset, DurationNs: budget}},
		}
		var buf bytes.Buffer
		wrote, err := WriteMessage(&buf, in)
		if err != nil {
			if len(payload) > MaxMessageBytes/2 {
				return // oversized input may legitimately fail
			}
			t.Fatal(err)
		}
		out, read, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if read != wrote {
			t.Fatalf("wrote %d bytes, read %d", wrote, read)
		}

		want := *in
		if len(payload) == 0 {
			want.Payload = nil
		}
		cpu, load = finiteOrZero(cpu), finiteOrZero(load)
		usage := *in.Usage
		usage.CPUMegacycles = cpu
		usage.Extra = []NamedValue{{Name: optype, Value: load}}
		want.Usage = &usage
		status := *in.Status
		status.SpeedMHz, status.LoadFraction, status.AvailMHz, status.FetchRateBps = cpu, load, cpu, load
		want.Status = &status
		if !reflect.DeepEqual(out, &want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, &want)
		}
	})
}
