package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type:    MsgRequest,
		ID:      7,
		Service: "speech",
		OpType:  "recognize",
		Payload: []byte("hello"),
		Usage: &UsageReport{
			CPUMegacycles: 123.5,
			Files:         []FileUsage{{Path: "/coda/lm", SizeBytes: 9, FetchedBytes: 9}},
			Extra:         []NamedValue{{Name: "rpcs", Value: 2}},
		},
	}
	wrote, err := WriteMessage(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	out, read, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != read {
		t.Fatalf("wrote %d bytes but read %d", wrote, read)
	}
	if out.Type != in.Type || out.ID != in.ID || out.Service != in.Service ||
		out.OpType != in.OpType || string(out.Payload) != "hello" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if out.Usage == nil || out.Usage.CPUMegacycles != 123.5 || len(out.Usage.Files) != 1 {
		t.Fatalf("usage mismatch: %+v", out.Usage)
	}
}

func TestReadMessageEOF(t *testing.T) {
	var empty bytes.Buffer
	if _, _, err := ReadMessage(&empty); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReadMessageTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], 100)
	buf.Write(lenBuf[:])
	buf.WriteString("short")
	if _, _, err := ReadMessage(&buf); err == nil {
		t.Fatal("truncated body must error")
	}
}

func TestReadMessageTooLarge(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxMessageBytes+1)
	buf.Write(lenBuf[:])
	if _, _, err := ReadMessage(&buf); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("want ErrMessageTooLarge, got %v", err)
	}
}

func TestReadMessageBadFrame(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], 3)
	buf.Write(lenBuf[:])
	buf.WriteString("{{{")
	if _, _, err := ReadMessage(&buf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", err)
	}
}

func TestDeadlineContextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type:     MsgRequest,
		ID:       11,
		Service:  "speech",
		Deadline: NewDeadlineContext(250 * time.Millisecond),
	}
	if _, err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Deadline == nil || out.Deadline.BudgetMillis != 250 {
		t.Fatalf("deadline = %+v, want 250ms budget", out.Deadline)
	}
	if got := out.Deadline.Budget(); got != 250*time.Millisecond {
		t.Fatalf("Budget() = %v, want 250ms", got)
	}
}

func TestNewDeadlineContextRounding(t *testing.T) {
	tests := []struct {
		give time.Duration
		want int64
	}{
		{250 * time.Millisecond, 250},
		{100*time.Millisecond + time.Microsecond, 101}, // round up, not down to expired-adjacent
		{500 * time.Microsecond, 1},                    // sub-millisecond budgets stay alive
		{0, 0},
		{-3 * time.Millisecond, -3},
	}
	for _, tt := range tests {
		if got := NewDeadlineContext(tt.give).BudgetMillis; got != tt.want {
			t.Errorf("NewDeadlineContext(%v).BudgetMillis = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	tests := []struct {
		give MsgType
		want string
	}{
		{MsgRequest, "request"},
		{MsgResponse, "response"},
		{MsgStatus, "status"},
		{MsgStatusReply, "status-reply"},
		{MsgPing, "ping"},
		{MsgPong, "pong"},
		{MsgType(42), "MsgType(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", uint8(tt.give), got, tt.want)
		}
	}
}

func TestStatusRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type: MsgStatusReply,
		ID:   3,
		Status: &ServerStatus{
			Name:         "serverB",
			SpeedMHz:     933,
			LoadFraction: 0.25,
			AvailMHz:     700,
			CachedFiles:  []string{"/coda/a"},
			FetchRateBps: 125000,
			Services:     []string{"latex"},
		},
	}
	if _, err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Status == nil || out.Status.Name != "serverB" || out.Status.SpeedMHz != 933 {
		t.Fatalf("status mismatch: %+v", out.Status)
	}
}

// Property: arbitrary payloads survive a frame round trip byte-for-byte.
func TestPayloadRoundTripProperty(t *testing.T) {
	f := func(payload []byte, id uint64, service string) bool {
		var buf bytes.Buffer
		in := &Message{Type: MsgRequest, ID: id, Service: service, Payload: payload}
		if _, err := WriteMessage(&buf, in); err != nil {
			return false
		}
		out, _, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		return out.ID == id && out.Service == service && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(1); i <= 5; i++ {
		if _, err := WriteMessage(&buf, &Message{Type: MsgPing, ID: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		m, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID != i {
			t.Fatalf("message %d has ID %d", i, m.ID)
		}
	}
}
