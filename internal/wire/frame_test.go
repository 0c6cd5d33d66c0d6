package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// goldenFrames pins the byte layout: a change to the format — field order,
// a flag bit, an integer encoding — must show up here as a diff in hex,
// not as two new peers that merely agree with each other.
var goldenFrames = []struct {
	name string
	msg  *Message
	hex  string
}{
	{
		name: "request",
		msg: &Message{
			Type: MsgRequest, ID: 7, Service: "speech", OpType: "recognize",
			Payload:  []byte("hello"),
			Trace:    &TraceContext{TraceID: 42, SpanID: 3},
			Deadline: &DeadlineContext{BudgetMillis: 250},
		},
		hex: "00000034" + // body length 52
			"01" + "01" + "02c3" + // version 1, request, service|optype|trace|deadline|payload
			"0000000000000007" + // stream ID
			"06" + "737065656368" + // "speech"
			"09" + "7265636f676e697a65" + // "recognize"
			"000000000000002a" + "0000000000000003" + // trace ID, span ID
			"f403" + // zig-zag varint 250
			"68656c6c6f", // payload: the tail
	},
	{
		name: "reply",
		msg: &Message{
			Type: MsgResponse, ID: 7, Service: "speech",
			Payload: []byte("world"),
			Usage: &UsageReport{
				CPUMegacycles: 123.5,
				Files:         []FileUsage{{Path: "/coda/lm", SizeBytes: 9, FetchedBytes: 9}},
				Extra:         []NamedValue{{Name: "rpcs", Value: 2}},
			},
			Trace: &TraceContext{TraceID: 42, SpanID: 3},
			Spans: []SpanRecord{{Name: "server.exec", StartOffsetNs: 100, DurationNs: 5000}},
		},
		hex: "0000005b" + // body length 91
			"01" + "02" + "0351" + // version 1, response, service|usage|trace|spans|payload
			"0000000000000007" +
			"06" + "737065656368" +
			"405ee00000000000" + // 123.5
			"01" + "08" + "2f636f64612f6c6d" + "12" + "12" + // 1 file: "/coda/lm", 9, 9
			"01" + "04" + "72706373" + "4000000000000000" + // 1 extra: "rpcs", 2.0
			"000000000000002a" + "0000000000000003" +
			"01" + "0b" + "7365727665722e65786563" + "c801" + "904e" + // 1 span: "server.exec", 100, 5000
			"776f726c64",
	},
	{
		name: "shed",
		msg: &Message{
			Type: MsgResponse, ID: 1 << 40, Err: "busy", Code: CodeOverloaded,
		},
		hex: "0000001c" +
			"01" + "02" + "000c" + // err|code
			"0000010000000000" +
			"04" + "62757379" +
			"0a" + "6f7665726c6f61646564",
	},
	{
		name: "status reply",
		msg: &Message{
			Type: MsgStatusReply, ID: 3,
			Status: &ServerStatus{
				Name: "b", SpeedMHz: 933, LoadFraction: 0.25, AvailMHz: 700,
				CachedFiles: []string{"/a"}, FetchRateBps: 125000, Services: []string{"tex", "x"},
			},
		},
		hex: "00000039" +
			"01" + "04" + "0020" + // status
			"0000000000000003" +
			"01" + "62" + // "b"
			"408d280000000000" + "3fd0000000000000" + "4085e00000000000" + // 933, 0.25, 700
			"01" + "02" + "2f61" + // cached: "/a"
			"40fe848000000000" + // 125000
			"02" + "03" + "746578" + "01" + "78", // services: "tex", "x"
	},
	{
		name: "cancel",
		msg:  &Message{Type: MsgCancel, ID: 9},
		hex:  "0000000c" + "01" + "07" + "0000" + "0000000000000009",
	},
}

func TestGoldenFrames(t *testing.T) {
	for _, tt := range goldenFrames {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := WriteMessage(&buf, tt.msg); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(buf.Bytes()); got != tt.hex {
				t.Fatalf("frame bytes changed:\n got %s\nwant %s", got, tt.hex)
			}
			want, err := hex.DecodeString(tt.hex)
			if err != nil {
				t.Fatal(err)
			}
			out, n, err := ReadMessage(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) {
				t.Fatalf("consumed %d of %d bytes", n, len(want))
			}
			if !reflect.DeepEqual(out, tt.msg) {
				t.Fatalf("decoded %+v, want %+v", out, tt.msg)
			}
		})
	}
}

// countingWriter records how WriteMessage used the writer.
type countingWriter struct {
	writes int
	bytes  int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// One Write per frame: a frame split across writes would cost a syscall
// each and could interleave with nothing only by luck of the caller's lock.
func TestWriteMessageIsOneWrite(t *testing.T) {
	for _, size := range []int{0, 64, 64 << 10, 2 << 20} {
		w := &countingWriter{}
		n, err := WriteMessage(w, &Message{Type: MsgRequest, ID: 1, Service: "s", Payload: make([]byte, size)})
		if err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 || w.bytes != n {
			t.Fatalf("%d-byte payload: %d writes of %d bytes, reported %d", size, w.writes, w.bytes, n)
		}
	}
}

func TestWriteMessageTooLarge(t *testing.T) {
	w := &countingWriter{}
	for _, m := range []*Message{
		{Type: MsgResponse, ID: 1, Payload: make([]byte, MaxMessageBytes+1)},
		// The payload alone fits; the header pushes the body over.
		{Type: MsgResponse, ID: 1, Payload: make([]byte, MaxMessageBytes)},
	} {
		if n, err := WriteMessage(w, m); !errors.Is(err, ErrMessageTooLarge) || n != 0 {
			t.Fatalf("WriteMessage = %d, %v; want 0, ErrMessageTooLarge", n, err)
		}
	}
	if w.writes != 0 {
		t.Fatalf("%d writes for frames that must not be sent", w.writes)
	}
}

// Empty optional fields take no section and decode to their zero value,
// whether the sender left them nil or empty.
func TestEmptySectionsDecodeToNil(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type: MsgResponse, ID: 2, Payload: []byte{}, Spans: []SpanRecord{},
		Usage:  &UsageReport{Files: []FileUsage{}, Extra: []NamedValue{}},
		Status: &ServerStatus{CachedFiles: []string{}, Services: []string{}},
	}
	if _, err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	if flags := binary.BigEndian.Uint16(buf.Bytes()[6:]); flags != flagUsage|flagStatus {
		t.Fatalf("flags = %#04x, want usage|status only", flags)
	}
	out, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := &Message{Type: MsgResponse, ID: 2, Usage: &UsageReport{}, Status: &ServerStatus{}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("decoded %+v (usage %+v, status %+v), want empty fields nil", out, out.Usage, out.Status)
	}
}

// Non-finite floats from a peer decode as 0: they would otherwise reach
// the demand regressions, and one NaN sample poisons a model for good.
func TestNonFiniteFloatsDecodeAsZero(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{
		Type: MsgResponse, ID: 1,
		Usage: &UsageReport{
			CPUMegacycles: math.NaN(),
			Extra:         []NamedValue{{Name: "a", Value: math.Inf(1)}, {Name: "b", Value: 1.5}},
		},
		Status: &ServerStatus{SpeedMHz: math.Inf(-1), LoadFraction: math.NaN(), AvailMHz: 700, FetchRateBps: math.Inf(1)},
	}
	if _, err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantUsage := &UsageReport{Extra: []NamedValue{{Name: "a"}, {Name: "b", Value: 1.5}}}
	if !reflect.DeepEqual(out.Usage, wantUsage) {
		t.Fatalf("usage = %+v, want %+v", out.Usage, wantUsage)
	}
	if want := (&ServerStatus{AvailMHz: 700}); !reflect.DeepEqual(out.Status, want) {
		t.Fatalf("status = %+v, want %+v", out.Status, want)
	}
}

// rawBody assembles a frame body from a header and raw section bytes.
func rawBody(version byte, typ MsgType, flags uint16, sections ...[]byte) []byte {
	b := []byte{version, byte(typ)}
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint64(b, 1)
	for _, s := range sections {
		b = append(b, s...)
	}
	return b
}

func uvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// frameOf prefixes a body with its length.
func frameOf(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestReadMessageHostileBodies feeds the decoder bodies no encoder
// produces. Each must come back as ErrMalformed — never a panic — with the
// whole frame accounted as consumed, having allocated no more than the
// frame's own length plus the error: in particular a claimed list count
// is checked against the bytes that remain before anything is made.
func TestReadMessageHostileBodies(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, 10) // an 11-byte uvarint
	overflow = append(overflow, 0x01)
	float := make([]byte, 8)
	tests := []struct {
		name string
		body []byte
		want string // substring of the error
	}{
		{"empty body", nil, "shorter than"},
		{"short header", rawBody(frameVersion, MsgPing, 0)[:headerBytes-1], "shorter than"},
		{"version 0", rawBody(0, MsgPing, 0), "version byte"},
		{"version 2", rawBody(2, MsgPing, 0), "version byte"},
		{"JSON-era body", []byte(`{"type":1,"id":7,"service":"speech"}`), "version byte 0x7b"},
		{"unknown flag bit", rawBody(frameVersion, MsgRequest, flagPayload<<1), "unknown section flags"},
		{"every flag bit", rawBody(frameVersion, MsgRequest, 0xffff), "unknown section flags"},
		{"string past the end", rawBody(frameVersion, MsgRequest, flagService, uvarint(200), []byte("abc")), "runs past the end"},
		{"string length near 2^64", rawBody(frameVersion, MsgRequest, flagErr, uvarint(math.MaxUint64), []byte("abc")), "runs past the end"},
		{"missing section", rawBody(frameVersion, MsgRequest, flagService|flagOpType, uvarint(1), []byte("s")), "varint"},
		{"uvarint overflow", rawBody(frameVersion, MsgRequest, flagService, overflow), "varint"},
		{"truncated varint", rawBody(frameVersion, MsgRequest, flagDeadline, []byte{0x80}), "varint"},
		{"truncated trace", rawBody(frameVersion, MsgRequest, flagTrace, make([]byte, 15)), "runs past the end"},
		{"truncated usage float", rawBody(frameVersion, MsgResponse, flagUsage, make([]byte, 7)), "runs past the end"},
		{"file count beyond body", rawBody(frameVersion, MsgResponse, flagUsage, float, uvarint(1<<40), []byte{0, 0, 0}), "exceeds the bytes that remain"},
		{"extra count beyond body", rawBody(frameVersion, MsgResponse, flagUsage, float, uvarint(0), uvarint(1<<40), make([]byte, 64)), "exceeds the bytes that remain"},
		{"cached-file count beyond body", rawBody(frameVersion, MsgStatusReply, flagStatus, uvarint(0), float, float, float, uvarint(1<<62)), "exceeds the bytes that remain"},
		{"service count beyond body", rawBody(frameVersion, MsgStatusReply, flagStatus, uvarint(0), float, float, float, uvarint(0), float, uvarint(5), []byte{0, 0, 0, 0}), "exceeds the bytes that remain"},
		{"span count beyond body", rawBody(frameVersion, MsgResponse, flagSpans, uvarint(1<<40), make([]byte, 30)), "exceeds the bytes that remain"},
		{"span count fits, spans do not", rawBody(frameVersion, MsgResponse, flagSpans, uvarint(2), uvarint(4), []byte("name"), []byte{2}), "varint"},
		{"trailing bytes, no payload flag", rawBody(frameVersion, MsgPing, 0, []byte("x")), "trailing bytes"},
		{"trailing bytes after sections", rawBody(frameVersion, MsgRequest, flagService, uvarint(1), []byte("s"), []byte("payload")), "trailing bytes"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame := frameOf(tt.body)
			r := bytes.NewReader(frame)
			var (
				msg *Message
				n   int
				err error
			)
			allocated := allocatedBytes(func() { msg, n, err = ReadMessage(r) })
			if !errors.Is(err, ErrMalformed) || msg != nil {
				t.Fatalf("ReadMessage = %+v, %v; want ErrMalformed", msg, err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
			if n != len(frame) {
				t.Fatalf("consumed %d bytes of a %d-byte frame", n, len(frame))
			}
			// The body buffer, the Message and the error text (a few KiB
			// of fmt scratch under -race); nothing sized by what the body
			// claims.
			if limit := uint64(len(frame)) + 4096; allocated > limit {
				t.Fatalf("allocated %d bytes decoding a %d-byte frame, want <= %d", allocated, len(frame), limit)
			}
		})
	}
}

// allocatedBytes reports the heap bytes f allocates. Tests in this package
// do not run in parallel, so the process-wide counter is f's own.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A decoded payload is a slice of the frame's own body buffer — no copy —
// and that buffer belongs to this frame alone, so the next frame read from
// the same stream cannot disturb it.
func TestPayloadAliasesPerFrameBuffer(t *testing.T) {
	var buf bytes.Buffer
	first := bytes.Repeat([]byte{0xaa}, 4096)
	second := bytes.Repeat([]byte{0x55}, 4096)
	for _, p := range [][]byte{first, second} {
		if _, err := WriteMessage(&buf, &Message{Type: MsgRequest, ID: 1, Service: "s", Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	a, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cap(a.Payload) != len(a.Payload) {
		t.Fatalf("payload cap %d > len %d: an append would write past the frame", cap(a.Payload), len(a.Payload))
	}
	b, _, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Payload, first) || !bytes.Equal(b.Payload, second) {
		t.Fatal("reading the second frame disturbed the first frame's payload")
	}
	var frame bytes.Buffer
	if _, err := WriteMessage(&frame, &Message{Type: MsgRequest, ID: 1, Service: "s", Payload: first}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame.Bytes())
		if _, _, err := ReadMessage(r); err != nil {
			t.Fatal(err)
		}
	})
	// The body buffer, the Message, the Service string; a payload copy
	// would be a fourth.
	if allocs > 3 {
		t.Fatalf("%v allocations per decode, want <= 3 (payload must not be copied)", allocs)
	}
}
