// Package wire defines the Spectra wire protocol: length-prefixed binary
// frames exchanged between Spectra clients and servers. A frame is a fixed
// 12-byte header (version, type, section flags, stream ID), the optional
// sections the flags announce, and the raw payload as the tail (see
// frame.go and DESIGN.md §11 for the layout). Byte counts are reported to
// callers so the network monitor can passively estimate bandwidth and
// latency from observed traffic, as the paper's RPC package does (§3.3.2);
// the codec is therefore kept close to the cost of the bytes themselves.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// MaxMessageBytes bounds a single message to protect servers from
// malformed or hostile length prefixes.
const MaxMessageBytes = 64 << 20 // 64 MiB

// ErrMessageTooLarge indicates a frame exceeding MaxMessageBytes.
var ErrMessageTooLarge = errors.New("wire: message too large")

// ErrMalformed indicates a frame body that is not a well-formed version-1
// frame: wrong version byte (a JSON-era peer's body starts with '{'),
// unknown section flags, a length or count running past the body, or
// bytes left over. The stream is desynchronized beyond recovery.
var ErrMalformed = errors.New("wire: malformed frame")

// MsgType identifies a message's role in the protocol.
type MsgType uint8

// Message types.
const (
	MsgRequest MsgType = iota + 1
	MsgResponse
	MsgStatus
	MsgStatusReply
	MsgPing
	MsgPong
	// MsgCancel tells the server the client has abandoned the request with
	// the same ID on this connection: work not yet started is dropped, and
	// a running handler's context is cancelled. Cancels carry no payload
	// and receive no reply — the requesting stream is already gone.
	MsgCancel
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "request"
	case MsgResponse:
		return "response"
	case MsgStatus:
		return "status"
	case MsgStatusReply:
		return "status-reply"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgCancel:
		return "cancel"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Response codes carried in Message.Code. They classify machine-readable
// failure modes that clients dispatch on, unlike Err which is free text.
const (
	// CodeOverloaded marks a request shed by server admission control: the
	// worker pool and its wait queue were full, so the request was never
	// executed and may safely run elsewhere.
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded marks a request whose latency budget (see
	// DeadlineContext) expired before the server could execute it: the work
	// was shed without running, because the client has already given up on
	// the reply. Like CodeOverloaded the connection is healthy.
	CodeDeadlineExceeded = "deadline-exceeded"
)

// Message is the protocol envelope. Every field but Type and ID is an
// optional section: zero values (empty strings, nil pointers, empty
// Payload or Spans) take no bytes on the wire and decode back to their
// zero value. Strings and Payload are byte-transparent. A decoded
// Payload aliases the frame's own read buffer, which nothing else holds.
type Message struct {
	Type MsgType
	// ID names the stream this frame belongs to. Concurrent requests are
	// multiplexed over one connection with distinct IDs; responses may
	// arrive in any order and are matched back to callers by ID, and a
	// MsgCancel carries the ID of the request it abandons.
	ID      uint64
	Service string
	OpType  string
	Payload []byte
	// Err carries a server-side error string on responses.
	Err string
	// Code classifies machine-readable response failures (see the Code*
	// constants); empty on success and on plain application errors.
	Code string
	// Usage reports server resource consumption for the RPC, which the
	// client forwards to its remote proxy monitors via AddUsage.
	Usage *UsageReport
	// Status carries a server resource snapshot on status replies.
	Status *ServerStatus
	// Trace propagates the client's trace context on requests; the server
	// echoes it on the response so spans can be stitched.
	Trace *TraceContext
	// Deadline propagates the operation's remaining latency budget on
	// requests so servers can shed work the client has already abandoned.
	Deadline *DeadlineContext
	// Spans carries the server-side span records of a traced request on the
	// response, as offsets from the server's receipt of the request.
	Spans []SpanRecord
}

// TraceContext identifies the client-side trace (and the span within it)
// that a request executes under. Servers treat it as opaque: they echo it
// back and emit SpanRecords for the work done on its behalf.
type TraceContext struct {
	// TraceID is the client's operation instance identifier.
	TraceID uint64
	// SpanID is the client-side rpc span the server's spans nest under.
	SpanID uint64
}

// DeadlineContext carries an operation's remaining latency budget, in the
// style of gRPC's grpc-timeout header: a relative duration rather than an
// absolute timestamp, so it survives unsynchronized clocks. Each hop
// restates the budget left at transmission time; the receiver measures
// expiry against its own clock from the moment of receipt.
type DeadlineContext struct {
	// BudgetMillis is the whole operation's remaining budget in
	// milliseconds when the message was sent. Non-positive budgets are
	// already expired.
	BudgetMillis int64
}

// Budget returns the remaining budget as a duration.
func (d *DeadlineContext) Budget() time.Duration {
	return time.Duration(d.BudgetMillis) * time.Millisecond
}

// NewDeadlineContext converts a remaining budget into wire form, rounding
// up so sub-millisecond budgets do not encode as already expired.
func NewDeadlineContext(remaining time.Duration) *DeadlineContext {
	ms := remaining.Milliseconds()
	if remaining > 0 && remaining%time.Millisecond != 0 {
		ms++
	}
	return &DeadlineContext{BudgetMillis: ms}
}

// SpanRecord is one server-side span, expressed relative to the server's
// receipt of the request so the client can rebase it onto its own timeline
// without synchronized clocks.
type SpanRecord struct {
	Name string
	// StartOffsetNs is the span's start, in nanoseconds after the server
	// read the request off the wire.
	StartOffsetNs int64
	// DurationNs is the span's length in nanoseconds.
	DurationNs int64
}

// UsageReport describes the resources one RPC consumed on a server.
type UsageReport struct {
	CPUMegacycles float64
	Files         []FileUsage
	Extra         []NamedValue
}

// FileUsage records one file accessed during an RPC.
type FileUsage struct {
	Path      string
	SizeBytes int64
	// FetchedBytes is how much had to be fetched from file servers.
	FetchedBytes int64
}

// NamedValue is an extensible resource measurement.
type NamedValue struct {
	Name  string
	Value float64
}

// ServerStatus is the resource snapshot a Spectra server publishes; clients
// poll it periodically and feed it to the remote proxy monitors (§3.3.5).
type ServerStatus struct {
	Name string
	// SpeedMHz is the server CPU clock.
	SpeedMHz float64
	// LoadFraction is the fraction of CPU recently used by other work.
	LoadFraction float64
	// AvailMHz is the predicted megacycles/second for a new operation.
	AvailMHz float64
	// CachedFiles lists Coda files cached at the server.
	CachedFiles []string
	// FetchRateBps estimates the server's fetch rate from file servers.
	FetchRateBps float64
	// Services lists the service names this server can execute.
	Services []string
}

// WorkRequestBytes is the fixed encoded size of a WorkRequest.
const WorkRequestBytes = 9

// WorkRequest is the payload of the built-in "spectra.work" benchmark
// service: a CPU demand in megacycles, optionally marked floating-point.
// spectrad hosts the service and spectractl exercises it; both sides share
// this encoding instead of hand-rolling the framing.
type WorkRequest struct {
	Megacycles    uint64
	FloatingPoint bool
}

// Encode serializes the request: eight big-endian bytes of megacycles plus
// a floating-point flag byte.
func (w WorkRequest) Encode() []byte {
	buf := make([]byte, WorkRequestBytes)
	binary.BigEndian.PutUint64(buf, w.Megacycles)
	if w.FloatingPoint {
		buf[8] = 1
	}
	return buf
}

// DecodeWorkRequest parses an encoded work request. For compatibility with
// old clients the flag byte may be absent.
func DecodeWorkRequest(p []byte) (WorkRequest, error) {
	if len(p) < 8 {
		return WorkRequest{}, fmt.Errorf("wire: work request needs 8-byte megacycle header, got %d bytes", len(p))
	}
	w := WorkRequest{Megacycles: binary.BigEndian.Uint64(p)}
	if len(p) > 8 && p[8] == 1 {
		w.FloatingPoint = true
	}
	return w, nil
}

// maxPooledBytes caps the encode buffers kept for reuse: one bulk frame
// must not pin tens of megabytes in the pool for the small frames after it.
const maxPooledBytes = 1 << 20

// framePool recycles encode buffers between WriteMessage calls.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteMessage frames a message and puts it on the wire with a single
// Write, returning the bytes written (including the length prefix). A
// message that cannot be framed returns ErrMessageTooLarge with nothing
// written; any other error is the writer's.
func WriteMessage(w io.Writer, m *Message) (int, error) {
	if len(m.Payload) > MaxMessageBytes {
		return 0, ErrMessageTooLarge
	}
	bp := framePool.Get().(*[]byte)
	frame := appendFrame((*bp)[:0], m)
	n, err := 0, ErrMessageTooLarge
	if body := len(frame) - lenPrefixBytes; body <= MaxMessageBytes {
		binary.BigEndian.PutUint32(frame, uint32(body))
		if n, err = w.Write(frame); err != nil {
			err = fmt.Errorf("wire: write: %w", err)
		}
	}
	if cap(frame) <= maxPooledBytes {
		*bp = frame
		framePool.Put(bp)
	}
	return n, err
}

// ReadMessage reads one framed message, returning it and the bytes
// consumed from the wire. Non-finite usage and status floats are decoded
// as 0, so no peer can feed NaN to the demand models.
func ReadMessage(r io.Reader) (*Message, int, error) {
	var lenBuf [lenPrefixBytes]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("wire: read length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxMessageBytes {
		return nil, lenPrefixBytes, ErrMessageTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, lenPrefixBytes, fmt.Errorf("wire: read body: %w", err)
	}
	m, err := parseBody(body)
	if err != nil {
		return nil, lenPrefixBytes + int(n), err
	}
	return m, lenPrefixBytes + int(n), nil
}
