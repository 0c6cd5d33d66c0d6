package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frame layout (DESIGN.md §11 has the table). All integers big-endian.
//
//	0   uint32  body length (bytes after this prefix, <= MaxMessageBytes)
//	4   byte    frameVersion
//	5   byte    MsgType
//	6   uint16  section flags
//	8   uint64  stream ID
//	16  ...     the flagged sections, in flag-bit order
//	    ...     Payload: whatever is left of the body (flagPayload)
//
// Strings are a uvarint length then the bytes; lists a uvarint count then
// the elements; floats their IEEE-754 bits; signed integers zig-zag
// varints; trace IDs fixed uint64s.
const (
	lenPrefixBytes = 4
	headerBytes    = 12 // version, type, flags, ID
	frameVersion   = 1
)

// Section flags, in the order the sections appear in the body.
const (
	flagService uint16 = 1 << iota
	flagOpType
	flagErr
	flagCode
	flagUsage
	flagStatus
	flagTrace
	flagDeadline
	flagSpans
	flagPayload

	knownFlags = flagPayload<<1 - 1
)

// Smallest encodings of the list elements. A decoder checks a claimed
// count against bytes-remaining/minimum before allocating for it.
const (
	minStringBytes     = 1     // empty string: length 0
	minFileUsageBytes  = 3     // empty path, two one-byte varints
	minNamedValueBytes = 1 + 8 // empty name, float64
	minSpanRecordBytes = 3     // empty name, two one-byte varints
)

// sectionFlags reports which optional sections m carries: every field
// holding its zero value is left off the wire.
func sectionFlags(m *Message) uint16 {
	var f uint16
	if m.Service != "" {
		f |= flagService
	}
	if m.OpType != "" {
		f |= flagOpType
	}
	if m.Err != "" {
		f |= flagErr
	}
	if m.Code != "" {
		f |= flagCode
	}
	if m.Usage != nil {
		f |= flagUsage
	}
	if m.Status != nil {
		f |= flagStatus
	}
	if m.Trace != nil {
		f |= flagTrace
	}
	if m.Deadline != nil {
		f |= flagDeadline
	}
	if len(m.Spans) > 0 {
		f |= flagSpans
	}
	if len(m.Payload) > 0 {
		f |= flagPayload
	}
	return f
}

// appendFrame appends m's frame to b, leaving the four length-prefix bytes
// zero for the caller to fill once the body length is known to fit.
func appendFrame(b []byte, m *Message) []byte {
	flags := sectionFlags(m)
	b = append(b, 0, 0, 0, 0, frameVersion, byte(m.Type))
	b = binary.BigEndian.AppendUint16(b, flags)
	b = binary.BigEndian.AppendUint64(b, m.ID)
	if flags&flagService != 0 {
		b = appendString(b, m.Service)
	}
	if flags&flagOpType != 0 {
		b = appendString(b, m.OpType)
	}
	if flags&flagErr != 0 {
		b = appendString(b, m.Err)
	}
	if flags&flagCode != 0 {
		b = appendString(b, m.Code)
	}
	if u := m.Usage; u != nil {
		b = appendFloat(b, u.CPUMegacycles)
		b = binary.AppendUvarint(b, uint64(len(u.Files)))
		for _, f := range u.Files {
			b = appendString(b, f.Path)
			b = binary.AppendVarint(b, f.SizeBytes)
			b = binary.AppendVarint(b, f.FetchedBytes)
		}
		b = binary.AppendUvarint(b, uint64(len(u.Extra)))
		for _, e := range u.Extra {
			b = appendString(b, e.Name)
			b = appendFloat(b, e.Value)
		}
	}
	if s := m.Status; s != nil {
		b = appendString(b, s.Name)
		b = appendFloat(b, s.SpeedMHz)
		b = appendFloat(b, s.LoadFraction)
		b = appendFloat(b, s.AvailMHz)
		b = appendStrings(b, s.CachedFiles)
		b = appendFloat(b, s.FetchRateBps)
		b = appendStrings(b, s.Services)
	}
	if t := m.Trace; t != nil {
		b = binary.BigEndian.AppendUint64(b, t.TraceID)
		b = binary.BigEndian.AppendUint64(b, t.SpanID)
	}
	if d := m.Deadline; d != nil {
		b = binary.AppendVarint(b, d.BudgetMillis)
	}
	if flags&flagSpans != 0 {
		b = binary.AppendUvarint(b, uint64(len(m.Spans)))
		for _, s := range m.Spans {
			b = appendString(b, s.Name)
			b = binary.AppendVarint(b, s.StartOffsetNs)
			b = binary.AppendVarint(b, s.DurationNs)
		}
	}
	return append(b, m.Payload...)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// parseBody decodes one frame body. Every length and count is checked
// against the bytes that remain before anything is sliced or allocated,
// so a hostile body costs no more memory than its own length allows.
// Payload aliases body.
func parseBody(body []byte) (*Message, error) {
	if len(body) < headerBytes {
		return nil, fmt.Errorf("%w: %d-byte body is shorter than the %d-byte header", ErrMalformed, len(body), headerBytes)
	}
	if body[0] != frameVersion {
		return nil, fmt.Errorf("%w: version byte %#02x, want %#02x", ErrMalformed, body[0], frameVersion)
	}
	flags := binary.BigEndian.Uint16(body[2:])
	if unknown := flags &^ knownFlags; unknown != 0 {
		return nil, fmt.Errorf("%w: unknown section flags %#04x", ErrMalformed, unknown)
	}
	m := &Message{Type: MsgType(body[1]), ID: binary.BigEndian.Uint64(body[4:])}
	d := decoder{b: body, off: headerBytes}
	if flags&flagService != 0 {
		m.Service = d.str()
	}
	if flags&flagOpType != 0 {
		m.OpType = d.str()
	}
	if flags&flagErr != 0 {
		m.Err = d.str()
	}
	if flags&flagCode != 0 {
		m.Code = d.str()
	}
	if flags&flagUsage != 0 {
		u := &UsageReport{CPUMegacycles: d.float()}
		if n := d.count(minFileUsageBytes); n > 0 {
			u.Files = make([]FileUsage, n)
			for i := range u.Files {
				u.Files[i] = FileUsage{Path: d.str(), SizeBytes: d.varint(), FetchedBytes: d.varint()}
			}
		}
		if n := d.count(minNamedValueBytes); n > 0 {
			u.Extra = make([]NamedValue, n)
			for i := range u.Extra {
				u.Extra[i] = NamedValue{Name: d.str(), Value: d.float()}
			}
		}
		m.Usage = u
	}
	if flags&flagStatus != 0 {
		m.Status = &ServerStatus{
			Name:         d.str(),
			SpeedMHz:     d.float(),
			LoadFraction: d.float(),
			AvailMHz:     d.float(),
			CachedFiles:  d.strs(),
			FetchRateBps: d.float(),
			Services:     d.strs(),
		}
	}
	if flags&flagTrace != 0 {
		m.Trace = &TraceContext{TraceID: d.uint64(), SpanID: d.uint64()}
	}
	if flags&flagDeadline != 0 {
		m.Deadline = &DeadlineContext{BudgetMillis: d.varint()}
	}
	if flags&flagSpans != 0 {
		if n := d.count(minSpanRecordBytes); n > 0 {
			m.Spans = make([]SpanRecord, n)
			for i := range m.Spans {
				m.Spans[i] = SpanRecord{Name: d.str(), StartOffsetNs: d.varint(), DurationNs: d.varint()}
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if rest := body[d.off:]; len(rest) > 0 {
		if flags&flagPayload == 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes and no payload section", ErrMalformed, len(rest))
		}
		m.Payload = rest
	}
	return m, nil
}

// decoder walks a frame body. The first failure sticks: later reads
// return zero values and move nothing, so a section is decoded in
// straight-line code and the error is checked once.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at body offset %d", ErrMalformed, what, d.off)
	}
}

// take returns the next n bytes, or nil once the body has run out.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail(fmt.Sprintf("%d-byte field runs past the end of the body", n))
		return nil
	}
	s := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overflowing varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.Varint
}

func (d *decoder) uint64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (d *decoder) float() float64 {
	return finiteOrZero(math.Float64frombits(d.uint64()))
}

// finiteOrZero replaces NaN and ±Inf with 0. Every float in the protocol
// is a usage or status measurement that feeds a regression model, which
// one non-finite sample would poison for good.
func finiteOrZero(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

func (d *decoder) str() string {
	return string(d.take(d.uvarint()))
}

// count reads a list count and rejects one that cannot fit: n elements of
// at least minBytes each must not exceed the bytes that remain.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off)/uint64(minBytes) {
		d.fail(fmt.Sprintf("list of %d elements exceeds the bytes that remain", n))
		return 0
	}
	return int(n)
}

func (d *decoder) strs() []string {
	n := d.count(minStringBytes)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}
