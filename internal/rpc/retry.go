package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TransportError marks a transport-level failure of an exchange: the
// connection could not be established, broke mid-exchange, timed out, or
// the stream desynchronized. Transport errors are transient — the client
// closes the offending connection and redials on the next call — and a
// caller may safely retry idempotent exchanges or fail the work over to a
// different server. Contrast RemoteError, which reports that the exchange
// completed and the remote application itself failed.
type TransportError struct {
	// Op names the failing stage ("dial", "write", "read").
	Op string
	// Addr is the server address.
	Addr string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("rpc: transport %s %s: %v", e.Op, e.Addr, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *TransportError) Unwrap() error { return e.Err }

// Sentinel errors: named, classified terminal states of the endpoint
// lifecycles. They are deliberately neither transport nor remote errors —
// a closed endpoint is permanent, so retry and failover must not engage —
// and callers can test for them with errors.Is.
var (
	// ErrClientClosed reports an exchange attempted on a Close()d client.
	ErrClientClosed = errors.New("rpc: client closed")
	// ErrServerClosed reports Listen called on a Close()d server.
	ErrServerClosed = errors.New("rpc: server closed")
)

// errEmptyStatus is the cause carried by the *TransportError returned when
// a status exchange completes without a status payload (a protocol
// violation: the stream cannot be trusted).
var errEmptyStatus = errors.New("empty status reply")

// errServerShed is the cause carried by the *DeadlineError returned when a
// server replies CodeDeadlineExceeded: it judged the request's budget
// expired and shed it without executing.
var errServerShed = errors.New("server shed expired request")

// OverloadError reports that the server shed the request at admission
// control: its worker pool and wait queue were full, so the request was
// never executed. The exchange itself succeeded — the connection is
// healthy — but the work should be retried later or failed over to a less
// loaded placement.
type OverloadError struct {
	// Addr is the overloaded server's address.
	Addr string
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("rpc: server %s overloaded, request shed", e.Addr)
}

// IsOverloaded reports whether an RPC failure is an admission-control
// rejection. Overload is transient (IsTransient is also true) but, unlike
// a transport fault, says nothing about the connection's health — pools
// must not evict on it, and reachability tracking must not mark the
// server down.
func IsOverloaded(err error) bool {
	var oerr *OverloadError
	return errors.As(err, &oerr)
}

// DeadlineError reports that an exchange was abandoned because the
// operation's latency budget ran out: the pool checkout would have waited
// past the deadline, a retry backoff would have overrun it, the in-flight
// exchange was cancelled, or the server shed the request as already
// expired. Deadline errors are transient — the failover ladder may try a
// different placement with whatever budget remains — but they say nothing
// about the connection's health, so pools must not evict on one unless it
// also wraps a *TransportError (a cancellation that broke the stream).
type DeadlineError struct {
	// Op names the blocking point that gave up ("checkout", "backoff",
	// "exchange", "server").
	Op string
	// Addr is the server address, when one was selected.
	Addr string
	// Err is the underlying cause (context.DeadlineExceeded,
	// context.Canceled, ErrPoolExhausted, or a wrapped transport fault).
	Err error
}

// Error implements error.
func (e *DeadlineError) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("rpc: deadline %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("rpc: deadline %s %s: %v", e.Op, e.Addr, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *DeadlineError) Unwrap() error { return e.Err }

// IsDeadline reports whether an RPC failure is a latency-budget expiry or
// cancellation. Deadline failures are transient (IsTransient is also true)
// so the failover ladder engages, but reachability tracking must not mark
// the server down on one — the server may be healthy and merely slow.
func IsDeadline(err error) bool {
	var derr *DeadlineError
	return errors.As(err, &derr)
}

// isTimeoutErr reports whether an I/O failure is a deadline firing on the
// connection (as opposed to a reset, refusal, or short read).
func isTimeoutErr(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// IsTransient reports whether an RPC failure is worth retrying or failing
// over: transport faults, admission-control rejections, and deadline
// expiries are; remote application errors are not.
func IsTransient(err error) bool {
	var terr *TransportError
	if errors.As(err, &terr) {
		return true
	}
	return IsOverloaded(err) || IsDeadline(err)
}

// IsRemote reports whether an RPC failure is a remote application error —
// the exchange itself succeeded and the service returned a failure, so a
// retry on the same or a different server would fail identically.
func IsRemote(err error) bool {
	var rerr *RemoteError
	return errors.As(err, &rerr)
}

// RetryPolicy bounds automatic retries of idempotent exchanges
// (PingContext and StatusContext). Each retry waits BaseDelay·Multiplier^n, capped at MaxDelay,
// with a deterministic jitter fraction subtracted so synchronized clients
// do not retry in lockstep.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries; 0 selects 3. 1 disables
	// retrying.
	MaxAttempts int
	// BaseDelay is the wait before the first retry; 0 selects 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth; 0 selects 2s.
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor; 0 selects 2.
	Multiplier float64
	// JitterFraction in [0,1) randomly shrinks each delay by up to that
	// fraction; 0 selects 0.2. Negative disables jitter.
	JitterFraction float64
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 3
	}
	return p.MaxAttempts
}

// delay computes the backoff before retry number n (0-based), drawing
// jitter from the supplied generator.
func (p RetryPolicy) delay(n int, rng *splitMix) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(base)
	for i := 0; i < n; i++ {
		d *= mult
		if d >= float64(max) {
			d = float64(max)
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	jitter := p.JitterFraction
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 && rng != nil {
		if jitter >= 1 {
			jitter = 0.99
		}
		d *= 1 - jitter*rng.float64()
	}
	return time.Duration(d)
}

// RetryBudget is a shared token bucket bounding the aggregate retry rate
// across the clients that share it (typically the clients of one Pool).
// Each retry withdraws one token; each successful exchange deposits
// CreditRatio tokens back, up to the cap. Under a correlated outage the
// bucket drains quickly and retries stop fleet-wide instead of every
// client independently stacking full backoff ladders — the retry-storm
// half of the p99 tail. A nil *RetryBudget permits everything, so wiring
// one up is always optional.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// Default RetryBudget shape: a burst of 10 retries, refilled at one token
// per 10 successes.
const (
	defaultRetryTokens = 10
	defaultRetryRatio  = 0.1
)

// NewRetryBudget creates a full bucket. max <= 0 selects 10 tokens;
// ratio <= 0 selects 0.1 (one retry earned per ten successes).
func NewRetryBudget(max, ratio float64) *RetryBudget {
	if max <= 0 {
		max = defaultRetryTokens
	}
	if ratio <= 0 {
		ratio = defaultRetryRatio
	}
	return &RetryBudget{tokens: max, max: max, ratio: ratio}
}

// Allow withdraws one retry token, reporting whether a retry may proceed.
// A nil budget always allows.
func (b *RetryBudget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Credit deposits the success dividend. A nil budget ignores it.
func (b *RetryBudget) Credit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
}

// Tokens reports the current balance, for tests and introspection.
func (b *RetryBudget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// jitterSeed derives a deterministic per-endpoint jitter seed (FNV-1a over
// the address, mixed with a salt for pooled siblings). Seeding from the
// address decorrelates backoff across a fleet of clients: with a shared
// constant seed, every client recovering from the same outage would sleep
// identical jittered delays and hammer the server in lockstep.
func jitterSeed(addr string, salt uint64) uint64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= fnvPrime
	}
	// One SplitMix64 round over the salt scatters pooled siblings that
	// share an address into distinct jitter streams.
	z := h + (salt+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitMix is a tiny deterministic generator (SplitMix64) for retry
// jitter, so behavior does not depend on math/rand ordering.
type splitMix struct{ state uint64 }

func (r *splitMix) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
