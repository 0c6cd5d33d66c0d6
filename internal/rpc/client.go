package rpc

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spectra/internal/obs"
	"spectra/internal/wire"
)

// RemoteError is a server-side failure returned through the RPC layer.
type RemoteError struct {
	Service string
	Msg     string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error from %q: %s", e.Service, e.Msg)
}

// Client is a connection to one Spectra server. Concurrent calls are
// multiplexed as independent streams over a single framed connection
// (see muxConn): each request carries a distinct ID, responses are
// matched back to callers by ID in whatever order the server finishes
// them, and cancelled streams propagate a cancel frame so the server
// stops the work. Every successful exchange is recorded in the traffic
// log for passive network monitoring.
//
// The client is self-healing: when the connection fails at the transport
// level — dial failure, flat-timeout expiry, broken stream — it is
// discarded and the next call dials a fresh one, so a single fault never
// poisons subsequent exchanges. Deadline expiries and cancellations do
// NOT break the connection: the stream is abandoned, a cancel frame is
// sent, and sibling streams proceed untouched. Idempotent exchanges
// (PingContext, StatusContext) additionally retry with capped exponential
// backoff and jitter; CallContext does not retry, because service
// operations are not idempotent in general — callers fail over instead.
type Client struct {
	mu sync.Mutex

	addr    string
	mux     *muxConn
	traffic *TrafficLog
	timeout time.Duration

	closed  bool
	redials int
	retry   RetryPolicy
	// budget is the shared retry token bucket (nil permits all retries);
	// pooled clients share their pool's bucket.
	budget *RetryBudget
	rng    splitMix
	// sleep is swapped out by tests to observe backoff without waiting.
	sleep func(time.Duration)
	// onEvict fires once per broken connection the client discards (see
	// setEvictHook). It must not block or acquire locks.
	onEvict func()

	// nextID allocates stream IDs, monotonically across reconnects so a
	// server never sees an ID reused on any connection from this client.
	nextID atomic.Uint64

	// Observability handles (nil-safe no-ops when unset). everDialed
	// distinguishes reconnections from the first dial, which is not a
	// redial worth alerting on.
	mRetries     *obs.Counter
	mRedials     *obs.Counter
	mCallSeconds *obs.Histogram
	everDialed   bool
}

// Dial connects to a Spectra server. The traffic log may be shared with a
// network monitor; pass nil to create a private one. A failed initial dial
// is returned as a *TransportError; the returned client is nil and must
// not be used.
func Dial(addr string, traffic *TrafficLog) (*Client, error) {
	c := NewClient(addr, traffic)
	c.mu.Lock()
	_, err := c.ensureMuxLocked(c.timeout, false)
	if err == nil {
		c.redials = 0 // the initial dial is not a redial
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient returns a client that dials lazily: the first exchange (and
// any exchange after a transport fault) establishes the connection.
func NewClient(addr string, traffic *TrafficLog) *Client {
	if traffic == nil {
		traffic = NewTrafficLog()
	}
	return &Client{
		addr:    addr,
		traffic: traffic,
		timeout: 30 * time.Second,
		rng:     splitMix{state: jitterSeed(addr, 0)},
		sleep:   time.Sleep,
	}
}

// reseedJitter re-derives the backoff jitter stream with a salt, so pooled
// clients sharing one address do not back off in lockstep with each other.
func (c *Client) reseedJitter(salt uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rng = splitMix{state: jitterSeed(c.addr, salt)}
}

// SetTimeout sets the per-exchange flat timeout: the liveness backstop
// after which a silent server is declared broken and the connection is
// redialed. It bounds each stream independently — concurrent streams on
// the shared connection each run their own timer.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.timeout = d
	}
}

// SetRetryPolicy tunes automatic retries of idempotent exchanges.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = p
}

// SetRetryBudget attaches a shared retry token bucket; retries stop while
// it is empty. Nil detaches (all retries permitted).
func (c *Client) SetRetryBudget(b *RetryBudget) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = b
}

// SetMetrics attaches the metrics registry: retry and redial counts plus
// per-exchange latency flow into it. A nil registry detaches.
func (c *Client) SetMetrics(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mRetries = reg.Counter(obs.MRPCRetries)
	c.mRedials = reg.Counter(obs.MRPCRedials)
	c.mCallSeconds = reg.Histogram(obs.MRPCCallSeconds, obs.DefaultLatencyBuckets)
}

// setEvictHook registers a callback fired exactly once per connection
// broken by a transport fault, at the moment the fault is recorded —
// possibly from a connection goroutine, so an idle connection's death is
// counted without waiting for the next exchange. Deadline expiries,
// cancellations, and Close do not fire it — those leave no broken
// connection behind. The hook must not block or acquire locks that could
// be held across exchanges; pools use it for lock-free eviction
// accounting.
func (c *Client) setEvictHook(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEvict = fn
}

// muxFailed is every muxConn's death callback: transport faults count as
// evictions; deliberate closes do not.
func (c *Client) muxFailed(cause error) {
	if cause == ErrClientClosed {
		return
	}
	c.mu.Lock()
	hook := c.onEvict
	c.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// Addr returns the server address.
func (c *Client) Addr() string { return c.addr }

// Traffic returns the client's traffic log.
func (c *Client) Traffic() *TrafficLog { return c.traffic }

// Redials counts reconnections performed after transport faults.
func (c *Client) Redials() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redials
}

// connected reports whether a live multiplexed connection exists.
func (c *Client) connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mux != nil && !c.mux.dead()
}

// Close shuts the connection down. In-flight streams fail with
// ErrClientClosed; a closed client never redials.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	m := c.mux
	c.mux = nil
	c.mu.Unlock()
	if m == nil {
		return nil
	}
	return m.fail(ErrClientClosed)
}

// CallContext invokes a service operation and returns the response
// payload, the server's usage report, and the server's span records. The
// context's remaining budget bounds the dial and the exchange and rides the
// request as a wire.DeadlineContext so the server can shed work the client
// has abandoned. Cancellation or budget expiry abandons only this stream —
// a cancel frame tells the server to stop the work, the shared connection
// stays healthy, and the failure is returned as *DeadlineError. A context
// without a deadline leaves only the flat per-exchange timeout.
//
// Transport failures are returned as *TransportError without retrying:
// service operations are not idempotent, so recovery (retry or failover)
// is the caller's decision.
//
// tc (which may be nil) rides the request so the server executes under the
// client's trace, and the server's span records for the request ride back
// on the response. Span offsets are relative to the server's receipt of
// the request, on the server's clock; RebaseSpans converts them to
// client-timeline spans.
func (c *Client) CallContext(ctx context.Context, service, optype string, payload []byte, tc *wire.TraceContext) ([]byte, *wire.UsageReport, []wire.SpanRecord, error) {
	reply, err := c.exchangeCtx(ctx, &wire.Message{
		Type:    wire.MsgRequest,
		Service: service,
		OpType:  optype,
		Payload: payload,
		Trace:   tc,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	switch reply.Code {
	case wire.CodeOverloaded:
		// Admission-control shed: the exchange completed and the connection
		// is healthy, but the server refused the work. Classified separately
		// from RemoteError so failover engages and from TransportError so
		// pools do not evict a good connection.
		return nil, reply.Usage, reply.Spans, &OverloadError{Addr: c.addr}
	case wire.CodeDeadlineExceeded:
		// The server judged the budget expired and shed the request without
		// executing it. The connection is healthy; the operation is out of
		// time on this placement.
		return nil, reply.Usage, reply.Spans, &DeadlineError{Op: "server", Addr: c.addr, Err: errServerShed}
	}
	if reply.Err != "" {
		return nil, reply.Usage, reply.Spans, &RemoteError{Service: service, Msg: reply.Err}
	}
	return reply.Payload, reply.Usage, reply.Spans, nil
}

// StatusContext fetches the server's resource snapshot, retrying transient
// transport faults per the retry policy (the exchange is idempotent).
// Retries stop once the next backoff would overrun the context's budget.
func (c *Client) StatusContext(ctx context.Context) (*wire.ServerStatus, error) {
	reply, err := c.exchangeRetry(ctx, func() *wire.Message {
		return &wire.Message{Type: wire.MsgStatus}
	})
	if err != nil {
		return nil, err
	}
	if reply.Status == nil {
		return nil, &TransportError{Op: "status", Addr: c.addr, Err: errEmptyStatus}
	}
	return reply.Status, nil
}

// PingContext performs a minimal round trip, seeding the latency estimate.
// Like StatusContext it is idempotent and retries transient faults.
func (c *Client) PingContext(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	if _, err := c.exchangeRetry(ctx, func() *wire.Message {
		return &wire.Message{Type: wire.MsgPing}
	}); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// exchangeRetry performs an idempotent exchange, retrying transient
// transport faults with capped exponential backoff and jitter. msg is a
// constructor because each attempt needs a fresh message (IDs are
// assigned per attempt). Retries respect both the shared retry budget
// (stopping while it is drained, so correlated outages do not trigger a
// retry storm) and the context's remaining time: an attempt whose backoff
// would overrun the budget is never scheduled, and the give-up is
// classified as a *DeadlineError rather than the last transport fault.
func (c *Client) exchangeRetry(ctx context.Context, msg func() *wire.Message) (*wire.Message, error) {
	c.mu.Lock()
	policy := c.retry
	retries := c.mRetries
	budget := c.budget
	c.mu.Unlock()
	attempts := policy.attempts()

	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if !budget.Allow() {
				// The shared bucket is empty: enough peers are already
				// retrying that another attempt only deepens the outage.
				break
			}
			c.mu.Lock()
			d := policy.delay(i-1, &c.rng)
			sleep := c.sleep
			c.mu.Unlock()
			if deadline, ok := ctx.Deadline(); ok {
				if remaining := time.Until(deadline); d >= remaining {
					return nil, &DeadlineError{Op: "backoff", Addr: c.addr, Err: lastErr}
				}
			}
			retries.Inc()
			sleep(d)
		}
		reply, err := c.exchangeCtx(ctx, msg())
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if !IsTransient(err) || IsDeadline(err) {
			// Remote errors would fail identically on retry; deadline
			// failures mean the budget is spent, so backing off and trying
			// again can only finish later than giving up now.
			break
		}
	}
	return nil, lastErr
}

// exchangeCtx runs one stream over the multiplexed connection: assign an
// ID, propagate the remaining budget on request frames, hand the message
// to the demux, and record the traffic observation on success. The
// effective per-stream timeout is the smaller of the flat per-exchange
// timeout and the context's remaining budget; budgetBound records which
// one binds, because the two expire differently — a budget expiry
// abandons just this stream (cancel frame, *DeadlineError, connection
// kept), while a flat-timeout expiry means the server went silent past
// the liveness bound, so the connection is broken, the failure is a
// *TransportError, and the next exchange redials.
func (c *Client) exchangeCtx(ctx context.Context, msg *wire.Message) (*wire.Message, error) {
	var remaining time.Duration // 0 means unbounded
	if deadline, ok := ctx.Deadline(); ok {
		remaining = time.Until(deadline)
		if remaining <= 0 {
			return nil, &DeadlineError{Op: "exchange", Addr: c.addr, Err: context.DeadlineExceeded}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, &DeadlineError{Op: "exchange", Addr: c.addr, Err: err}
	}

	c.mu.Lock()
	timeout := c.timeout
	// budgetBound records that the effective timeout is the context's
	// remaining budget, not the per-exchange flat timeout: its expiry is
	// then the budget running out — a per-stream event that must not be
	// misread as a transport fault, which would evict a healthy shared
	// connection and count against the server's health.
	budgetBound := false
	if remaining > 0 && (timeout <= 0 || remaining < timeout) {
		timeout = remaining
		budgetBound = true
	}
	m, err := c.ensureMuxLocked(timeout, budgetBound)
	callH := c.mCallSeconds
	budget := c.budget
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

	msg.ID = c.nextID.Add(1)
	if remaining > 0 && msg.Type == wire.MsgRequest {
		msg.Deadline = wire.NewDeadlineContext(remaining)
	}

	start := time.Now()
	reply, bytes, err := m.call(ctx, msg, timeout, budgetBound)
	if err != nil {
		if m.dead() {
			c.noteMuxDead(m)
		}
		return nil, err
	}
	elapsed := time.Since(start)
	c.traffic.Record(TrafficObservation{
		Bytes:   bytes,
		Elapsed: elapsed,
		When:    time.Now(),
	})
	callH.Observe(elapsed.Seconds())
	// Every successful exchange earns back a fraction of a retry token
	// for the budget shared with pooled siblings.
	budget.Credit()
	return reply, nil
}

// ensureMuxLocked returns the live multiplexed connection, dialing one if
// none exists (or the previous one died while idle). The dial is bounded
// by the exchange's effective timeout; budgetBound marks that timeout as
// the context's remaining budget, so a dial that runs out of time is a
// deadline expiry, not evidence the server is unreachable. The caller
// holds c.mu.
func (c *Client) ensureMuxLocked(timeout time.Duration, budgetBound bool) (*muxConn, error) {
	if c.closed {
		return nil, ErrClientClosed
	}
	if m := c.mux; m != nil {
		if !m.dead() {
			return m, nil
		}
		// The connection died while idle; its eviction was already
		// counted by the death callback. Just discard the reference.
		c.mux = nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		if budgetBound && isTimeoutErr(err) {
			return nil, &DeadlineError{Op: "dial", Addr: c.addr, Err: context.DeadlineExceeded}
		}
		return nil, &TransportError{Op: "dial", Addr: c.addr, Err: err}
	}
	c.mux = newMuxConn(c.addr, conn, c.muxFailed)
	c.redials++
	if c.everDialed {
		c.mRedials.Inc()
	}
	c.everDialed = true
	return c.mux, nil
}

// noteMuxDead discards the client's reference to a failed connection so
// the next exchange redials. Concurrent streams failing together all
// report the same muxConn; the pointer guard makes the discard idempotent
// (the eviction itself was counted once, by the death callback).
func (c *Client) noteMuxDead(m *muxConn) {
	c.mu.Lock()
	if c.mux == m {
		c.mux = nil
	}
	c.mu.Unlock()
}
