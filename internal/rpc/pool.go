package rpc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"spectra/internal/obs"
	"spectra/internal/wire"
)

// Pool sentinel errors. Like the client/server lifecycle sentinels they are
// deliberately unclassified: a closed pool is permanent and exhaustion is a
// local admission decision, so neither should engage transport-level retry.
var (
	// ErrPoolClosed reports a checkout attempted on a Close()d pool.
	ErrPoolClosed = errors.New("rpc: pool closed")
	// ErrPoolExhausted reports a checkout rejected because every stream
	// slot was busy and either the waiter cap was reached or the wait
	// outlived the operation's budget. Deadline-bounded waits return it
	// wrapped in a *DeadlineError, so errors.Is(err, ErrPoolExhausted)
	// holds for both.
	ErrPoolExhausted = errors.New("rpc: pool exhausted")
)

// DefaultPoolSize is the connection cap used when PoolOptions.Size is
// zero. Connections are multiplexed, so concurrency comes from stream
// slots, not connection count: two connections exist for redundancy (a
// flat-timeout fault on one does not strand every in-flight stream), not
// for parallelism.
const DefaultPoolSize = 2

// DefaultStreamsPerConn is the per-connection concurrent-stream cap used
// when PoolOptions.StreamsPerConn is zero.
const DefaultStreamsPerConn = 64

// PoolOptions tunes a connection pool.
type PoolOptions struct {
	// Size caps the number of multiplexed connections; 0 selects
	// DefaultPoolSize. 1 pins all streams to a single connection.
	Size int
	// StreamsPerConn caps concurrent in-flight streams per connection; 0
	// selects DefaultStreamsPerConn. Size × StreamsPerConn is the pool's
	// total concurrency.
	StreamsPerConn int
	// MaxWaiters caps how many checkouts may block waiting for a stream
	// slot when the pool is at capacity; 0 means unlimited, negative means
	// no waiting (immediate ErrPoolExhausted at capacity).
	MaxWaiters int
	// Timeout is the per-exchange flat timeout applied to pooled clients;
	// 0 keeps the client default.
	Timeout time.Duration
	// Retry is the retry policy applied to pooled clients' idempotent
	// exchanges.
	Retry RetryPolicy
}

func (o PoolOptions) size() int {
	if o.Size <= 0 {
		return DefaultPoolSize
	}
	return o.Size
}

func (o PoolOptions) streams() int {
	if o.StreamsPerConn <= 0 {
		return DefaultStreamsPerConn
	}
	return o.StreamsPerConn
}

// Pool is a stream-slot limiter over a small set of multiplexed
// connections to one server. Concurrency no longer requires a connection
// per in-flight call: each connection carries up to StreamsPerConn
// concurrent streams, so the pool's job shrinks to bounding total
// in-flight work (Size × StreamsPerConn slots) and spreading streams
// round-robin across connections. Checkout is a semaphore acquire — free
// in the common case, a deadline-bounded wait at saturation — so the
// checkout queue that once dominated the p99 tail is gone from the hot
// path.
//
// Connections are created lazily and self-heal: a transport fault breaks
// only the faulted connection, its in-flight streams fail with classified
// errors, and the next stream routed to it redials. The pool counts each
// broken connection as an eviction (via a lock-free hook, so the
// accounting cannot deadlock against client internals). All clients of
// one pool share a RetryBudget, bounding the aggregate retry rate during
// correlated outages.
type Pool struct {
	addr    string
	traffic *TrafficLog
	opts    PoolOptions
	budget  *RetryBudget

	// slots is the stream-slot semaphore (cap Size × StreamsPerConn);
	// closeCh wakes parked acquires on Close.
	slots   chan struct{}
	closeCh chan struct{}

	mu       sync.Mutex
	clients  []*Client // one per connection slot; nil until first use
	next     uint64    // round-robin cursor over connection slots
	seq      uint64    // clients ever created (jitter salt, Stats.Created)
	closed   bool
	registry *obs.Registry

	// Lock-free occupancy and eviction accounting. The eviction counters
	// are fired from the clients' evict hooks, which run under client
	// locks — they must not touch p.mu (SetMetrics and client creation
	// hold p.mu while taking client locks, and an AB-BA deadlock hides
	// there).
	waiters atomic.Int64
	inUse   atomic.Int64
	evicted atomic.Int64

	mCreated   atomic.Pointer[obs.Counter]
	mEvicted   atomic.Pointer[obs.Counter]
	mWaits     atomic.Pointer[obs.Counter]
	mExhausted atomic.Pointer[obs.Counter]
	gInUse     atomic.Pointer[obs.Gauge]
}

// NewPool returns a pool of lazily dialed multiplexed connections to
// addr. The traffic log may be shared with a network monitor; pass nil to
// create a private one. No connection is dialed until the first call
// needs one.
func NewPool(addr string, traffic *TrafficLog, opts PoolOptions) *Pool {
	if traffic == nil {
		traffic = NewTrafficLog()
	}
	return &Pool{
		addr:    addr,
		traffic: traffic,
		opts:    opts,
		budget:  NewRetryBudget(0, 0),
		slots:   make(chan struct{}, opts.size()*opts.streams()),
		closeCh: make(chan struct{}),
	}
}

// Addr returns the server address.
func (p *Pool) Addr() string { return p.addr }

// Traffic returns the shared traffic log.
func (p *Pool) Traffic() *TrafficLog { return p.traffic }

// Size returns the pool's connection cap.
func (p *Pool) Size() int { return p.opts.size() }

// StreamSlots returns the pool's total concurrency: connection cap times
// streams per connection.
func (p *Pool) StreamSlots() int { return cap(p.slots) }

// RetryBudget returns the shared retry token bucket all of this pool's
// clients draw from.
func (p *Pool) RetryBudget() *RetryBudget { return p.budget }

// SetMetrics attaches the metrics registry: connection churn, waiter
// pressure, and in-flight depth flow into it. A nil registry detaches.
func (p *Pool) SetMetrics(reg *obs.Registry) {
	p.mCreated.Store(reg.Counter(obs.MPoolCreated))
	p.mEvicted.Store(reg.Counter(obs.MPoolEvicted))
	p.mWaits.Store(reg.Counter(obs.MPoolWaits))
	p.mExhausted.Store(reg.Counter(obs.MPoolExhausted))
	p.gInUse.Store(reg.Gauge(obs.MPoolInUse))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.registry = reg
	for _, c := range p.clients {
		if c != nil {
			c.SetMetrics(reg)
		}
	}
}

// SetTimeout sets the per-exchange flat timeout for all connections,
// current and future.
func (p *Pool) SetTimeout(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d > 0 {
		p.opts.Timeout = d
	}
	for _, c := range p.clients {
		if c != nil {
			c.SetTimeout(d)
		}
	}
}

// SetRetryPolicy tunes automatic retries of idempotent exchanges for all
// connections, current and future.
func (p *Pool) SetRetryPolicy(policy RetryPolicy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.opts.Retry = policy
	for _, c := range p.clients {
		if c != nil {
			c.SetRetryPolicy(policy)
		}
	}
}

// PoolStats is a point-in-time view of pool occupancy, for tests and
// debugging.
type PoolStats struct {
	// Live counts connections currently established.
	Live int
	// Idle counts free stream slots (total minus in flight).
	Idle int
	// Waiters counts checkouts blocked waiting for a stream slot.
	Waiters int
	// Created counts every connection slot the pool has populated.
	Created int
	// Evicted counts broken connections discarded after transport faults.
	Evicted int
}

// Stats returns current occupancy counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	live := 0
	for _, c := range p.clients {
		if c != nil && c.connected() {
			live++
		}
	}
	created := int(p.seq)
	p.mu.Unlock()
	return PoolStats{
		Live:    live,
		Idle:    cap(p.slots) - int(p.inUse.Load()),
		Waiters: int(p.waiters.Load()),
		Created: created,
		Evicted: int(p.evicted.Load()),
	}
}

// Close shuts the pool down: connections are closed immediately (failing
// their in-flight streams), and blocked checkouts fail with
// ErrPoolClosed.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	clients := p.clients
	p.clients = nil
	p.mu.Unlock()

	close(p.closeCh)
	var err error
	for _, c := range clients {
		if c == nil {
			continue
		}
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// acquire claims a stream slot and picks the connection to run on. The
// fast path is a non-blocking semaphore send; at saturation the checkout
// parks until a slot frees — or until the context expires, in which case
// it fails promptly with a *DeadlineError wrapping ErrPoolExhausted
// instead of blocking past any useful deadline. A successful acquire must
// be followed by release.
func (p *Pool) acquire(ctx context.Context) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, &DeadlineError{Op: "checkout", Addr: p.addr, Err: err}
	}
	select {
	case <-p.closeCh:
		return nil, ErrPoolClosed
	default:
	}

	select {
	case p.slots <- struct{}{}:
	default:
		// Every stream slot is in flight: park or give up.
		if p.opts.MaxWaiters < 0 {
			p.mExhausted.Load().Inc()
			return nil, ErrPoolExhausted
		}
		if w := p.waiters.Add(1); p.opts.MaxWaiters > 0 && w > int64(p.opts.MaxWaiters) {
			p.waiters.Add(-1)
			p.mExhausted.Load().Inc()
			return nil, ErrPoolExhausted
		}
		p.mWaits.Load().Inc()
		select {
		case p.slots <- struct{}{}:
			p.waiters.Add(-1)
		case <-ctx.Done():
			p.waiters.Add(-1)
			p.mExhausted.Load().Inc()
			return nil, &DeadlineError{
				Op:   "checkout",
				Addr: p.addr,
				Err:  errors.Join(ErrPoolExhausted, ctx.Err()),
			}
		case <-p.closeCh:
			p.waiters.Add(-1)
			return nil, ErrPoolClosed
		}
	}

	c, err := p.clientForNextSlot()
	if err != nil {
		<-p.slots
		return nil, err
	}
	p.gInUse.Load().Set(float64(p.inUse.Add(1)))
	return c, nil
}

// release returns a stream slot after the exchange finishes. Connection
// health needs no handling here: a transport fault already broke only the
// faulted connection inside the client, which redials lazily, and the
// eviction was counted by the client's evict hook.
func (p *Pool) release() {
	p.gInUse.Load().Set(float64(p.inUse.Add(-1)))
	<-p.slots
}

// clientForNextSlot picks the connection for a newly granted stream slot,
// round-robin across connection slots, creating clients lazily.
func (p *Pool) clientForNextSlot() (*Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	if p.clients == nil {
		p.clients = make([]*Client, p.opts.size())
	}
	i := int(p.next % uint64(len(p.clients)))
	p.next++
	c := p.clients[i]
	if c == nil {
		c = p.newClientLocked()
		p.clients[i] = c
	}
	return c, nil
}

// newClientLocked creates a connection slot. The client dials lazily, so no
// network I/O happens here under the pool lock. The caller holds p.mu.
func (p *Pool) newClientLocked() *Client {
	c := NewClient(p.addr, p.traffic)
	// Pooled siblings share an address; salt the jitter seed so their
	// backoff streams stay decorrelated.
	c.reseedJitter(p.seq)
	p.seq++
	if p.opts.Timeout > 0 {
		c.SetTimeout(p.opts.Timeout)
	}
	c.SetRetryPolicy(p.opts.Retry)
	c.SetRetryBudget(p.budget)
	if p.registry != nil {
		c.SetMetrics(p.registry)
	}
	// The hook is lock-free by contract: it may fire under client locks.
	c.setEvictHook(func() {
		p.evicted.Add(1)
		p.mEvicted.Load().Inc()
	})
	p.mCreated.Load().Inc()
	return c
}

// CallContext invokes a service operation on a pooled connection, matching
// (*Client).CallContext: the remaining budget bounds the stream-slot wait,
// the dial, and the exchange, and is propagated to the server. Transport
// failures return *TransportError without retrying, remote failures
// *RemoteError, admission-control sheds *OverloadError.
func (p *Pool) CallContext(ctx context.Context, service, optype string, payload []byte, tc *wire.TraceContext) ([]byte, *wire.UsageReport, []wire.SpanRecord, error) {
	c, err := p.acquire(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	out, usage, spans, err := c.CallContext(ctx, service, optype, payload, tc)
	p.release()
	return out, usage, spans, err
}

// StatusContext fetches the server's resource snapshot on a pooled
// connection, matching (*Client).StatusContext.
func (p *Pool) StatusContext(ctx context.Context) (*wire.ServerStatus, error) {
	c, err := p.acquire(ctx)
	if err != nil {
		return nil, err
	}
	st, err := c.StatusContext(ctx)
	p.release()
	return st, err
}

// PingContext performs a minimal round trip on a pooled connection,
// matching (*Client).PingContext.
func (p *Pool) PingContext(ctx context.Context) (time.Duration, error) {
	c, err := p.acquire(ctx)
	if err != nil {
		return 0, err
	}
	d, err := c.PingContext(ctx)
	p.release()
	return d, err
}
