package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"spectra/internal/obs"
	"spectra/internal/wire"

	spectrarpc "spectra/internal/rpc"
)

// DeadlineOptions derives an end-to-end latency budget for every remote
// operation from the solver's own prediction: the predicted latency times
// Multiplier, clamped to [Floor, Ceiling]. The budget bounds the pool
// checkout wait, the dial, the exchange, and the failover ladder, and is
// propagated on the wire so servers shed work the client has abandoned.
// Inside the budget a hedged backup request may be launched against the
// next-best server once the primary outlives the hedge delay.
type DeadlineOptions struct {
	// Multiplier scales the predicted latency into a budget; 0 selects 3.
	Multiplier float64
	// Floor is the minimum budget, protecting very fast predictions from
	// impossible deadlines; 0 selects 100ms.
	Floor time.Duration
	// Ceiling is the maximum budget; 0 selects 30s.
	Ceiling time.Duration
	// HedgeDelay is how long the primary may run before a hedged backup is
	// launched; 0 derives it from the observed p95 remote latency (falling
	// back to a quarter of the budget while the sample is still small).
	HedgeDelay time.Duration
	// NoHedge disables hedged backups while keeping budgets and
	// cancellation.
	NoHedge bool
	// Disabled turns deadline propagation off entirely, restoring the
	// unbounded behavior. NewClient sets it when the runtime is Virtual.
	Disabled bool
}

func (o DeadlineOptions) multiplier() float64 {
	if o.Multiplier <= 0 {
		return 3
	}
	return o.Multiplier
}

func (o DeadlineOptions) floor() time.Duration {
	if o.Floor <= 0 {
		return 100 * time.Millisecond
	}
	return o.Floor
}

func (o DeadlineOptions) ceiling() time.Duration {
	if o.Ceiling <= 0 {
		return 30 * time.Second
	}
	return o.Ceiling
}

// budgetFor turns a predicted latency (seconds) into a clamped budget.
func (o DeadlineOptions) budgetFor(predictedSeconds float64) time.Duration {
	b := time.Duration(predictedSeconds * o.multiplier() * float64(time.Second))
	if f := o.floor(); b < f {
		b = f
	}
	if c := o.ceiling(); b > c {
		b = c
	}
	return b
}

// budgetContext is the sanctioned budget root: the single place on the
// request path where a latency budget becomes a context. A non-positive
// budget yields an unbounded context, for operations whose deadlines are
// disabled (virtual-time runtimes included) and for server polls and
// probes, which only the transport's flat timeout bounds. Every other
// request-path function threads its caller's ctx — minting a fresh
// context mid-path detaches everything downstream from the operation
// budget, which the ctxflow analyzer rejects; keeping the root in one
// named helper is what makes that rule enforceable.
func budgetContext(budget time.Duration) (context.Context, context.CancelFunc) {
	if budget <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), budget)
}

// hedgeDelay picks how long to let the primary run before hedging: the
// configured delay, else the observed p95 remote latency (a reply slower
// than p95 is statistically already in the tail), else a quarter of the
// budget. Never longer than the budget itself.
func (o DeadlineOptions) hedgeDelay(ring *latencyRing, budget time.Duration) time.Duration {
	d := o.HedgeDelay
	if d <= 0 {
		if p95, ok := ring.p95(); ok {
			d = p95
		} else {
			d = budget / 4
		}
	}
	if d > budget {
		d = budget
	}
	return d
}

// latencyRingSize bounds the rolling remote-latency sample. 64 successful
// calls give a usable p95 while forgetting stale network conditions fast.
const latencyRingSize = 64

// latencyRingMinSamples is how many observations p95 needs before it
// trusts the sample.
const latencyRingMinSamples = 8

// latencyRing is a concurrency-safe rolling window of successful remote
// call latencies, feeding the adaptive hedge delay.
type latencyRing struct {
	mu   sync.Mutex
	buf  [latencyRingSize]time.Duration
	n    int // total observations (saturates at len(buf))
	next int // write cursor
}

func (r *latencyRing) record(d time.Duration) {
	if r == nil || d < 0 {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// p95 returns the 95th-percentile latency of the window, or ok=false while
// the sample is too small to trust.
func (r *latencyRing) p95() (time.Duration, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	n := r.n
	tmp := make([]time.Duration, n)
	copy(tmp, r.buf[:n])
	r.mu.Unlock()
	if n < latencyRingMinSamples {
		return 0, false
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := (n*95 + 99) / 100
	if idx >= n {
		idx = n - 1
	}
	return tmp[idx], true
}

// errHedgeWon is the recorded cause when a hedged backup's reply beat the
// primary: a failover event in the report, though nothing actually failed.
var errHedgeWon = errors.New("core: hedged backup answered first")

// remoteResult is one completed remote attempt inside doRemoteDeadline.
// Reports are shipped back over a channel and accounted serially by the
// coordinating goroutine, because OpContext.account is not goroutine-safe.
type remoteResult struct {
	server string
	out    []byte
	rep    callReport
	err    error
	hedged bool
}

// doRemoteDeadline is DoRemoteOp under a latency budget: the whole
// operation — primary attempt, optional hedged backup, failover ladder —
// runs inside a context whose deadline is derived from the solver's
// predicted latency. The primary call is launched in a goroutine; if it
// outlives the hedge delay, a backup is sent to the next-best server and
// whichever reply arrives first wins, the loser being cancelled
// mid-exchange. Only when every in-budget placement fails does the local
// fallback run (outside the budget: a local result late still beats no
// result).
func (x *OpContext) doRemoteDeadline(optype string, payload []byte) ([]byte, error) {
	c := x.client
	primary := x.decision.Alternative.Server
	budget := c.deadline.budgetFor(x.decision.Predicted.Latency.Seconds())
	c.hooks.budgetSeconds.Observe(budget.Seconds())
	ctx, cancel := budgetContext(budget)
	defer cancel()

	results := make(chan remoteResult, 2)
	launch := func(server string, hedged bool) {
		spanName := obs.SpanRPC
		if hedged {
			spanName = obs.SpanHedge
		}
		sp := x.spans.Start(spanName, -1)
		var tc *wire.TraceContext
		if sp >= 0 {
			tc = &wire.TraceContext{TraceID: x.id, SpanID: uint64(sp)}
		}
		go func() {
			start := time.Now()
			out, rep, err := c.runtime.RemoteCall(ctx, server, x.op.spec.Service, optype, payload, tc)
			if sp >= 0 {
				x.spans.Attach(sp, rep.serverSpans)
				x.spans.EndSpan(sp)
			}
			if err == nil {
				c.latring.record(time.Since(start))
			}
			results <- remoteResult{server: server, out: out, rep: rep, err: err, hedged: hedged}
		}()
	}

	launch(primary, false)
	inFlight := 1

	var hedgeC <-chan time.Time
	if !c.deadline.NoHedge {
		timer := time.NewTimer(c.deadline.hedgeDelay(&c.latring, budget))
		defer timer.Stop()
		hedgeC = timer.C
	}

	var winner *remoteResult
	var primaryErr error
	hedgeServer := ""
	for winner == nil && inFlight > 0 {
		select {
		case res := <-results:
			inFlight--
			x.account(res.rep)
			if res.err == nil {
				r := res
				winner = &r
				break
			}
			if isTransientExec(res.err) {
				c.noteRemoteFailure(res.server, res.err)
			}
			if !res.hedged || primaryErr == nil {
				primaryErr = res.err
			}
		case <-hedgeC:
			hedgeC = nil
			backup := c.nextServer(x.op, x.decision.Alternative, x.params, x.data, map[string]bool{primary: true})
			if backup == "" {
				continue
			}
			hedgeServer = backup
			c.hooks.hedgeLaunched.Inc()
			launch(backup, true)
			inFlight++
		}
	}

	if winner != nil {
		// Cancel the loser and drain it before touching non-goroutine-safe
		// state any further: close-on-cancel makes the abandoned exchange
		// return promptly, and its usage still has to be accounted.
		cancel()
		for inFlight > 0 {
			res := <-results
			inFlight--
			x.account(res.rep)
		}
		c.health.RecordSuccess(winner.server)
		if winner.hedged {
			c.hooks.hedgeWins.Inc()
			x.recordFailover(optype, primary, winner.server, errHedgeWon)
			x.decision.Alternative.Server = winner.server
		}
		return winner.out, nil
	}

	// The connection's I/O deadline (derived from the same budget) can fire
	// a hair before the context's own timer, so a deadline-classified
	// failure counts as an expiry even while ctx.Err() is still nil.
	if ctx.Err() != nil || spectrarpc.IsDeadline(primaryErr) {
		c.hooks.deadlineExceeded.Inc()
	}
	if c.failover.disabled() || !isTransientExec(primaryErr) {
		return nil, fmt.Errorf("core: do_remote_op %q on %q: %w", optype, primary, primaryErr)
	}
	tried := map[string]bool{primary: true}
	if hedgeServer != "" {
		tried[hedgeServer] = true
	}
	out, ranOn, degraded, err := x.failRemote(ctx, optype, payload, primary, primaryErr, tried)
	if err != nil {
		return nil, err
	}
	if degraded {
		x.degraded = true
	} else {
		x.decision.Alternative.Server = ranOn
	}
	return out, nil
}
