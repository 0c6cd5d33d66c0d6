package core

import (
	"context"
	"errors"
	"fmt"
	"net"

	"spectra/internal/obs"
	"spectra/internal/simnet"
	"spectra/internal/solver"

	spectrarpc "spectra/internal/rpc"
)

// FailoverOptions tunes transparent recovery of remote-execution failures
// inside Spectra, so transient server or link faults do not surface to the
// application (paper north-star: applications delegate placement and keep
// working as resources change).
type FailoverOptions struct {
	// MaxAttempts bounds re-executions on alternative servers per failed
	// call (the failover budget, excluding the original attempt); 0
	// selects 2. Negative disables failover entirely, restoring the
	// caller-handles-it behavior.
	MaxAttempts int
	// NoLocalFallback prevents the terminal rung of the ladder: executing
	// the failed component on the client when no alternative server
	// remains. Local fallback requires the host to offer the service and
	// marks the report Degraded.
	NoLocalFallback bool
}

func (o FailoverOptions) disabled() bool { return o.MaxAttempts < 0 }

func (o FailoverOptions) budget() int {
	if o.MaxAttempts <= 0 {
		return 2
	}
	return o.MaxAttempts
}

// FailoverEvent records one transparent recovery: a call that failed on
// one placement and was re-executed on another.
type FailoverEvent struct {
	// OpType is the service operation that was re-executed.
	OpType string
	// From is the server whose call failed.
	From string
	// To is where the call was re-executed; "" means the client (local
	// fallback).
	To string
	// Cause is the transient failure that triggered the failover.
	Cause string
}

// isTransientExec classifies a remote execution failure: transient faults
// (transport errors, partitioned or fault-injected links, timeouts) may
// succeed on a different placement; remote application errors and
// configuration errors would fail identically anywhere.
func isTransientExec(err error) bool {
	if err == nil {
		return false
	}
	var rerr *spectrarpc.RemoteError
	if errors.As(err, &rerr) {
		return false
	}
	if spectrarpc.IsTransient(err) {
		return true
	}
	if errors.Is(err, simnet.ErrPartitioned) || errors.Is(err, simnet.ErrInjectedFault) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// noteRemoteFailure feeds a transient remote failure into the health
// tracker (the transport has already marked reachability). Deadline
// expiries are excluded: a budget running out says nothing about the
// server's health — it may be answering and merely slow, or the budget
// short — and counting them would quarantine a loaded server that is
// still making progress.
func (c *Client) noteRemoteFailure(server string, err error) {
	if spectrarpc.IsDeadline(err) {
		return
	}
	c.health.RecordFailure(server, c.runtime.Now())
}

// nextServer re-plans a failed remote call from the current (post-failure)
// resource snapshot: among the candidate servers not yet tried, it returns
// the one with the highest utility for the operation's decided plan and
// fidelity, or "" when no feasible server remains. This is the decision
// logic of begin_fidelity_op confined to the server dimension, so failover
// lands on the next-best alternative rather than an arbitrary peer.
func (c *Client) nextServer(op *Operation, alt solver.Alternative, params map[string]float64, data string, tried map[string]bool) string {
	var remaining []string
	for _, s := range c.Servers() {
		if !tried[s] {
			remaining = append(remaining, s)
		}
	}
	if len(remaining) == 0 {
		return ""
	}
	snap := c.monitors.Snapshot(c.runtime.Now(), remaining)
	c.applyHealth(snap, remaining)
	est := newEstimator(op, snap, params, data, c.cons, c.wallClock)
	fn := c.utilityFn(op, snap)

	best, bestU := "", 0.0
	for _, s := range remaining {
		cand := alt
		cand.Server = s
		pred := est.Predict(cand)
		if !pred.Feasible {
			continue
		}
		if u := fn.Utility(pred); best == "" || u > bestU {
			best, bestU = s, u
		}
	}
	return best
}

// failRemote is the shared failover ladder for DoRemoteOp and failed
// DoParallelOps branches: re-execute the call on the next-best server
// (bounded by the failover budget), then fall back to local execution.
// The context carries the operation's remaining latency budget, so every
// rung runs inside the original deadline rather than after it; placements
// already attempted may be pre-seeded via tried (nil starts fresh). Local
// fallback deliberately ignores context expiry — a late local result still
// beats no result, and it costs no further remote waiting. It returns the
// output, where the call finally ran ("" = local), and whether the
// recovery left the decided plan (degraded).
func (x *OpContext) failRemote(ctx context.Context, optype string, payload []byte, failed string, cause error, tried map[string]bool) (out []byte, ranOn string, degraded bool, err error) {
	c := x.client
	service := x.op.spec.Service
	if tried == nil {
		tried = make(map[string]bool, 1)
	}
	tried[failed] = true

	for attempt := 0; attempt < c.failover.budget(); attempt++ {
		if ctx.Err() != nil {
			// The budget ran out mid-ladder; skip straight to the local rung.
			break
		}
		next := c.nextServer(x.op, x.decision.Alternative, x.params, x.data, tried)
		if next == "" {
			break
		}
		tried[next] = true
		out, rep, rerr := x.remoteCallCtx(ctx, next, optype, payload)
		x.account(rep)
		if rerr == nil {
			c.health.RecordSuccess(next)
			x.recordFailover(optype, failed, next, cause)
			return out, next, false, nil
		}
		if !isTransientExec(rerr) {
			return nil, "", false, fmt.Errorf("core: do_remote_op %q on %q (failover): %w", optype, next, rerr)
		}
		c.noteRemoteFailure(next, rerr)
		cause = rerr
		failed = next
	}

	if !c.failover.NoLocalFallback && c.runtime.HostService(service) {
		sp := x.spans.Start(obs.SpanLocal, -1)
		out, rep, lerr := c.runtime.LocalCall(service, optype, payload)
		x.spans.EndSpan(sp)
		x.account(rep)
		if lerr == nil {
			x.recordFailover(optype, failed, "", cause)
			return out, "", true, nil
		}
		cause = fmt.Errorf("%w (local fallback: %v)", cause, lerr)
	}
	return nil, "", false, fmt.Errorf("core: do_remote_op %q on %q: %w", optype, failed, cause)
}

// recordFailover appends a failover event to the operation's report and
// counts it in the metrics registry.
func (x *OpContext) recordFailover(optype, from, to string, cause error) {
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	x.failovers = append(x.failovers, FailoverEvent{
		OpType: optype,
		From:   from,
		To:     to,
		Cause:  msg,
	})
	x.client.hooks.failoverEvents.Inc()
	if to == "" {
		x.client.hooks.failoverLocal.Inc()
	}
}
