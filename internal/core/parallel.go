package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"spectra/internal/sim"
)

// ParallelCall is one branch of a parallel remote phase: the paper's
// future-work extension (§4.3) — "the three engines could be executed in
// parallel on different servers". Each branch may target a different
// server.
type ParallelCall struct {
	// Server names the target; "" uses the operation's decided server.
	Server  string
	OpType  string
	Payload []byte
}

// parallelResult is one branch's outcome: output or error, plus the usage
// actually incurred (partial on failure).
type parallelResult struct {
	out []byte
	rep callReport
	err error
}

// DoParallelOps executes several remote operations concurrently,
// implementing the paper's proposed parallel execution plans. Outputs are
// returned in call order. Resource usage is accounted per branch; the
// operation's wall-clock advances by the slowest branch only. A branch
// that fails transiently — its server died or its link partitioned
// mid-phase — does not fail the phase: the surviving branches' results are
// kept and the failed branch is re-executed through the failover ladder
// (next-best server, then the client itself).
func (x *OpContext) DoParallelOps(calls []ParallelCall) ([][]byte, error) {
	if x.ended {
		return nil, errEnded
	}
	if len(calls) == 0 {
		return nil, errors.New("core: DoParallelOps needs at least one call")
	}
	resolved := make([]ParallelCall, len(calls))
	for i, c := range calls {
		if c.Server == "" {
			c.Server = x.decision.Alternative.Server
		}
		if c.Server == "" {
			return nil, fmt.Errorf("core: parallel call %d has no server", i)
		}
		resolved[i] = c
	}
	// The whole phase — parallel branches and any failover rungs for the
	// branches that die — runs inside the operation's latency budget, from
	// the same sanctioned root as the single-call path. With deadlines off
	// the context is unbounded but still threads through.
	var budget time.Duration
	if !x.client.deadline.Disabled {
		budget = x.client.deadline.budgetFor(x.decision.Predicted.Latency.Seconds())
	}
	ctx, cancel := budgetContext(budget)
	defer cancel()
	results, combined := x.client.runtime.ParallelRemote(ctx, x.op.spec.Service, resolved)
	for _, res := range results {
		x.account(res.rep)
	}
	x.phases.localSeconds += combined.localSeconds
	x.phases.netSeconds += combined.netSeconds
	x.phases.idleSeconds += combined.idleSeconds

	outs := make([][]byte, len(calls))
	for i, res := range results {
		if res.err == nil {
			outs[i] = res.out
			x.client.health.RecordSuccess(resolved[i].Server)
			continue
		}
		if x.client.failover.disabled() || !isTransientExec(res.err) {
			return nil, fmt.Errorf("core: parallel ops: %w", res.err)
		}
		x.client.noteRemoteFailure(resolved[i].Server, res.err)
		out, _, degraded, err := x.failRemote(ctx, resolved[i].OpType, resolved[i].Payload, resolved[i].Server, res.err, nil)
		if err != nil {
			return nil, fmt.Errorf("core: parallel ops: %w", err)
		}
		if degraded {
			x.degraded = true
		}
		outs[i] = out
	}
	return outs, nil
}

// ParallelRemote implements Runtime for the simulation: each
// branch executes against a private clock starting at the current instant;
// the shared clock then advances by the slowest branch. The client's radio
// serializes the transfers (network power for their sum) and idles for the
// remainder of the overlapped window. Failed branches contribute the usage
// they incurred before failing. The context is ignored: simulated branches
// consume virtual time, which a wall-clock budget cannot bound.
func (r *SimRuntime) ParallelRemote(_ context.Context, service string, calls []ParallelCall) ([]parallelResult, phaseUsage) {
	start := r.env.Clock().Now()
	results := make([]parallelResult, len(calls))

	var maxElapsed time.Duration
	var transferSeconds float64
	for i, call := range calls {
		out, rep, elapsed, err := r.parallelBranch(start, service, call)
		transferSeconds += rep.phases.netSeconds
		rep.phases = phaseUsage{} // combined accounting below
		results[i] = parallelResult{out: out, rep: rep, err: err}
		if elapsed > maxElapsed {
			maxElapsed = elapsed
		}
	}

	r.env.Clock().Advance(maxElapsed)
	idleSeconds := sim.Seconds(maxElapsed) - transferSeconds
	if idleSeconds < 0 {
		idleSeconds = 0
	}
	r.env.HostAccount().DrainNetwork(sim.DurationSeconds(transferSeconds))
	r.env.HostAccount().DrainIdle(sim.DurationSeconds(idleSeconds))

	combined := phaseUsage{netSeconds: transferSeconds, idleSeconds: idleSeconds}
	return results, combined
}

// parallelBranch runs one branch against a private clock and returns its
// report (with per-branch phases still populated for transfer accounting)
// and total elapsed duration. On failure it returns the usage and time the
// branch consumed before the fault.
func (r *SimRuntime) parallelBranch(start time.Time, service string, call ParallelCall) ([]byte, callReport, time.Duration, error) {
	node, link, ok := r.env.Server(call.Server)
	if !ok {
		return nil, callReport{}, 0, fmt.Errorf("core: unknown server %q", call.Server)
	}
	fn, ok := node.Service(service)
	if !ok {
		return nil, callReport{}, 0, fmt.Errorf("core: server %q does not offer service %q", call.Server, service)
	}

	reqBytes := int64(len(call.Payload) + msgOverheadBytes)
	upT, err := link.TransferTime(reqBytes)
	if err != nil {
		r.setReachable(call.Server, false)
		return nil, callReport{}, 0, fmt.Errorf("core: send to %q: %w", call.Server, err)
	}

	branchClock := sim.NewVirtualClock(start.Add(upT))
	ctx := NewServiceContext(branchClock, node, nil)
	svcStart := branchClock.Now()
	out, err := fn(ctx, call.OpType, call.Payload)
	svcT := branchClock.Now().Sub(svcStart)
	usage := ctx.Usage()
	partial := callReport{
		bytesSent:        reqBytes,
		rpcs:             1,
		remoteMegacycles: usage.Megacycles,
		phases:           phaseUsage{netSeconds: sim.Seconds(upT)},
	}
	if err != nil {
		r.recordTraffic(call.Server, reqBytes, upT)
		link.RecordTransfer(reqBytes, 0)
		return nil, partial, upT + svcT, fmt.Errorf("core: remote %s on %q: %w", service, call.Server, err)
	}

	respBytes := int64(len(out) + msgOverheadBytes)
	downT, err := link.TransferTime(respBytes)
	if err != nil {
		r.setReachable(call.Server, false)
		r.recordTraffic(call.Server, reqBytes, upT)
		link.RecordTransfer(reqBytes, 0)
		return nil, partial, upT + svcT, fmt.Errorf("core: receive from %q: %w", call.Server, err)
	}

	elapsed := upT + svcT + downT
	r.recordTraffic(call.Server, reqBytes, upT)
	r.recordTraffic(call.Server, respBytes, downT)
	link.RecordTransfer(reqBytes, respBytes)
	r.setReachable(call.Server, true)

	rep := callReport{
		bytesSent:        reqBytes,
		bytesReceived:    respBytes,
		rpcs:             1,
		remoteMegacycles: usage.Megacycles,
		files:            usage.Files,
		phases:           phaseUsage{netSeconds: sim.Seconds(upT + downT)},
	}
	return out, rep, elapsed, nil
}

// ParallelRemote implements Runtime for the live runtime: branches
// check pooled connections out of each target server's pool, so the RPCs
// genuinely overlap without dialing throwaway sockets. A failed branch
// leaves its error in place without aborting its siblings.
//
// Energy accounting mirrors the sim path: the client radio serializes the
// transfers, so the network phase is the per-branch transfer seconds summed
// (bytes over the measured link estimate, plus per-exchange latency) and
// the CPU idles for the rest of the overlapped window.
//
// The context bounds every branch: checkout wait, dial, and exchange all
// respect the operation budget, and an expired budget cancels the
// branches mid-flight instead of letting a stalled server hold the phase
// open unbounded.
func (r *NetRuntime) ParallelRemote(ctx context.Context, service string, calls []ParallelCall) ([]parallelResult, phaseUsage) {
	start := time.Now()
	results := make([]parallelResult, len(calls))

	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			call := calls[i]
			pool, err := r.pool(call.Server)
			if err != nil {
				results[i].err = err
				return
			}
			out, usage, _, err := pool.CallContext(ctx, service, call.OpType, call.Payload, nil)
			if err != nil {
				r.noteFault(call.Server, err)
				results[i].err = fmt.Errorf("core: remote %s on %q: %w", service, call.Server, err)
				return
			}
			rep := callReport{
				bytesSent:     int64(len(call.Payload)) + msgOverheadBytes,
				bytesReceived: int64(len(out)) + msgOverheadBytes,
				rpcs:          1,
			}
			if usage != nil {
				rep.remoteMegacycles = usage.CPUMegacycles
			}
			results[i] = parallelResult{out: out, rep: rep}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	netSeconds := r.parallelTransferSeconds(calls, results)
	idleSeconds := elapsed.Seconds() - netSeconds
	if idleSeconds < 0 {
		// The link estimate says the transfers alone outlast the window;
		// trust the wall clock and book the whole window to the radio.
		netSeconds = elapsed.Seconds()
		idleSeconds = 0
	}
	combined := phaseUsage{netSeconds: netSeconds, idleSeconds: idleSeconds}
	r.account.DrainNetwork(sim.DurationSeconds(netSeconds))
	r.account.DrainIdle(sim.DurationSeconds(idleSeconds))
	return results, combined
}

// parallelTransferSeconds estimates how long the client radio spent moving
// the branches' bytes: each branch's request+response size over its link's
// measured bandwidth, plus one round trip of latency per exchange. Branches
// whose link has no estimate yet (or that failed before transferring)
// contribute nothing — the time is then attributed to idle, which matches
// the old behavior until the passive monitor warms up.
func (r *NetRuntime) parallelTransferSeconds(calls []ParallelCall, results []parallelResult) float64 {
	if r.network == nil {
		return 0
	}
	var total float64
	for i := range results {
		if results[i].err != nil {
			continue
		}
		est, ok := r.network.Log(calls[i].Server).Estimate()
		if !ok || est.BandwidthBps <= 0 {
			continue
		}
		bytes := results[i].rep.bytesSent + results[i].rep.bytesReceived
		total += float64(bytes)/est.BandwidthBps + est.Latency.Seconds()
	}
	return total
}
