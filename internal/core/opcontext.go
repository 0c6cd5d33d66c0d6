package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spectra/internal/monitor"
	"spectra/internal/obs"
	"spectra/internal/predict"
	"spectra/internal/wire"
)

// OpContext is one in-flight operation execution: the handle an
// application uses between begin_fidelity_op and end_fidelity_op.
type OpContext struct {
	client *Client
	op     *Operation
	id     uint64

	decision Decision
	params   map[string]float64
	data     string

	simStart  time.Time
	wallStart time.Time
	phases    phaseUsage
	started   bool
	ended     bool
	aborted   bool

	// cacheKey is the decision-cache identity of this Begin ("" when the
	// cache was off or bypassed); End feeds the execution outcome back to
	// the entry through it.
	cacheKey string

	// failovers records transparent recoveries performed mid-operation;
	// degraded marks executions that left the decided plan (e.g. a remote
	// component ran locally), whose observations are not representative
	// and are therefore withheld from the demand models.
	failovers []FailoverEvent
	degraded  bool

	// trace, when non-nil, accumulates the decision trace emitted at End
	// or Abort. predDemand is the chosen alternative's per-resource
	// predicted demand (valid when predValid), kept even without a sink so
	// prediction-error accounting works metrics-only.
	trace      *obs.DecisionTrace
	predDemand obs.ResourceDemand
	predValid  bool
	// spans records the operation's phase tree; nil (all methods no-op)
	// when tracing is off, keeping the untraced path allocation-free.
	spans *obs.SpanRecorder
}

// Decision returns how Spectra chose to execute the operation; the
// application reads the plan, server, and fidelity from it.
func (x *OpContext) Decision() Decision { return x.decision }

// ID returns the operation instance identifier.
func (x *OpContext) ID() uint64 { return x.id }

// Fidelity returns the chosen fidelity assignment.
func (x *OpContext) Fidelity() map[string]string { return x.decision.Alternative.Fidelity }

// Plan returns the chosen execution plan name.
func (x *OpContext) Plan() string { return x.decision.Alternative.Plan }

// Server returns the chosen server ("" for purely local execution). After
// a mid-operation failover it names the server actually in use.
func (x *OpContext) Server() string { return x.decision.Alternative.Server }

// errEnded guards against use after End.
var errEnded = errors.New("core: operation already ended")

// errAborted guards against End after Abort.
var errAborted = errors.New("core: operation aborted")

// DoLocalOp makes an RPC to the local Spectra server (paper §3.1).
func (x *OpContext) DoLocalOp(optype string, payload []byte) ([]byte, error) {
	if x.ended {
		return nil, errEnded
	}
	sp := x.spans.Start(obs.SpanLocal, -1)
	out, rep, err := x.client.runtime.LocalCall(x.op.spec.Service, optype, payload)
	x.spans.EndSpan(sp)
	x.account(rep)
	if err != nil {
		return nil, fmt.Errorf("core: do_local_op %q: %w", optype, err)
	}
	return out, nil
}

// DoRemoteOp makes an RPC to the chosen remote Spectra server. A transient
// failure — broken connection, timeout, partitioned link — is recovered
// inside Spectra: the call is re-planned onto the next-best server from
// the current decision space (bounded by the failover budget) and finally
// onto the client itself, so the application only sees an error when every
// placement is exhausted. Recoveries are recorded in the Report.
//
// Unless deadlines are disabled — as they are on a virtual-time runtime —
// the whole call, failover ladder included, runs inside a latency budget
// derived from the solver's predicted latency, and a hedged backup may
// race the primary; see DeadlineOptions.
func (x *OpContext) DoRemoteOp(optype string, payload []byte) ([]byte, error) {
	if x.ended {
		return nil, errEnded
	}
	server := x.decision.Alternative.Server
	if server == "" {
		return nil, errors.New("core: do_remote_op on a local execution plan")
	}
	if !x.client.deadline.Disabled {
		return x.doRemoteDeadline(optype, payload)
	}
	// Deadlines are off: the operation legitimately runs unbounded, but the
	// context still threads through the call and the failover ladder from
	// the one sanctioned root.
	ctx, cancel := budgetContext(0)
	defer cancel()
	out, rep, err := x.remoteCallCtx(ctx, server, optype, payload)
	x.account(rep)
	if err == nil {
		x.client.health.RecordSuccess(server)
		return out, nil
	}
	if x.client.failover.disabled() || !isTransientExec(err) {
		return nil, fmt.Errorf("core: do_remote_op %q on %q: %w", optype, server, err)
	}
	x.client.noteRemoteFailure(server, err)
	out, ranOn, degraded, err := x.failRemote(ctx, optype, payload, server, err, nil)
	if err != nil {
		return nil, err
	}
	if degraded {
		x.degraded = true
	} else {
		// Subsequent calls of this operation go straight to the adopted
		// server, and End's observation is attributed to it.
		x.decision.Alternative.Server = ranOn
	}
	return out, nil
}

// remoteCallCtx wraps the runtime's remote call with span recording: an
// rpc span covers the exchange, the trace context rides the request, and
// the server's (already rebased) spans are grafted under the rpc span. The
// context's remaining budget caps the exchange and rides the request on a
// live runtime; the simulation ignores it.
func (x *OpContext) remoteCallCtx(ctx context.Context, server, optype string, payload []byte) ([]byte, callReport, error) {
	sp := x.spans.Start(obs.SpanRPC, -1)
	var tc *wire.TraceContext
	if sp >= 0 {
		tc = &wire.TraceContext{TraceID: x.id, SpanID: uint64(sp)}
	}
	out, rep, err := x.client.runtime.RemoteCall(ctx, server, x.op.spec.Service, optype, payload, tc)
	if sp >= 0 {
		x.spans.Attach(sp, rep.serverSpans)
		x.spans.EndSpan(sp)
	}
	return out, rep, err
}

// account routes a call report into the monitor framework and the phase
// tracker.
func (x *OpContext) account(rep callReport) {
	x.phases.localSeconds += rep.phases.localSeconds
	x.phases.netSeconds += rep.phases.netSeconds
	x.phases.idleSeconds += rep.phases.idleSeconds
	x.client.monitors.AddUsage(x.id, monitor.Usage{
		RemoteMegacycles: rep.remoteMegacycles,
		BytesSent:        rep.bytesSent,
		BytesReceived:    rep.bytesReceived,
		RPCs:             rep.rpcs,
		Files:            rep.files,
	})
}

// Report summarizes a completed operation.
type Report struct {
	// Usage is the merged measurement from all monitors.
	Usage monitor.Usage
	// Elapsed is the operation's duration in runtime time (virtual time in
	// the simulation), including consistency enforcement.
	Elapsed time.Duration
	// Decision echoes how the operation was placed. After a failover the
	// alternative's Server is the one actually adopted.
	Decision Decision
	// Failovers records transparent recoveries performed mid-operation;
	// empty when execution went as decided.
	Failovers []FailoverEvent
	// Degraded is true when recovery left the decided plan (a remote
	// component executed on the client); such executions are not fed to
	// the demand models.
	Degraded bool
}

// End signals operation completion (end_fidelity_op): measurement stops,
// the demand models absorb the observation, and the usage log persists it.
// End is idempotent: calling it again — or after Abort — returns an error
// without side effects.
func (x *OpContext) End() (Report, error) {
	if x.aborted {
		return Report{}, errAborted
	}
	if x.ended {
		return Report{}, errEnded
	}
	x.ended = true
	if !x.started {
		return Report{}, errors.New("core: operation never started")
	}

	usage := x.client.monitors.StopOp(x.id)
	usage.Elapsed = x.client.runtime.Now().Sub(x.simStart)

	// Degraded executions (failover left the decided plan) are not
	// representative of the alternative's cost; withhold them from the
	// demand models and the persistent log.
	if !x.degraded {
		measured := observedUsage{
			localMegacycles:  usage.LocalMegacycles,
			remoteMegacycles: usage.RemoteMegacycles,
			netBytes:         float64(usage.BytesSent + usage.BytesReceived),
			rpcs:             float64(usage.RPCs),
			energyJoules:     usage.EnergyJoules,
			energyValid:      usage.EnergyValid,
			files:            usage.Files,
		}
		features, discrete := x.op.modelQuery(x.decision.Alternative, x.params)
		rec := predict.Record{
			Params:   features,
			Discrete: discrete,
			Data:     x.data,
		}
		records := x.op.models.observe(rec, x.phases, measured)
		if err := x.client.usageLog.AppendAll(x.op.Name(), records); err != nil {
			return Report{}, fmt.Errorf("core: persist usage: %w", err)
		}
	}

	x.client.hooks.opEnd.Inc()
	if x.degraded {
		x.client.hooks.opDegraded.Inc()
	}
	// Outcome feedback: a degraded or failed-over execution proves the
	// cached placement wrong right now, so the entry is dropped and the
	// next Begin re-solves against the live picture.
	if x.client.dcache != nil && x.cacheKey != "" {
		x.client.dcache.noteOutcome(x.cacheKey, x.degraded || len(x.failovers) > 0)
	}
	x.finishObservation(usage)

	return Report{
		Usage:     usage,
		Elapsed:   usage.Elapsed,
		Decision:  x.decision,
		Failovers: append([]FailoverEvent(nil), x.failovers...),
		Degraded:  x.degraded,
	}, nil
}

// Abort ends observation without feeding the models, for callers that hit
// execution errors mid-operation. Abort is fully idempotent: calling it
// twice, after End, or on an operation that never started is a no-op.
func (x *OpContext) Abort() {
	if x.ended {
		return
	}
	x.ended = true
	x.aborted = true
	if x.started && x.client != nil {
		x.client.monitors.StopOp(x.id)
	}
	if x.client != nil {
		x.client.hooks.opAbort.Inc()
	}
	if tr := x.trace; tr != nil && x.client != nil {
		tr.End = x.client.runtime.Now()
		tr.Aborted = true
		tr.Failovers = traceFailovers(x.failovers)
		tr.Degraded = x.degraded
		tr.Spans = x.spans.Spans()
		x.client.hooks.o.Emit(tr)
	}
}

// finishObservation completes observability at End: it computes
// per-resource prediction error from the decision's predicted demand,
// feeds the accuracy tracker (representative executions only), and emits
// the decision trace.
func (x *OpContext) finishObservation(usage monitor.Usage) {
	if x.op.acc == nil && x.trace == nil {
		return
	}
	var errs map[string]float64
	if x.predValid {
		// A fixed-size list keeps the metrics-only path allocation-free;
		// the map is built only when a trace wants it.
		type resErr struct {
			res string
			err float64
		}
		list := [6]resErr{
			{obs.ResCPULocal, obs.RelativeError(x.predDemand.LocalMegacycles, usage.LocalMegacycles)},
			{obs.ResCPURemote, obs.RelativeError(x.predDemand.RemoteMegacycles, usage.RemoteMegacycles)},
			{obs.ResNetBytes, obs.RelativeError(x.predDemand.NetBytes, float64(usage.BytesSent+usage.BytesReceived))},
			{obs.ResNetRPCs, obs.RelativeError(x.predDemand.RPCs, float64(usage.RPCs))},
			{obs.ResLatency, obs.RelativeError(x.predDemand.LatencySeconds, usage.Elapsed.Seconds())},
		}
		n := 5
		if usage.EnergyValid {
			list[n] = resErr{obs.ResEnergy, obs.RelativeError(x.predDemand.EnergyJoules, usage.EnergyJoules)}
			n++
		}
		// Degraded executions did not run the decided plan; their usage
		// says nothing about the predictor, so keep them out of the rolling
		// accuracy (the trace still shows the raw comparison).
		if !x.degraded {
			for i := 0; i < n; i++ {
				x.op.acc.Observe(list[i].res, list[i].err)
			}
		}
		if x.trace != nil {
			errs = make(map[string]float64, n)
			for i := 0; i < n; i++ {
				errs[list[i].res] = list[i].err
			}
		}
	}

	if tr := x.trace; tr != nil {
		tr.End = x.client.runtime.Now()
		tr.Actual = obs.ResourceUsage{
			LocalMegacycles:  usage.LocalMegacycles,
			RemoteMegacycles: usage.RemoteMegacycles,
			BytesSent:        usage.BytesSent,
			BytesReceived:    usage.BytesReceived,
			RPCs:             usage.RPCs,
			EnergyJoules:     usage.EnergyJoules,
			EnergyValid:      usage.EnergyValid,
			ElapsedSeconds:   usage.Elapsed.Seconds(),
			Files:            len(usage.Files),
		}
		tr.PredictionError = errs
		tr.Failovers = traceFailovers(x.failovers)
		tr.Degraded = x.degraded
		tr.Spans = x.spans.Spans()
		x.client.hooks.o.Emit(tr)
	}
}
