package core

import (
	"context"
	"fmt"
	"time"

	"spectra/internal/monitor"
	"spectra/internal/obs"
	"spectra/internal/rpc"
	"spectra/internal/sim"
	"spectra/internal/wire"
)

// Wire-level modeling constants for the simulated transport.
const (
	// msgOverheadBytes approximates per-message framing and header cost.
	msgOverheadBytes = 96
	// probePingBytes and probeBulkBytes size the two probe exchanges.
	probePingBytes = 160
	probeBulkBytes = 64 * 1024
	// statusPollBytes approximates a status request/reply exchange.
	statusPollBytes = 640
)

// SimRuntime executes operations against the simulated testbed: transfers
// advance the virtual clock according to link models, computation runs on
// machine models, and the client's energy account is charged busy, network,
// or idle power depending on the phase — exactly the signal sources the
// monitors would observe on real hardware.
type SimRuntime struct {
	hostExec
	env *Env
	// network receives passive traffic observations and reachability.
	network *monitor.NetworkMonitor
}

var _ Runtime = (*SimRuntime)(nil)

// NewSimRuntime returns a runtime over the environment. The network
// monitor may be nil (no passive observation).
func NewSimRuntime(env *Env, network *monitor.NetworkMonitor) *SimRuntime {
	return &SimRuntime{
		hostExec: hostExec{clock: env.Clock(), host: env.Host(), account: env.HostAccount()},
		env:      env,
		network:  network,
	}
}

// Now implements Runtime.
func (r *SimRuntime) Now() time.Time { return r.env.Clock().Now() }

// Virtual implements Runtime: the simulation runs on virtual time.
func (r *SimRuntime) Virtual() bool { return true }

// RemoteCall implements Runtime: the request crosses the link, the service
// runs on the server machine while the client idles, and the response
// returns. Both transfers are recorded as passive traffic observations.
// Traced calls (tc != nil) additionally return the server-side spans; the
// simulation shares one virtual clock, so they are exact, not rebased.
// The context is ignored: the exchange consumes virtual time, which a
// wall-clock budget cannot bound.
func (r *SimRuntime) RemoteCall(_ context.Context, server, service, optype string, payload []byte, tc *wire.TraceContext) ([]byte, callReport, error) {
	node, link, ok := r.env.Server(server)
	if !ok {
		return nil, callReport{}, fmt.Errorf("core: unknown server %q", server)
	}
	fn, ok := node.Service(service)
	if !ok {
		return nil, callReport{}, fmt.Errorf("core: server %q does not offer service %q", server, service)
	}

	reqBytes := int64(len(payload) + msgOverheadBytes)
	upT, err := link.TransferTime(reqBytes)
	if err != nil {
		r.setReachable(server, false)
		return nil, callReport{}, fmt.Errorf("core: send to %q: %w", server, err)
	}
	clock := r.env.Clock()
	clock.Sleep(upT)
	r.env.HostAccount().DrainNetwork(upT)
	r.recordTraffic(server, reqBytes, upT)
	link.RecordTransfer(reqBytes, 0)

	// Server-side execution: the client idles while the server computes
	// (and fetches any uncached files over its own file-server link).
	ctx := NewServiceContext(clock, node, nil)
	svcStart := clock.Now()
	out, err := fn(ctx, optype, payload)
	svcT := clock.Now().Sub(svcStart)
	r.env.HostAccount().DrainIdle(svcT)
	usage := ctx.Usage()
	if err != nil {
		return nil, callReport{}, fmt.Errorf("core: remote %s on %q: %w", service, server, err)
	}

	respBytes := int64(len(out) + msgOverheadBytes)
	downT, err := link.TransferTime(respBytes)
	if err != nil {
		r.setReachable(server, false)
		return nil, callReport{}, fmt.Errorf("core: receive from %q: %w", server, err)
	}
	respStart := clock.Now()
	clock.Sleep(downT)
	r.env.HostAccount().DrainNetwork(downT)
	r.recordTraffic(server, respBytes, downT)
	link.RecordTransfer(0, respBytes)
	r.setReachable(server, true)

	var serverSpans []obs.Span
	if tc != nil {
		// The simulated server dispatches immediately (no queueing model),
		// so the queue span is zero-length at the service start.
		svcEnd := svcStart.Add(svcT)
		serverSpans = []obs.Span{
			{ID: 0, Parent: -1, Name: obs.SpanServerQueue, Origin: server, Start: svcStart, End: svcStart},
			{ID: 1, Parent: -1, Name: obs.SpanServerExec, Origin: server, Start: svcStart, End: svcEnd},
			{ID: 2, Parent: -1, Name: obs.SpanServerRespond, Origin: server, Start: respStart, End: respStart.Add(downT)},
		}
	}

	rep := callReport{
		bytesSent:        reqBytes,
		bytesReceived:    respBytes,
		rpcs:             1,
		remoteMegacycles: usage.Megacycles,
		files:            usage.Files,
		phases: phaseUsage{
			netSeconds:  sim.Seconds(upT + downT),
			idleSeconds: sim.Seconds(svcT),
		},
		serverSpans: serverSpans,
	}
	return out, rep, nil
}

// Reintegrate implements Runtime: dirty volume data crosses the host's
// file-server link before becoming visible to other machines.
func (r *SimRuntime) Reintegrate(volume string) (int64, time.Duration, error) {
	host := r.env.Host()
	bytes := host.Coda().VolumeDirtyBytes(volume)
	if bytes == 0 {
		return 0, 0, nil
	}
	var t time.Duration
	if host.FSLink() != nil {
		var err error
		t, err = host.FSLink().TransferTime(bytes)
		if err != nil {
			return 0, 0, fmt.Errorf("core: reintegrate %q: %w", volume, err)
		}
	}
	if _, err := host.Coda().Reintegrate(volume); err != nil {
		return 0, 0, fmt.Errorf("core: reintegrate %q: %w", volume, err)
	}
	r.env.Clock().Sleep(t)
	r.env.HostAccount().DrainNetwork(t)
	return bytes, t, nil
}

// PollServer implements Runtime: a small status RPC, observed by the
// network monitor like any other exchange.
func (r *SimRuntime) PollServer(_ context.Context, server string) (*wire.ServerStatus, error) {
	node, link, ok := r.env.Server(server)
	if !ok {
		return nil, fmt.Errorf("core: unknown server %q", server)
	}
	t, err := link.RoundTripTime(statusPollBytes/2, statusPollBytes/2)
	if err != nil {
		r.setReachable(server, false)
		return nil, fmt.Errorf("core: poll %q: %w", server, err)
	}
	r.env.Clock().Sleep(t)
	r.env.HostAccount().DrainNetwork(t)
	r.recordTraffic(server, statusPollBytes, t)
	r.setReachable(server, true)

	m := node.Machine()
	cached := node.Coda().CachedPaths()
	files := make([]string, 0, len(cached))
	for path := range cached {
		files = append(files, path)
	}
	return &wire.ServerStatus{
		Name:         server,
		SpeedMHz:     m.SpeedMHz(),
		LoadFraction: m.LoadFraction(),
		AvailMHz:     m.AvailableMHz(),
		CachedFiles:  files,
		FetchRateBps: node.FetchRateBps(),
		Services:     node.ServiceNames(),
	}, nil
}

// Probe implements Runtime: one small and one bulk exchange seed the
// bandwidth and latency estimates for the server's path.
func (r *SimRuntime) Probe(_ context.Context, server string) error {
	_, link, ok := r.env.Server(server)
	if !ok {
		return fmt.Errorf("core: unknown server %q", server)
	}
	for _, size := range []int64{probePingBytes, probeBulkBytes} {
		t, err := link.RoundTripTime(size/2, size/2)
		if err != nil {
			r.setReachable(server, false)
			return fmt.Errorf("core: probe %q: %w", server, err)
		}
		r.env.Clock().Sleep(t)
		r.env.HostAccount().DrainNetwork(t)
		r.recordTraffic(server, size, t)
	}
	r.setReachable(server, true)
	return nil
}

func (r *SimRuntime) recordTraffic(server string, bytes int64, elapsed time.Duration) {
	if r.network == nil {
		return
	}
	r.network.Log(server).Record(rpc.TrafficObservation{
		Bytes:   bytes,
		Elapsed: elapsed,
		When:    r.env.Clock().Now(),
	})
}

func (r *SimRuntime) setReachable(server string, ok bool) {
	if r.network == nil {
		return
	}
	r.network.SetReachable(server, ok)
}
