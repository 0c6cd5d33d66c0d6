package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"spectra/internal/monitor"
	"spectra/internal/obs"
	"spectra/internal/predict"
	"spectra/internal/sim"
	"spectra/internal/wire"

	spectrarpc "spectra/internal/rpc"
)

// probeEchoBytes sizes the bulk probe exchange against a live server.
const probeEchoBytes = 64 * 1024

// NetRuntime executes operations against real Spectra servers over TCP.
// Local components run on the host node in-process; remote components are
// RPCs to spectrad daemons, whose responses carry server resource usage.
// Passive traffic observation feeds the shared network monitor exactly as
// in the simulation. File state is per-process: as in the paper, a shared
// distributed file system (Coda) is assumed for cross-machine consistency,
// which the in-process substrate provides within one process.
type NetRuntime struct {
	mu sync.Mutex

	hostExec
	network *monitor.NetworkMonitor

	addrs    map[string]string
	pools    map[string]*spectrarpc.Pool
	poolOpts spectrarpc.PoolOptions

	// metrics, when non-nil, is attached to every connection pool.
	metrics *obs.Registry
}

var _ Runtime = (*NetRuntime)(nil)

// NewNetRuntime builds a live runtime around the host node. The network
// monitor may be nil.
func NewNetRuntime(host *Node, network *monitor.NetworkMonitor) *NetRuntime {
	return &NetRuntime{
		hostExec: hostExec{clock: sim.RealClock{}, host: host, account: NewEnergyAccount(host.Machine())},
		network:  network,
		addrs:    make(map[string]string),
		pools:    make(map[string]*spectrarpc.Pool),
	}
}

// HostAccount returns the client energy account.
func (r *NetRuntime) HostAccount() *EnergyAccount { return r.account }

// AddServer maps a server name to its TCP address.
func (r *NetRuntime) AddServer(name, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs[name] = addr
}

// SetPoolOptions tunes the per-server connection pools. It applies to
// pools created afterward, so call it before the first remote exchange
// (NewLiveSetup does).
func (r *NetRuntime) SetPoolOptions(opts spectrarpc.PoolOptions) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.poolOpts = opts
}

// SetMetrics attaches the metrics registry to every current and future
// connection pool (pool churn, retry/redial counts, call latency).
func (r *NetRuntime) SetMetrics(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = reg
	for _, p := range r.pools {
		p.SetMetrics(reg)
	}
}

// Close shuts every connection pool down.
func (r *NetRuntime) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for name, p := range r.pools {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
		delete(r.pools, name)
	}
	return first
}

// Now implements Runtime.
func (r *NetRuntime) Now() time.Time { return r.clock.Now() }

// Virtual implements Runtime: the live runtime runs on the wall clock.
func (r *NetRuntime) Virtual() bool { return false }

// RemoteCall implements Runtime over TCP. The context's remaining budget
// caps the pool checkout wait, the dial, and the exchange, rides the
// request so the server can shed expired work, and cancellation interrupts
// the exchange mid-flight. Traced calls (tc != nil) carry the trace context
// to the server; the server's span records return on the response and are
// rebased onto the client timeline (see rpc.RebaseSpans).
func (r *NetRuntime) RemoteCall(ctx context.Context, server, service, optype string, payload []byte, tc *wire.TraceContext) ([]byte, callReport, error) {
	pool, err := r.pool(server)
	if err != nil {
		return nil, callReport{}, err
	}
	start := time.Now()
	out, usage, spans, err := pool.CallContext(ctx, service, optype, payload, tc)
	elapsed := time.Since(start)
	if err != nil {
		r.noteFault(server, err)
		return nil, callReport{}, fmt.Errorf("core: remote %s on %q: %w", service, server, err)
	}
	r.setReachable(server, true)

	rep := callReport{
		bytesSent:     int64(len(payload)) + msgOverheadBytes,
		bytesReceived: int64(len(out)) + msgOverheadBytes,
		rpcs:          1,
	}
	if tc != nil {
		rep.serverSpans = spectrarpc.RebaseSpans(server, start, elapsed, spans)
	}
	var serverSeconds float64
	if usage != nil {
		rep.remoteMegacycles = usage.CPUMegacycles
		for _, f := range usage.Files {
			rep.files = append(rep.files, predict.FileAccess{
				Path:      f.Path,
				SizeBytes: f.SizeBytes,
				Remote:    true,
			})
		}
		for _, nv := range usage.Extra {
			if nv.Name == "computeSeconds" || nv.Name == "fetchSeconds" {
				serverSeconds += nv.Value
			}
		}
	}
	// Phase split: the server reports how long it computed; the remainder
	// of the exchange is attributed to the network.
	idle := serverSeconds
	net := elapsed.Seconds() - idle
	if net < 0 {
		net = 0
		idle = elapsed.Seconds()
	}
	rep.phases = phaseUsage{netSeconds: net, idleSeconds: idle}
	r.account.DrainIdle(sim.DurationSeconds(idle))
	r.account.DrainNetwork(sim.DurationSeconds(net))
	return out, rep, nil
}

// Reintegrate implements Runtime against the host's cache manager.
func (r *NetRuntime) Reintegrate(volume string) (int64, time.Duration, error) {
	if r.host.Coda() == nil {
		return 0, 0, nil
	}
	start := time.Now()
	res, err := r.host.Coda().Reintegrate(volume)
	if err != nil {
		return 0, 0, fmt.Errorf("core: reintegrate %q: %w", volume, err)
	}
	return res.BytesSent, time.Since(start), nil
}

// PollServer implements Runtime.
func (r *NetRuntime) PollServer(ctx context.Context, server string) (*wire.ServerStatus, error) {
	pool, err := r.pool(server)
	if err != nil {
		return nil, err
	}
	status, err := pool.StatusContext(ctx)
	if err != nil {
		r.noteFault(server, err)
		return nil, fmt.Errorf("core: poll %q: %w", server, err)
	}
	r.setReachable(server, true)
	return status, nil
}

// Probe implements Runtime: a ping plus a bulk echo give the passive
// estimator a latency and a bandwidth observation.
func (r *NetRuntime) Probe(ctx context.Context, server string) error {
	pool, err := r.pool(server)
	if err != nil {
		return err
	}
	if _, err := pool.PingContext(ctx); err != nil {
		r.noteFault(server, err)
		return fmt.Errorf("core: probe %q: %w", server, err)
	}
	bulk := make([]byte, probeEchoBytes)
	if _, _, _, err := pool.CallContext(ctx, EchoService, "echo", bulk, nil); err != nil {
		r.noteFault(server, err)
		return fmt.Errorf("core: bulk probe %q: %w", server, err)
	}
	r.setReachable(server, true)
	return nil
}

// pool returns (creating if needed) the server's connection pool, sharing
// its traffic log with the network monitor. Creation never dials —
// connections are established lazily by the first exchanges to need them,
// and faulted connections are evicted and replaced inside the pool.
func (r *NetRuntime) pool(server string) (*spectrarpc.Pool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.pools[server]; ok {
		return p, nil
	}
	addr, ok := r.addrs[server]
	if !ok {
		return nil, fmt.Errorf("core: unknown server %q", server)
	}
	var traffic *spectrarpc.TrafficLog
	if r.network != nil {
		traffic = r.network.Log(server)
	}
	p := spectrarpc.NewPool(addr, traffic, r.poolOpts)
	if r.metrics != nil {
		p.SetMetrics(r.metrics)
	}
	r.pools[server] = p
	return p, nil
}

// noteFault is the one reachability rule for a failed exchange. A
// transport fault means the server cannot be contacted. An admission-control
// shed means the opposite: the server answered, it is just saturated. A
// remote application error is an answer too. A deadline expiry says
// nothing either way: the server may be healthy and merely slow, or the
// budget was short. So only a transport fault flips reachability; the pool
// has already evicted the faulted connection.
func (r *NetRuntime) noteFault(server string, err error) {
	if !isRemoteAppError(err) && !spectrarpc.IsOverloaded(err) && !spectrarpc.IsDeadline(err) {
		r.setReachable(server, false)
	}
}

func (r *NetRuntime) setReachable(server string, ok bool) {
	if r.network != nil {
		r.network.SetReachable(server, ok)
	}
}

// isRemoteAppError distinguishes application-level failures (the service
// returned an error) from transport failures.
func isRemoteAppError(err error) bool {
	var rerr *spectrarpc.RemoteError
	return errors.As(err, &rerr)
}
