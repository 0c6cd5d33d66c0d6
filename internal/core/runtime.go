package core

import (
	"context"
	"fmt"
	"time"

	"spectra/internal/obs"
	"spectra/internal/predict"
	"spectra/internal/sim"
	"spectra/internal/wire"
)

// callReport describes what one LocalCall/RemoteCall consumed, as observed
// by the runtime. The OpContext routes it into the monitor framework.
type callReport struct {
	bytesSent        int64
	bytesReceived    int64
	rpcs             int
	remoteMegacycles float64
	files            []predict.FileAccess
	phases           phaseUsage
	// serverSpans are server-side spans of a traced RemoteCall, already
	// rebased onto the client timeline (Parent -1, Origin = server name);
	// the OpContext attaches them under its rpc span. Nil when untraced.
	serverSpans []obs.Span
}

// Runtime executes operation components and server housekeeping. The
// simulation runtime models the paper's testbed; the network runtime drives
// real Spectra servers over TCP. Every method that crosses the network
// takes the caller's context, which carries the operation's latency budget
// on a live runtime; the simulation consumes virtual time and ignores it.
type Runtime interface {
	// Now returns the runtime's notion of current time (virtual in the
	// simulation), used for operation elapsed-time measurement.
	Now() time.Time

	// Virtual reports whether the runtime runs on virtual time. There a
	// wall-clock budget bounds nothing and a hedge races nothing, so the
	// client turns deadlines off (see DeadlineOptions.Disabled).
	Virtual() bool

	// HostService reports whether the client node offers the service,
	// which makes local execution and local failover possible.
	HostService(service string) bool

	// LocalCall executes a service on the client machine (do_local_op).
	LocalCall(service, optype string, payload []byte) ([]byte, callReport, error)

	// RemoteCall executes a service on the named server (do_remote_op),
	// bounded by ctx. tc, when non-nil, propagates the operation's trace
	// context to the server; the runtime returns the server's spans in the
	// callReport, rebased onto the client timeline.
	RemoteCall(ctx context.Context, server, service, optype string, payload []byte, tc *wire.TraceContext) ([]byte, callReport, error)

	// ParallelRemote executes the calls concurrently, bounded by ctx, and
	// returns per-branch results (outputs or errors, with per-branch usage
	// reports whose phases are zeroed) and the combined phase usage of the
	// overlapped execution. One failed branch does not abort the others.
	ParallelRemote(ctx context.Context, service string, calls []ParallelCall) ([]parallelResult, phaseUsage)

	// Reintegrate pushes the client's buffered modifications for a volume
	// to the file servers, returning the bytes sent and the time it took.
	Reintegrate(volume string) (int64, time.Duration, error)

	// PollServer fetches a server's resource snapshot.
	PollServer(ctx context.Context, server string) (*wire.ServerStatus, error)

	// Probe generates a small and a bulk exchange with the server so the
	// passive network monitor has fresh observations.
	Probe(ctx context.Context, server string) error
}

// hostExec runs services on the client node in a metered context: the
// LocalCall and HostService both runtimes share.
type hostExec struct {
	clock   sim.Clock
	host    *Node
	account *EnergyAccount
}

// HostService implements Runtime.
func (h hostExec) HostService(service string) bool {
	_, ok := h.host.Service(service)
	return ok
}

// LocalCall implements Runtime: the service runs on the host node with the
// host's energy metered as busy/network power.
func (h hostExec) LocalCall(service, optype string, payload []byte) ([]byte, callReport, error) {
	fn, ok := h.host.Service(service)
	if !ok {
		return nil, callReport{}, fmt.Errorf("core: host does not offer service %q", service)
	}
	ctx := NewServiceContext(h.clock, h.host, h.account)
	out, err := fn(ctx, optype, payload)
	usage := ctx.Usage()
	rep := callReport{
		files: usage.Files,
		phases: phaseUsage{
			localSeconds: usage.ComputeSeconds,
			netSeconds:   usage.FetchSeconds,
		},
	}
	if err != nil {
		return nil, rep, fmt.Errorf("core: local %s/%s: %w", service, optype, err)
	}
	return out, rep, nil
}

// ConsistencySource exposes the Coda state Spectra consults to enforce
// data consistency (paper §3.5). *coda.Client satisfies it once VolumeOf
// is available through the environment wrapper.
type ConsistencySource interface {
	// DirtyVolumes lists volumes with buffered client modifications.
	DirtyVolumes() []string
	// VolumeDirtyBytes is the data a reintegration of the volume would
	// transfer.
	VolumeDirtyBytes(volume string) int64
	// VolumeOf maps a file path to its volume.
	VolumeOf(path string) (string, error)
}
