// Package lint assembles Spectra's analyzer suite with the repository's
// invariants baked in: which packages are deterministic, where the metric
// registry lives, which calls block, which packages form the request path
// whose deadlines must propagate, and where the classified error boundary
// sits. cmd/spectralint runs this suite over one shared fact store, so the
// interprocedural analyzers (ctxflow, goroleak, lockorder, spanmetric) see
// across package boundaries; tests under internal/lint/* exercise each
// analyzer against golden packages.
package lint

import (
	"spectra/internal/lint/analysis"
	"spectra/internal/lint/ctxflow"
	"spectra/internal/lint/errclass"
	"spectra/internal/lint/goroleak"
	"spectra/internal/lint/lockhold"
	"spectra/internal/lint/lockorder"
	"spectra/internal/lint/metricname"
	"spectra/internal/lint/nilsafe"
	"spectra/internal/lint/spanmetric"
	"spectra/internal/lint/virtualclock"
)

// DeterministicPkgs are the packages whose code must read time only
// through the injected clock: the simulated substrate, the decision
// engine (solver, predictors), the network model, the scenario drivers
// that replay the paper's experiments, and the observability layer whose
// spans timestamp simulated operations. The live runtime (core's wall
// paths, rpc, monitor sampling, the daemons) is exempt; the one place the
// wall clock legitimately enters deterministic code — sim.RealClock — is
// annotated with //lint:allow virtualclock.
var DeterministicPkgs = []string{
	"spectra/internal/sim",
	"spectra/internal/solver",
	"spectra/internal/predict",
	"spectra/internal/simnet",
	"spectra/internal/scenario",
	"spectra/internal/obs",
}

// BlockingCalls are operations that must never run under a held mutex,
// beyond lockhold's built-ins (channel ops, selects, time.Sleep,
// WaitGroup.Wait): the RPC client's exchanges each hold the connection
// for a full network round trip — and the pooled variants may additionally
// wait for a free connection — Server.Close waits for serving goroutines,
// and net.Dial blocks on connection establishment.
var BlockingCalls = []string{
	"(*spectra/internal/rpc.Client).CallContext",
	"(*spectra/internal/rpc.Client).StatusContext",
	"(*spectra/internal/rpc.Client).PingContext",
	"(*spectra/internal/rpc.Pool).CallContext",
	"(*spectra/internal/rpc.Pool).StatusContext",
	"(*spectra/internal/rpc.Pool).PingContext",
	"(*spectra/internal/rpc.Server).Close",
	"net.Dial",
}

// RegistryPkg declares the metric namespace (the M* constants).
const RegistryPkg = "spectra/internal/obs"

// ServiceNames share the spectra. prefix without naming metrics; spanmetric
// exempts them from registry resolution.
var ServiceNames = []string{"spectra.work"}

// ClassifiedPkgs form the error-classification boundary.
var ClassifiedPkgs = []string{"spectra/internal/rpc"}

// RequestPkgs are the packages forming the remote request path, where
// ctxflow's deadline-propagation rule applies: every function that reaches
// an RPC sink must thread the caller's context rather than minting a fresh
// one. Every sink takes a context, so there is no no-context variant to
// fall back to.
var RequestPkgs = []string{
	"spectra/internal/core",
	"spectra/internal/rpc",
}

// RPCSinks are the exchange primitives a request-path function may reach:
// the concrete client/pool methods and the core runtime interface methods
// that dispatch to them (interface calls resolve to the interface method,
// so both spellings are needed).
var RPCSinks = []string{
	"(*spectra/internal/rpc.Client).CallContext",
	"(*spectra/internal/rpc.Client).StatusContext",
	"(*spectra/internal/rpc.Client).PingContext",
	"(*spectra/internal/rpc.Pool).CallContext",
	"(*spectra/internal/rpc.Pool).StatusContext",
	"(*spectra/internal/rpc.Pool).PingContext",
	"(spectra/internal/core.Runtime).RemoteCall",
	"(spectra/internal/core.Runtime).ParallelRemote",
	"(spectra/internal/core.Runtime).PollServer",
	"(spectra/internal/core.Runtime).Probe",
}

// Suite returns the analyzers configured for this repository, in the
// order the driver runs them. Instances carry per-run state (lockorder's
// edge graph, spanmetric's registry cache): build a fresh suite per run.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		virtualclock.New(virtualclock.Config{DeterministicPkgs: DeterministicPkgs}),
		nilsafe.New(),
		lockhold.New(lockhold.Config{Blocking: BlockingCalls}),
		metricname.New(metricname.Config{RegistryPkg: RegistryPkg}),
		errclass.New(errclass.Config{Packages: ClassifiedPkgs}),
		ctxflow.New(ctxflow.Config{
			RequestPkgs: RequestPkgs,
			Sinks:       RPCSinks,
		}),
		goroleak.New(),
		lockorder.New(),
		spanmetric.New(spanmetric.Config{
			RegistryPkg: RegistryPkg,
			Exempt:      ServiceNames,
		}),
	}
}
