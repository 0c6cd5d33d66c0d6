package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spectra/internal/monitor"
	"spectra/internal/obs"
	"spectra/internal/predict"
	"spectra/internal/sim"
	"spectra/internal/solver"
	"spectra/internal/utility"
)

// Config assembles a Spectra client.
type Config struct {
	// Runtime executes operation components.
	Runtime Runtime
	// Monitors is the resource-monitor framework.
	Monitors *monitor.Set
	// Network is the network monitor inside Monitors (also addressed
	// directly for traffic logs and reachability).
	Network *monitor.NetworkMonitor
	// Consistency exposes Coda dirty state; may be nil when the client
	// never modifies files.
	Consistency ConsistencySource
	// Servers lists the statically configured candidate servers
	// (paper §3.2); a discovery Registry may extend it.
	Servers []string
	// Registry optionally discovers additional servers; may be nil.
	Registry Registry
	// UsageLog persists observations across restarts; may be nil.
	UsageLog *predict.UsageLog
	// Models tunes the demand models.
	Models ModelOptions
	// Solver tunes the heuristic search.
	Solver solver.Options
	// Exhaustive replaces the heuristic solver with exhaustive search
	// (ablation and oracle runs).
	Exhaustive bool
	// Failover tunes transparent re-execution after transient remote
	// failures (see FailoverOptions); the zero value enables it.
	Failover FailoverOptions
	// Deadline tunes end-to-end latency budgets, cancellation, and hedged
	// requests (see DeadlineOptions); the zero value enables them with
	// defaults. A virtual-time runtime always runs with them disabled.
	Deadline DeadlineOptions
	// Health tunes the per-server circuit breaker feeding server
	// availability into the decision space; the zero value enables it.
	Health HealthOptions
	// Obs enables observability: metrics, decision traces, and
	// predictor-accuracy accounting. Nil disables all of it at the cost of
	// one nil test per event.
	Obs *obs.Observer
	// SnapshotTTL caches the decision snapshot for this long, so N
	// concurrent BeginFidelityOps share one monitors.Snapshot instead of
	// issuing N remote-status fan-outs. 0 disables caching (every Begin
	// snapshots afresh — the right choice for deterministic simulation,
	// where virtual time may not advance between Begins). Live setups
	// default this to a few tens of milliseconds (see LiveOptions).
	SnapshotTTL time.Duration
	// Cache tunes the placement-decision cache in front of the solver; the
	// zero value disables it (see CacheOptions).
	Cache CacheOptions
	// OverheadClock times decision overheads (BeginOverhead) — a real
	// measurement even in simulation, so it is separate from the Runtime's
	// semantic clock. Nil selects the system clock; tests inject a
	// deterministic clock to pin overhead arithmetic.
	OverheadClock sim.Clock
}

// Registry discovers Spectra servers at runtime. The paper designed for a
// service discovery protocol but shipped static configuration; both are
// provided here.
type Registry interface {
	// Discover returns currently announced server names.
	Discover() []string
}

// StaticRegistry is a fixed server list.
type StaticRegistry []string

// Discover implements Registry.
func (r StaticRegistry) Discover() []string { return append([]string(nil), r...) }

// Client is the Spectra client: it registers operations, decides how and
// where they execute, and self-tunes from observed resource usage.
type Client struct {
	mu sync.Mutex

	runtime  Runtime
	monitors *monitor.Set
	network  *monitor.NetworkMonitor
	cons     ConsistencySource
	servers  []string
	registry Registry
	usageLog *predict.UsageLog

	modelOpts  ModelOptions
	solverOpts solver.Options
	exhaustive bool
	failover   FailoverOptions
	deadline   DeadlineOptions
	health     *HealthTracker

	// latring samples successful remote-call latencies for the adaptive
	// hedge delay (p95 of the window).
	latring latencyRing

	hooks obsHooks

	// wallClock times decision overheads (Config.OverheadClock); never used
	// for semantics, only measurement.
	wallClock sim.Clock

	// dcache is the placement-decision cache; nil when disabled.
	dcache *decisionCache

	// healthGen counts health-tracker transitions. The snapshot cache
	// records the generation it was filled under and treats any later
	// transition as staleness: a post-failover Begin must see the real
	// fleet immediately, not a TTL-fresh snapshot predating the verdict.
	healthGen atomic.Uint64

	// Decision snapshot cache (see Config.SnapshotTTL). Guarded by snapMu,
	// not c.mu: a cache fill calls into the monitor framework (remote proxy
	// reads), and Begin must not contend with the server-list mutex for it.
	// A cached snapshot is shared read-only by every Begin that hits it;
	// applyHealth runs once at fill time, so it is never mutated after
	// publication.
	snapTTL       time.Duration
	snapMu        sync.Mutex
	snapKey       string
	snapAt        time.Time
	snapVal       *monitor.Snapshot
	snapSeq       uint64
	snapHealthGen uint64

	ops    map[string]*Operation
	nextID atomic.Uint64
}

// NewClient assembles a client from the configuration.
func NewClient(cfg Config) (*Client, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("core: config needs a Runtime")
	}
	if cfg.Monitors == nil {
		return nil, errors.New("core: config needs Monitors")
	}
	c := &Client{
		runtime:    cfg.Runtime,
		monitors:   cfg.Monitors,
		network:    cfg.Network,
		cons:       cfg.Consistency,
		servers:    append([]string(nil), cfg.Servers...),
		registry:   cfg.Registry,
		usageLog:   cfg.UsageLog,
		modelOpts:  cfg.Models,
		solverOpts: cfg.Solver,
		exhaustive: cfg.Exhaustive,
		failover:   cfg.Failover,
		deadline:   cfg.Deadline,
		health:     NewHealthTracker(cfg.Health),
		hooks:      newObsHooks(cfg.Obs),
		snapTTL:    cfg.SnapshotTTL,
		wallClock:  cfg.OverheadClock,
		ops:        make(map[string]*Operation),
	}
	if c.wallClock == nil {
		c.wallClock = sim.RealClock{}
	}
	// On virtual time a wall-clock budget bounds nothing and a hedge races
	// nothing, so the remote paths need check only Disabled.
	if cfg.Runtime.Virtual() {
		c.deadline.Disabled = true
	}
	if cfg.Cache.Enabled {
		c.dcache = newDecisionCache(cfg.Cache, cfg.Obs)
	}
	var metricHook func(string, HealthState, HealthState)
	if cfg.Obs != nil && cfg.Obs.Registry != nil {
		metricHook = c.hooks.healthTransition(
			cfg.Obs.Registry.Counter(obs.MHealthOpened),
			cfg.Obs.Registry.Counter(obs.MHealthClosed),
		)
		c.modelOpts.Metrics = cfg.Obs.Registry
	}
	// Runs under the tracker lock: the generation bump is an atomic and the
	// metric hook only touches lock-free counters, so that is safe.
	c.health.OnTransition = func(server string, from, to HealthState) {
		c.healthGen.Add(1)
		if metricHook != nil {
			metricHook(server, from, to)
		}
	}
	return c, nil
}

// Servers returns the current candidate server list: static configuration
// plus anything the discovery registry announces.
func (c *Client) Servers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.servers...)
	if c.registry != nil {
		seen := make(map[string]bool, len(out))
		for _, s := range out {
			seen[s] = true
		}
		for _, s := range c.registry.Discover() {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// AddServer appends a statically configured server.
func (c *Client) AddServer(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.servers {
		if s == name {
			return
		}
	}
	c.servers = append(c.servers, name)
}

// Monitors returns the monitor framework.
func (c *Client) Monitors() *monitor.Set { return c.monitors }

// Runtime returns the execution runtime.
func (c *Client) Runtime() Runtime { return c.runtime }

// Health returns the per-server health tracker.
func (c *Client) Health() *HealthTracker { return c.health }

// PollServers refreshes the server database: each candidate is polled for
// a status snapshot, which the remote proxy monitors record. Unreachable
// servers are marked so; polling errors are reflected in the snapshot
// rather than returned. Servers quarantined by the health tracker are
// skipped until their quarantine elapses, at which point the poll doubles
// as the half-open probe: success re-adopts the server, failure renews
// the quarantine. Polls carry no operation budget; the transport's flat
// timeout bounds each one.
func (c *Client) PollServers() {
	var start time.Time
	if c.hooks.pollSeconds != nil {
		start = time.Now()
	}
	ctx, cancel := budgetContext(0)
	defer cancel()
	for _, server := range c.Servers() {
		if !c.health.Usable(server, c.runtime.Now()) {
			c.monitors.UpdatePreds(server, nil)
			continue
		}
		status, err := c.runtime.PollServer(ctx, server)
		if err != nil {
			c.hooks.pollErrors.Inc()
			c.health.RecordFailure(server, c.runtime.Now())
			c.monitors.UpdatePreds(server, nil)
			continue
		}
		c.health.RecordSuccess(server)
		c.monitors.UpdatePreds(server, status)
	}
	c.hooks.pollCycles.Inc()
	if c.hooks.pollSeconds != nil {
		c.hooks.pollSeconds.Observe(time.Since(start).Seconds())
	}
}

// Probe generates fresh traffic toward every candidate server so the
// passive network monitor has current bandwidth and latency estimates.
// Like PollServers it respects and feeds the health tracker, and only the
// transport's flat timeout bounds it.
func (c *Client) Probe() {
	ctx, cancel := budgetContext(0)
	defer cancel()
	for _, server := range c.Servers() {
		if !c.health.Usable(server, c.runtime.Now()) {
			continue
		}
		if err := c.runtime.Probe(ctx, server); err != nil {
			c.health.RecordFailure(server, c.runtime.Now())
			continue
		}
		c.health.RecordSuccess(server)
	}
}

// RegisterFidelity registers an operation (paper §3.1): its execution
// plans, fidelity dimensions, and input parameters. Demand models are
// created and warmed from the persistent usage log.
func (c *Client) RegisterFidelity(spec OperationSpec) (*Operation, error) {
	start := c.wallClock.Now()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.ops[spec.Name]; ok {
		return nil, fmt.Errorf("core: operation %q already registered", spec.Name)
	}
	op := &Operation{
		client:         c,
		spec:           spec,
		models:         newOpModels(spec.modelFeatureNames(), c.modelOpts, spec.Predictors),
		acc:            c.hooks.o.AccuracyFor(spec.Name),
		fidelityCombos: fidelityCombos(spec.allFidelityDimensions()),
		shapeKey:       spec.decisionShapeKey(),
	}
	if err := c.usageLog.Replay(spec.Name, op.models.replay); err != nil {
		return nil, fmt.Errorf("core: replay usage log for %q: %w", spec.Name, err)
	}
	op.registerDuration = c.wallClock.Now().Sub(start)
	c.ops[spec.Name] = op
	return op, nil
}

// Operation returns a registered operation.
func (c *Client) Operation(name string) (*Operation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	op, ok := c.ops[name]
	return op, ok
}

// Decision describes how Spectra chose to execute an operation.
type Decision struct {
	// Alternative is the chosen server, plan, and fidelity.
	Alternative solver.Alternative
	// Predicted is the metric prediction for the chosen alternative.
	Predicted utility.Prediction
	// Utility is the chosen alternative's utility.
	Utility float64
	// Evaluations counts utility evaluations the solver performed.
	Evaluations int
	// Candidates is the size of the decision space considered.
	Candidates int
	// Forced is true when the caller dictated the alternative.
	Forced bool
	// Overhead breaks down the real (wall-clock) cost of the decision.
	Overhead BeginOverhead
	// ReintegratedBytes is the data consistency enforcement pushed to the
	// file servers before execution.
	ReintegratedBytes int64
}

// BeginOverhead is the Figure-10 breakdown of begin_fidelity_op.
type BeginOverhead struct {
	// FilePrediction covers file-access prediction and snapshotting of
	// cache state.
	FilePrediction time.Duration
	// Choosing covers solver search over the alternatives.
	Choosing time.Duration
	// Other covers the remaining bookkeeping.
	Other time.Duration
	// Total is the full begin_fidelity_op duration.
	Total time.Duration
}

// errNoAlternative is returned when nothing can execute the operation.
var errNoAlternative = errors.New("core: no feasible execution alternative")

// BeginFidelityOp decides how and where the operation should execute
// (paper §3.6) and starts resource observation. The caller must execute
// according to the returned decision and call End.
func (c *Client) BeginFidelityOp(op *Operation, params map[string]float64, data string) (*OpContext, error) {
	return c.begin(op, params, data, nil)
}

// BeginForced starts an operation with a caller-chosen alternative,
// bypassing the solver. The validation harness uses it to measure every
// alternative; consistency is still enforced.
func (c *Client) BeginForced(op *Operation, alt solver.Alternative, params map[string]float64, data string) (*OpContext, error) {
	return c.begin(op, params, data, &alt)
}

func (c *Client) begin(op *Operation, params map[string]float64, data string, forced *solver.Alternative) (*OpContext, error) {
	wallStart := c.wallClock.Now()
	c.hooks.opBegin.Inc()
	if !op.spec.UsesData {
		data = ""
	}

	// With a trace sink attached, a span recorder times the phases of the
	// decision (and later of execution); nil otherwise, so every recording
	// call below is a no-op and the untraced path stays allocation-free.
	var rec *obs.SpanRecorder
	traceOn := c.hooks.o.TraceOn()
	if traceOn {
		rec = obs.NewSpanRecorder(c.runtime.Now)
	}

	servers := c.Servers()
	spPredict := rec.Start(obs.SpanPredict, -1)
	snap, snapSeq := c.snapshotFor(servers)

	// Placement-decision cache: a warm Begin reuses a prior decision under
	// an unchanged coarse resource picture, skipping prediction and solver
	// search. Forced Begins bypass it (the caller dictated the placement),
	// traced Begins bypass it (traces must record a full deliberation), and
	// dirty consistency state bypasses it (reintegration planning needs the
	// estimator's file predictions).
	var (
		cacheKey   string
		coarse     monitor.CoarseSnapshot
		cacheStore bool
	)
	if c.dcache != nil {
		if forced != nil || traceOn || c.dirtyState() {
			c.dcache.bypass()
		} else {
			coarse = monitor.Coarsen(snap, servers)
			cacheKey = cacheBeginKey(op, params, data, servers)
			if dec, dem, ok := c.dcache.lookup(cacheKey, coarse, c.runtime.Now(), c.accuracyProbe(op)); ok {
				return c.beginWarm(op, params, data, dec, dem, cacheKey, wallStart)
			}
			cacheStore = true
		}
	}

	est := newEstimator(op, snap, params, data, c.cons, c.wallClock)
	rec.EndSpan(spPredict)

	fn := c.utilityFn(op, snap)
	eval := func(alt solver.Alternative) float64 {
		return fn.Utility(est.Predict(alt))
	}

	// With a trace sink attached, the evaluator additionally records every
	// distinct alternative it scores, with the per-resource demand behind
	// each prediction. traceSeen dedups by identity key: the solver may
	// revisit an alternative across restarts (its own cache dedups real
	// evaluations, but forced runs and fallback scans bypass it).
	var (
		tr        *obs.DecisionTrace
		traceSeen map[string]int
	)
	if c.hooks.o.TraceOn() {
		tr = &obs.DecisionTrace{
			Operation:   op.Name(),
			Begin:       c.runtime.Now(),
			Forced:      forced != nil,
			Snapshot:    summarizeSnapshot(snap, servers),
			SnapshotSeq: snapSeq,
		}
		traceSeen = make(map[string]int)
		eval = func(alt solver.Alternative) float64 {
			pred, dem := est.PredictDetail(alt)
			u := fn.Utility(pred)
			if _, ok := traceSeen[alt.Key()]; !ok {
				traceSeen[alt.Key()] = len(tr.Evaluated)
				tr.Evaluated = append(tr.Evaluated, obs.EvaluatedAlternative{
					Server:        alt.Server,
					Plan:          alt.Plan,
					Fidelity:      alt.Fidelity,
					Demand:        dem,
					FidelityValue: pred.Fidelity,
					Utility:       u,
					Feasible:      pred.Feasible,
				})
			}
			return u
		}
	}

	var (
		decision  Decision
		chooseT   time.Duration
		demand    obs.ResourceDemand
		demandSet bool
	)
	if forced != nil {
		c.hooks.opForced.Inc()
		pred, dem := est.PredictDetail(*forced)
		decision = Decision{
			Alternative: *forced,
			Predicted:   pred,
			Utility:     eval(*forced),
			Forced:      true,
			Candidates:  1,
		}
		if !decision.Predicted.Feasible {
			return nil, fmt.Errorf("%w: forced %s", errNoAlternative, forced.Key())
		}
		demand, demandSet = dem, true
	} else {
		candidates := op.alternatives(servers)
		if len(candidates) == 0 {
			return nil, errNoAlternative
		}
		spSolve := rec.Start(obs.SpanSolve, -1)
		chooseStart := c.wallClock.Now()
		var res solver.Result
		if c.exhaustive {
			res = solver.Exhaustive(candidates, eval)
		} else {
			res = solver.Heuristic(candidates, eval, c.solverOpts)
		}
		chooseT = c.wallClock.Now().Sub(chooseStart)
		if !res.Found || res.Utility <= 0 {
			// Fall back to the best local alternative if the chosen one is
			// infeasible; if nothing is feasible, report it.
			res = bestFeasible(candidates, est, eval)
			if !res.Found {
				rec.EndSpan(spSolve)
				return nil, errNoAlternative
			}
		}
		rec.EndSpan(spSolve)
		c.hooks.solverEvals.Add(int64(res.Evaluations))
		c.hooks.solverRestarts.Add(int64(res.Restarts))
		c.hooks.candidates.Observe(float64(len(candidates)))
		pred, dem := est.PredictDetail(res.Best)
		decision = Decision{
			Alternative: res.Best,
			Predicted:   pred,
			Utility:     res.Utility,
			Evaluations: res.Evaluations,
			Candidates:  len(candidates),
		}
		demand, demandSet = dem, true
		if cacheStore {
			c.dcache.store(cacheKey, coarse, decision, dem, c.runtime.Now(), c.accuracyProbe(op))
		}
		if tr != nil {
			tr.Candidates = len(candidates)
			tr.Evaluations = res.Evaluations
			tr.Restarts = res.Restarts
			c.oracleRank(tr, traceSeen, candidates)
		}
	}

	octx := &OpContext{
		client:     c,
		op:         op,
		id:         c.allocOpID(),
		decision:   decision,
		params:     params,
		data:       data,
		simStart:   c.runtime.Now(),
		wallStart:  wallStart,
		cacheKey:   cacheKey,
		trace:      tr,
		predDemand: demand,
		predValid:  demandSet,
		spans:      rec,
	}
	if tr != nil {
		tr.OpID = octx.id
		if tr.Candidates == 0 {
			tr.Candidates = decision.Candidates
		}
		if i, ok := traceSeen[decision.Alternative.Key()]; ok {
			tr.Chosen = tr.Evaluated[i]
		}
	}

	// Data consistency: before executing remotely, reintegrate dirty
	// volumes the operation may read (paper §3.5).
	if plan, ok := op.planSpec(decision.Alternative.Plan); ok && plan.UsesServer {
		_, discrete := op.modelQuery(decision.Alternative, params)
		key := predict.DiscreteKey(discrete)
		volumes, _ := est.reintegration(key)
		if len(volumes) > 0 {
			spRe := rec.Start(obs.SpanReintegrate, -1)
			for _, vol := range volumes {
				bytes, dur, err := c.runtime.Reintegrate(vol)
				if err != nil {
					rec.EndSpan(spRe)
					return nil, fmt.Errorf("core: consistency for %q: %w", op.Name(), err)
				}
				octx.decision.ReintegratedBytes += bytes
				octx.phases.netSeconds += dur.Seconds()
			}
			rec.EndSpan(spRe)
		}
	}

	c.monitors.StartOp(octx.id)
	octx.started = true

	total := c.wallClock.Now().Sub(wallStart)
	filePredT := est.filePredTime
	choosing := chooseT - filePredT
	if choosing < 0 {
		choosing = 0
	}
	octx.decision.Overhead = BeginOverhead{
		FilePrediction: filePredT,
		Choosing:       choosing,
		Other:          total - filePredT - choosing,
		Total:          total,
	}
	if tr != nil {
		tr.ReintegratedBytes = octx.decision.ReintegratedBytes
	}
	c.hooks.beginSeconds.Observe(total.Seconds())
	return octx, nil
}

// beginWarm completes a Begin from a decision-cache hit: the prior decision
// is reused verbatim, observation starts as usual, and the overhead
// breakdown honestly reports near-zero Choosing — the whole Begin cost one
// fingerprint comparison, not a solver search.
func (c *Client) beginWarm(op *Operation, params map[string]float64, data string, dec Decision, demand obs.ResourceDemand, key string, wallStart time.Time) (*OpContext, error) {
	// ReintegratedBytes belonged to the Begin that filled the entry; this
	// Begin ran no consistency enforcement (dirty state bypasses the cache).
	dec.ReintegratedBytes = 0
	octx := &OpContext{
		client:     c,
		op:         op,
		id:         c.allocOpID(),
		decision:   dec,
		params:     params,
		data:       data,
		simStart:   c.runtime.Now(),
		wallStart:  wallStart,
		cacheKey:   key,
		predDemand: demand,
		predValid:  true,
	}
	c.monitors.StartOp(octx.id)
	octx.started = true
	total := c.wallClock.Now().Sub(wallStart)
	octx.decision.Overhead = BeginOverhead{Other: total, Total: total}
	c.hooks.beginSeconds.Observe(total.Seconds())
	return octx, nil
}

// dirtyState reports whether the Coda client has buffered modifications;
// such Begins need the estimator's reintegration planning and therefore
// bypass the decision cache.
func (c *Client) dirtyState() bool {
	return c.cons != nil && len(c.cons.DirtyVolumes()) > 0
}

// accuracyProbe adapts the observer's accuracy tracker into the decision
// cache's per-resource rolling-error probe for one operation; nil (no
// regression checking) when accuracy accounting is off.
func (c *Client) accuracyProbe(op *Operation) func(resource string) (float64, bool) {
	if c.hooks.o == nil || c.hooks.o.Accuracy == nil {
		return nil
	}
	acc := c.hooks.o.Accuracy
	name := op.Name()
	return func(resource string) (float64, bool) {
		mean, _, ok := acc.RelativeError(name, resource)
		return mean, ok
	}
}

// oracleRank computes the Figure-8 metric when the exhaustive oracle
// decides with tracing on: the percentile rank the heuristic solver's
// choice would have achieved among all candidates. The oracle has already
// evaluated (and the trace recorded) every candidate, so the heuristic is
// replayed against those memoized utilities at zero additional model cost.
func (c *Client) oracleRank(tr *obs.DecisionTrace, seen map[string]int, candidates []solver.Alternative) {
	if !c.exhaustive || len(tr.Evaluated) == 0 {
		return
	}
	memo := func(a solver.Alternative) float64 {
		if i, ok := seen[a.Key()]; ok {
			return tr.Evaluated[i].Utility
		}
		return -1
	}
	h := solver.Heuristic(candidates, memo, c.solverOpts)
	if !h.Found {
		return
	}
	better := 0
	for _, ev := range tr.Evaluated {
		if ev.Utility > h.Utility {
			better++
		}
	}
	pct := 100 * float64(len(tr.Evaluated)-better) / float64(len(tr.Evaluated))
	tr.OracleRan = true
	tr.HeuristicRankPct = pct
	c.hooks.rankPct.Observe(pct)
}

// utilityFn returns the operation's utility function over the snapshot.
func (c *Client) utilityFn(op *Operation, snap *monitor.Snapshot) utility.Function {
	if op.spec.Utility != nil {
		return op.spec.Utility
	}
	return utility.Default{
		Latency:    op.spec.LatencyUtility,
		Importance: func() float64 { return snap.Battery.Importance },
	}
}

// snapshotFor returns the decision snapshot for a Begin, plus its
// time-series sequence number (0 when no recorder is attached). With a
// positive SnapshotTTL, concurrent Begins within the window share one
// snapshot — monitors are consulted once, the time-series records one
// batch, and health verdicts are folded in at fill time so the published
// snapshot is immutable. With TTL disabled every call fills afresh.
func (c *Client) snapshotFor(servers []string) (*monitor.Snapshot, uint64) {
	now := c.runtime.Now()
	if c.snapTTL <= 0 {
		snap := c.monitors.Snapshot(now, servers)
		c.applyHealth(snap, servers)
		return snap, c.recordSnapshot(snap, servers)
	}
	key := strings.Join(servers, "\x00")
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	// A health-tracker transition since the fill invalidates the snapshot
	// regardless of age: its folded-in verdicts no longer describe the
	// fleet, and a post-failover Begin must not route to a server the
	// breaker just opened on (nor keep shunning one that just healed).
	gen := c.healthGen.Load()
	age := now.Sub(c.snapAt)
	if c.snapVal != nil && c.snapKey == key && age >= 0 && age < c.snapTTL && c.snapHealthGen == gen {
		c.hooks.snapCacheHits.Inc()
		return c.snapVal, c.snapSeq
	}
	c.hooks.snapCacheMisses.Inc()
	snap := c.monitors.Snapshot(now, servers)
	c.applyHealth(snap, servers)
	// gen was read before the fill: if applyHealth itself fired a
	// transition (a half-open probe), the snapshot is conservatively
	// treated as already stale — at most one extra refill, never a loop.
	c.snapVal, c.snapKey, c.snapAt = snap, key, now
	c.snapHealthGen = gen
	c.snapSeq = c.recordSnapshot(snap, servers)
	return snap, c.snapSeq
}

// recordSnapshot enters a decision snapshot into the resource time-series
// history (when a recorder is attached), so post-hoc analysis can line a
// decision up against what the monitors reported before and after it.
func (c *Client) recordSnapshot(snap *monitor.Snapshot, servers []string) uint64 {
	if ts := c.hooks.o.Timeline(); ts != nil {
		return monitor.RecordSnapshot(ts, snap, servers)
	}
	return 0
}

// applyHealth folds the health tracker's verdicts into a snapshot:
// quarantined servers are marked unreachable, removing them from the
// solver's decision space until their half-open probe succeeds.
func (c *Client) applyHealth(snap *monitor.Snapshot, servers []string) {
	now := c.runtime.Now()
	for _, s := range servers {
		if !c.health.Usable(s, now) {
			na := snap.Network[s]
			na.Reachable = false
			snap.Network[s] = na
		}
	}
}

// bestFeasible scans all candidates for the highest-utility feasible one.
func bestFeasible(candidates []solver.Alternative, est *estimator, eval solver.Evaluator) solver.Result {
	var res solver.Result
	for _, alt := range candidates {
		if !est.Predict(alt).Feasible {
			continue
		}
		u := eval(alt)
		res.Evaluations++
		if !res.Found || u > res.Utility {
			res.Found = true
			res.Best = alt
			res.Utility = u
		}
	}
	return res
}

func (c *Client) allocOpID() uint64 {
	return c.nextID.Add(1)
}
