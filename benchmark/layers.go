package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"spectra"
	"spectra/internal/apps/pangloss"
	"spectra/internal/coda"
	"spectra/internal/monitor"
	"spectra/internal/obs"
	"spectra/internal/predict"
	"spectra/internal/solver"
	"spectra/internal/utility"
	"spectra/internal/wire"

	spectrarpc "spectra/internal/rpc"
)

// The per-layer ledger. Layers are the repository's packages. Everything
// here runs in the traced pass (-trace 1) and from this directory's code,
// two ways: in situ, as spans around the loop's public calls plus the
// benchmark's own service function; and as probes, calling a layer's
// exported functions directly on a warmed fixture with the workload's
// inputs. Counts come from exported accessors and, in this pass only, a
// metrics-only Observer.

// probeTarget is what the probes need from a fixture.
type probeTarget struct {
	client *spectra.Client
	op     *spectra.Operation
	params map[string]float64
	data   string
	// hostCoda is the client machine's cache manager; touch dirties it the
	// way the workload's edits do and names the dirtied volume (nil when the
	// workload never writes).
	hostCoda *coda.Client
	touch    func() (string, error)
	// request and addr are a workload-sized request and one server's
	// address; nil and "" when the workload has no transport.
	request []byte
	addr    string
}

func (f *liveFixture) target() probeTarget {
	return probeTarget{
		client:   f.setup.Client,
		op:       f.op,
		params:   f.params,
		hostCoda: f.setup.Host.Coda(),
		request:  genLiveInputs(0, f.spec.size)[0].req,
		addr:     f.addrs[f.names[0]],
	}
}

// The sim probes use a 12-word translation: Pangloss-Lite's 97-alternative
// space is the decision space the paper's Figure 10 is about.
func (f *simFixture) target() probeTarget {
	small := f.docs[0]
	return probeTarget{
		client:   f.laptop.Setup.Client,
		op:       f.panglossOp,
		params:   map[string]float64{pangloss.ParamWords: 12},
		hostCoda: f.laptop.Setup.Env.Host().Coda(),
		touch: func() (string, error) {
			return small.Volume, f.latexApp.TouchInput(small)
		},
	}
}

// timeBatches runs fn in batches of per calls (one unmeasured batch first)
// and returns each batch's per-call time in nanoseconds, ascending, and the
// allocations per call. Nanosecond-scale functions need per ≫ 1 so the clock
// reads do not dominate.
func timeBatches(batches, per int, fn func()) (times []float64, allocs float64) {
	for i := 0; i < per; i++ {
		fn()
	}
	times = make([]float64, batches)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := range times {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		times[b] = float64(time.Since(start)) / float64(per)
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(times)
	return times, float64(after.Mallocs-before.Mallocs) / float64(batches*per)
}

// timeCalls is timeBatches reduced to the median per-call time.
func timeCalls(batches, per int, fn func()) (ns, allocs float64) {
	times, allocs := timeBatches(batches, per, fn)
	return percentile(times, 0.50), allocs
}

const (
	probeCalls     = 2000 // µs-scale functions, timed one by one
	probeBatches   = 64   // ns-scale functions, timed probeBatchSize at a time
	probeBatchSize = 256
)

// probeCallsFor keeps the full call count for real runs and thins it for
// sub-second smoke runs, which only check that every probe still works.
func probeCallsFor(d time.Duration) int {
	if d < time.Second {
		return probeCalls / 20
	}
	return probeCalls
}

type metrics map[string]metricValue

func (m metrics) us(name string, ns float64)   { m[name] = metricValue{ns / 1e3, "us"} }
func (m metrics) ns(name string, ns float64)   { m[name] = metricValue{ns, "ns"} }
func (m metrics) count(name string, v float64) { m[name] = metricValue{v, "count"} }
func (m metrics) ratio(name string, v float64) { m[name] = metricValue{v, "ratio"} }
func (m metrics) perKop(name string, n, ops float64) {
	v := 0.0
	if ops > 0 {
		v = n / ops * 1000
	}
	m[name] = metricValue{v, "1/kop"}
}

func ratioOf(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// beginProbe times Begin/Abort pairs on a fixture. Buffered writes are
// reintegrated first, as an idle client's would be: a dirty volume makes
// every Begin bypass the decision cache and plan a reintegration.
func beginProbe(t probeTarget, calls int) (ns, allocs float64, err error) {
	if _, err := t.hostCoda.ReintegrateAll(); err != nil {
		return 0, 0, err
	}
	ns, allocs = timeCalls(calls, 1, func() {
		octx, e := t.client.BeginFidelityOp(t.op, t.params, t.data)
		if e != nil {
			err = e
			return
		}
		octx.Abort()
	})
	return ns, allocs, err
}

// probeLayers calls each layer's exported functions directly. cold and warm
// are fixtures with the decision cache off and on; base is whichever of
// them the workload itself runs with.
func probeLayers(m metrics, calls int, base, cold, warm probeTarget, files []predict.FileAccess, outDir string) error {
	// core
	ns, allocs, err := beginProbe(cold, calls)
	if err != nil {
		return fmt.Errorf("cold Begin probe: %w", err)
	}
	m.us("core.begin_cold_us", ns)
	m.count("core.begin_cold_allocs", allocs)
	if ns, allocs, err = beginProbe(warm, calls); err != nil {
		return fmt.Errorf("warm Begin probe: %w", err)
	}
	m.us("core.begin_warm_us", ns)
	m.count("core.begin_warm_allocs", allocs)
	var ranked []spectra.ScoredAlternative
	ns, _ = timeCalls(calls, 1, func() {
		ranked = base.client.EvaluateAlternatives(base.op, base.params, base.data)
	})
	m.us("core.evaluate_all_us", ns)
	m.count("core.candidates", float64(len(ranked)))
	if len(ranked) == 0 {
		return fmt.Errorf("probe: %s has no alternatives", base.op.Name())
	}

	// monitor
	set, servers := base.client.Monitors(), base.client.Servers()
	now := base.client.Runtime().Now()
	var snap *monitor.Snapshot
	ns, allocs = timeCalls(calls, 1, func() { snap = set.Snapshot(now, servers) })
	m.us("monitor.snapshot_us", ns)
	m.count("monitor.snapshot_allocs", allocs)
	ns, _ = timeCalls(probeBatches, probeBatchSize, func() { monitor.Coarsen(snap, servers) })
	m.us("monitor.coarsen_us", ns)
	probeID := uint64(1) << 62 // far from any live operation ID
	ns, _ = timeCalls(calls, 1, func() {
		probeID++
		set.StartOp(probeID)
		set.StopOp(probeID)
	})
	m.us("monitor.startstop_us", ns)

	// predict: a default numeric model shaped like the workload's
	// operation (its parameters as features, plan + fidelity as the bin).
	best := ranked[0]
	discrete := map[string]string{"plan": best.Alternative.Plan}
	for k, v := range best.Alternative.Fidelity {
		discrete[k] = v
	}
	numeric := predict.NewDefaultNumeric(predict.Options{Features: base.op.Spec().Params})
	for _, s := range ranked {
		d := map[string]string{"plan": s.Alternative.Plan}
		for k, v := range s.Alternative.Fidelity {
			d[k] = v
		}
		numeric.Observe(predict.Observation{Params: base.params, Discrete: d, Data: base.data, Value: s.Predicted.Latency.Seconds()})
	}
	query := predict.Query{Params: base.params, Discrete: discrete, Data: base.data}
	ns, _ = timeCalls(probeBatches, probeBatchSize, func() { numeric.Predict(query) })
	m.ns("predict.numeric_predict_ns", ns)
	observation := predict.Observation{Params: base.params, Discrete: discrete, Data: base.data, Value: 1}
	ns, _ = timeCalls(probeBatches, probeBatchSize, func() { numeric.Observe(observation) })
	m.ns("predict.numeric_observe_ns", ns)
	filePred := predict.NewFilePredictor()
	for i := 0; i < 8; i++ {
		filePred.ObserveOp(files)
	}
	ns, _ = timeCalls(probeBatches, probeBatchSize, func() { filePred.Candidates(0.1) })
	m.us("predict.file_candidates_us", ns)
	logDir := filepath.Join(outDir, fmt.Sprintf("usagelog-%d", os.Getpid()))
	usageLog, err := predict.NewUsageLog(logDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(logDir)
	// One End appends a record per modelled resource (four numeric, energy,
	// files).
	batch := make([]predict.Record, 6)
	for i := range batch {
		batch[i] = predict.Record{Resource: fmt.Sprintf("res%d", i), Params: base.params, Discrete: discrete, Data: base.data, Value: 1}
	}
	batch[5].Files = files
	ns, _ = timeCalls(calls, 1, func() {
		if e := usageLog.AppendAll(base.op.Name(), batch); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("usage-log probe: %w", err)
	}
	m.us("predict.usagelog_append_us", ns)

	// solver, over the workload's candidates with their utilities tabled so
	// search cost is separated from prediction cost.
	candidates := make([]solver.Alternative, len(ranked))
	table := make(map[string]float64, len(ranked))
	for i, s := range ranked {
		candidates[i] = s.Alternative
		table[s.Alternative.Key()] = s.Utility
	}
	// EvaluateAlternatives ranks by utility; the solver's start points
	// assume registration order, so restore a utility-independent order.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Key() < candidates[j].Key() })
	lookup := func(a solver.Alternative) float64 { return table[a.Key()] }
	ns, allocs = timeCalls(calls, 1, func() { solver.Heuristic(candidates, lookup, solver.Options{}) })
	m.us("solver.heuristic_us", ns)
	m.count("solver.heuristic_allocs", allocs)
	ns, _ = timeCalls(calls, 1, func() { solver.Exhaustive(candidates, lookup) })
	m.us("solver.exhaustive_us", ns)

	// utility
	fn := utility.Default{Latency: base.op.Spec().LatencyUtility, Importance: func() float64 { return 0.3 }}
	ns, _ = timeCalls(probeBatches, probeBatchSize, func() { fn.Utility(best.Predicted) })
	m.ns("utility.eval_ns", ns)

	// coda
	volume := ""
	if base.touch != nil {
		if volume, err = base.touch(); err != nil {
			return err
		}
	}
	ns, _ = timeCalls(probeBatches, probeBatchSize, func() { base.hostCoda.DirtyVolumes() })
	m.us("coda.dirty_volumes_us", ns)
	m.us("coda.reintegrate_us", 0)
	if base.touch != nil {
		times := make([]float64, calls)
		for i := range times {
			if _, err := base.touch(); err != nil {
				return err
			}
			start := time.Now()
			if _, err := base.hostCoda.Reintegrate(volume); err != nil {
				return fmt.Errorf("reintegrate probe: %w", err)
			}
			times[i] = float64(time.Since(start))
		}
		m.us("coda.reintegrate_us", median(times))
	}

	// wire and rpc exist only where there is a transport.
	for _, name := range []string{"wire.encode_us", "wire.decode_us", "rpc.ping_us", "rpc.call_us", "rpc.call_p99_us"} {
		m.us(name, 0)
	}
	for _, name := range []string{"wire.encode_allocs", "wire.decode_allocs", "rpc.call_allocs"} {
		m.count(name, 0)
	}
	m.ratio("wire.frame_overhead_ratio", 0)
	m["wire.bytes_per_op"] = metricValue{0, "B"}
	if base.request != nil {
		if err := probeTransport(m, calls, base); err != nil {
			return err
		}
	}
	return nil
}

// probeTransport times the codec at the workload's request size and the
// bare RPC path (no core) against one of the fixture's servers.
func probeTransport(m metrics, calls int, t probeTarget) error {
	req := &wire.Message{
		Type: wire.MsgRequest, ID: 7, Service: liveService, OpType: liveRunOp["high"],
		Payload: t.request, Deadline: wire.NewDeadlineContext(100 * time.Millisecond),
	}
	var buf bytes.Buffer
	var err error
	ns, allocs := timeCalls(calls, 1, func() {
		buf.Reset()
		if _, e := wire.WriteMessage(&buf, req); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("encode probe: %w", err)
	}
	m.us("wire.encode_us", ns)
	m.count("wire.encode_allocs", allocs)
	frame := append([]byte(nil), buf.Bytes()...)
	reader := bytes.NewReader(frame)
	ns, allocs = timeCalls(calls, 1, func() {
		reader.Reset(frame)
		if _, _, e := wire.ReadMessage(reader); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("decode probe: %w", err)
	}
	m.us("wire.decode_us", ns)
	m.count("wire.decode_allocs", allocs)
	m.ratio("wire.frame_overhead_ratio", float64(len(frame))/float64(len(t.request)))
	// The reply frame carries the same payload plus the server's usage
	// report; the run scales request+reply by the RPCs per operation.
	buf.Reset()
	if _, err := wire.WriteMessage(&buf, &wire.Message{
		Type: wire.MsgResponse, ID: 7, Payload: t.request,
		Usage: &wire.UsageReport{Extra: []wire.NamedValue{{Name: "computeSeconds"}, {Name: "fetchSeconds"}}},
	}); err != nil {
		return fmt.Errorf("reply frame: %w", err)
	}
	m["wire.bytes_per_op"] = metricValue{float64(len(frame) + buf.Len()), "B"}

	ctx := context.Background()
	client, err := spectrarpc.Dial(t.addr, nil)
	if err != nil {
		return fmt.Errorf("ping probe: %w", err)
	}
	defer client.Close()
	ns, _ = timeCalls(calls, 1, func() {
		if _, e := client.PingContext(ctx); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("ping probe: %w", err)
	}
	m.us("rpc.ping_us", ns)

	pool := spectrarpc.NewPool(t.addr, nil, spectrarpc.PoolOptions{Size: 1})
	defer pool.Close()
	call := func() {
		if _, _, _, e := pool.CallContext(ctx, liveService, liveRunOp["high"], t.request, nil); e != nil {
			err = e
		}
	}
	times, allocs := timeBatches(calls, 1, call) // the unmeasured first call dials
	if err != nil {
		return fmt.Errorf("call probe: %w", err)
	}
	m.us("rpc.call_us", percentile(times, 0.50))
	m.us("rpc.call_p99_us", percentile(times, 0.99))
	// Both ends of the call live in this process, so this counts the
	// server's allocations too.
	m.count("rpc.call_allocs", allocs)
	return nil
}

// spanLedger reduces the traced window's spans to the in-situ figures.
func spanLedger(m metrics, recs []*recorder) {
	var (
		durs     [numSpanKinds][]float64
		remoteSf []float64
		coverage []float64
		execPer  []float64
	)
	for _, r := range recs {
		self := selfTimes(r.spans)
		exec := make(map[int32]float64) // op span → handler time inside it
		for i, s := range r.spans {
			d := float64(s.End - s.Start)
			durs[s.Kind] = append(durs[s.Kind], d)
			switch s.Kind {
			case spanDoRemote:
				remoteSf = append(remoteSf, float64(self[i]))
			case spanOp:
				if d > 0 {
					coverage = append(coverage, (d-float64(self[i]))/d)
				}
			case spanHandler:
				exec[r.spans[s.Parent].Parent] += d
			}
		}
		for i, s := range r.spans {
			if s.Kind == spanOp {
				execPer = append(execPer, exec[int32(i)])
			}
		}
	}
	p := func(vs []float64, q float64) float64 {
		sort.Float64s(vs)
		return percentile(vs, q)
	}
	m.us("core.begin_us", p(durs[spanBegin], 0.50))
	m.us("core.begin_p99_us", p(durs[spanBegin], 0.99))
	m.us("core.do_local_us", p(durs[spanDoLocal], 0.50))
	m.us("core.do_remote_us", p(durs[spanDoRemote], 0.50))
	m.us("core.do_remote_self_us", p(remoteSf, 0.50))
	m.us("core.end_us", p(durs[spanEnd], 0.50))
	m.us("core.handler_us", p(durs[spanHandler], 0.50))
	m.us("sim.exec_self_us", p(execPer, 0.50))
	m.ratio("bench.span_coverage", p(coverage, 0.50))
}

// opP50 runs the callers for d and returns the median operation latency in
// nanoseconds.
func opP50(callers []func(*recorder) opResult, d time.Duration) (float64, error) {
	w := runWindow(d, 1, callers, nil)
	if w.failed() > 0 {
		return 0, fmt.Errorf("%d operations failed: %v", w.failed(), w.firstErr)
	}
	return w.medianOpNs(), nil
}

func (w *window) medianOpNs() float64 {
	lat := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lat[i] = float64(s.opNs)
	}
	return median(lat)
}

// obsOverhead measures what attaching an Observer costs an operation: the
// median op latency with a metrics-only and with a tracing Observer, minus
// that with none, over three interleaved short passes.
func (b *bench) obsOverhead(m metrics, d time.Duration) error {
	tracing := spectra.NewObserver()
	tracing.Sink = spectra.NewMemoryTraceSink(256)
	variants := []*spectra.Observer{nil, spectra.NewObserver(), tracing}
	p50s := make([][]float64, len(variants))
	callers := make([][]func(*recorder) opResult, len(variants))
	for i, o := range variants {
		fx, err := b.build(buildOpts{obs: o})
		if err != nil {
			return err
		}
		defer fx.Close()
		callers[i] = fx.callers(b.seed)
		if err := warmUp(callers[i], d); err != nil {
			return err
		}
	}
	for pass := 0; pass < 3; pass++ {
		for i := range variants {
			v, err := opP50(callers[i], d)
			if err != nil {
				return fmt.Errorf("observer pass: %w", err)
			}
			p50s[i] = append(p50s[i], v)
		}
	}
	m.us("obs.metrics_overhead_us", median(p50s[1])-median(p50s[0]))
	m.us("obs.tracing_overhead_us", median(p50s[2])-median(p50s[0]))
	return nil
}

// countLedger turns the traced window's counts into per-layer figures: the
// Reports' tally, the decision cache's statistics and the metrics-only
// Observer's counters, each as the difference across the window.
func countLedger(m metrics, tally reportTally, before, after obs.RegistrySnapshot, cacheBefore, cacheAfter spectra.CacheStats) {
	ops := float64(tally.ops)
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	histMeanUs := func(name string) float64 {
		h, h0 := after.Histograms[name], before.Histograms[name]
		return ratioOf(h.Sum-h0.Sum, float64(h.Count-h0.Count)) * 1e6
	}
	hits, misses := float64(cacheAfter.Hits-cacheBefore.Hits), float64(cacheAfter.Misses-cacheBefore.Misses)
	m.ratio("core.cache_hit_ratio", ratioOf(hits, hits+misses))
	m.perKop("core.cache_invalidations_per_kop", float64(cacheAfter.Invalidations-cacheBefore.Invalidations), ops)
	m.perKop("core.cache_bypass_per_kop", float64(cacheAfter.Bypasses-cacheBefore.Bypasses), ops)
	m.perKop("core.hedges_per_kop", delta(obs.MHedgeLaunched), ops)
	m.perKop("core.failovers_per_kop", float64(tally.failovers), ops)
	m.perKop("core.degraded_per_kop", float64(tally.degraded), ops)
	snapHits := delta(obs.MSnapCacheHits)
	m.ratio("monitor.snapshot_cache_hit_ratio", ratioOf(snapHits, snapHits+delta(obs.MSnapCacheMisses)))
	modelHits := delta(obs.MPredictHitBin) + delta(obs.MPredictHitGeneric) + delta(obs.MPredictHitData)
	m.ratio("predict.model_hit_ratio", ratioOf(modelHits, modelHits+delta(obs.MPredictMiss)))
	m.count("solver.evals_per_decision", ratioOf(float64(tally.evaluations), float64(tally.decisions)))
	m.ratio("solver.evals_over_candidates", ratioOf(float64(tally.evaluations), float64(tally.candidates)))
	m["coda.reintegrated_kb_per_op"] = metricValue{float64(tally.reintegrated) / 1024 / ops, "KiB"}
	m.perKop("rpc.pool_waits_per_kop", delta(obs.MPoolWaits), ops)
	m.perKop("rpc.retries_per_kop", delta(obs.MRPCRetries), ops)
	m.count("rpc.redials", delta(obs.MRPCRedials))
	m.count("rpc.pool_evicted", delta(obs.MPoolEvicted))
	m.perKop("rpc.deadline_exceeded_per_kop", delta(obs.MDeadlineExceeded), ops)
	m["rpc.server_queue_wait_us"] = metricValue{histMeanUs(obs.MServerQueueWaitSeconds), "us"}
	m["rpc.server_exec_us"] = metricValue{histMeanUs(obs.MServerExecSeconds), "us"}
	m.perKop("rpc.server_rejected_per_kop", delta(obs.MServerQueueRejected), ops)
	m.perKop("rpc.server_deadline_shed_per_kop", delta(obs.MServerDeadlineShed), ops)
}

// runTraced produces the per-layer metrics: an untraced baseline window, a
// traced window (benchmark spans plus a metrics-only Observer), the layer
// probes, and the observer-overhead passes.
func (b *bench) runTraced(d time.Duration) (runResult, error) {
	m := metrics{}
	outDir := "out"

	// Baseline: same fixture shape as the end-to-end run, nothing attached.
	base, err := b.build(buildOpts{})
	if err != nil {
		return runResult{}, fmt.Errorf("set-up: %w", err)
	}
	defer base.Close()
	baseCallers := base.callers(b.seed)
	if err := warmUp(baseCallers, warmUpFor(d)); err != nil {
		return runResult{}, err
	}
	untraced, err := opP50(baseCallers, d/4)
	if err != nil {
		return runResult{}, fmt.Errorf("baseline window: %w", err)
	}

	// Traced: spans around every public call, the service function logging
	// its executions, and a metrics-only Observer for the counts.
	observer := spectra.NewObserver()
	epoch := time.Now()
	handlers := &handlerLog{epoch: epoch}
	traced, err := b.build(buildOpts{obs: observer, handlers: handlers})
	if err != nil {
		return runResult{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.Close()
	callers := traced.callers(b.seed)
	if err := warmUp(callers, warmUpFor(d)); err != nil {
		return runResult{}, err
	}
	recs := make([]*recorder, len(callers))
	for i := range recs {
		recs[i] = newRecorder(epoch)
	}
	tt := traced.target()
	cacheBefore := tt.client.DecisionCacheStats()
	countersBefore := observer.Registry.Snapshot()
	w := runWindow(d/2, 1, callers, recs)
	counters := observer.Registry.Snapshot()
	cache := tt.client.DecisionCacheStats()
	attachHandlers(recs, handlers)
	tracePath, err := writeTrace(outDir, b.workload, b.seed, recs)
	if err != nil {
		return runResult{}, err
	}

	res := runResult{Attempted: int64(len(w.samples)) + w.failed(), Failed: w.failed()}
	if len(w.samples) == 0 {
		return runResult{}, fmt.Errorf("traced window verified no operation: %v", w.firstErr)
	}
	spanLedger(m, recs)
	m.ratio("bench.trace_overhead_fraction", (w.medianOpNs()-untraced)/untraced)

	countLedger(m, w.reports, countersBefore, counters, cacheBefore, cache)

	// Probes, on nil-observer fixtures so they price the end-to-end path.
	other, err := b.build(buildOpts{flipCache: true})
	if err != nil {
		return runResult{}, fmt.Errorf("probe set-up: %w", err)
	}
	defer other.Close()
	if err := warmUp(other.callers(b.seed), warmUpFor(d)/4); err != nil {
		return runResult{}, err
	}
	cold, warm := base.target(), other.target()
	if b.cacheOn() {
		cold, warm = warm, cold
	}
	one := baseCallers[0](nil)
	if one.fail != failNone {
		return runResult{}, fmt.Errorf("probe operation: %w", one.err)
	}
	if err := probeLayers(m, probeCallsFor(d), base.target(), cold, warm, one.report.Usage.Files, outDir); err != nil {
		return runResult{}, err
	}
	// The probe measured one request + reply frame pair; an operation makes
	// this many RPCs.
	bytesPerOp := m["wire.bytes_per_op"]
	bytesPerOp.Value *= ratioOf(float64(w.reports.rpcs), float64(w.reports.ops))
	m["wire.bytes_per_op"] = bytesPerOp

	if err := b.obsOverhead(m, warmUpFor(d)/3); err != nil {
		return runResult{}, err
	}

	res.Metrics = m
	res.Correct = float64(res.Failed)/float64(res.Attempted) <= failedFractionBound
	fmt.Printf("%s seed=%d traced window=%.2fs ops=%d spans written to %s\n", b.workload, b.seed, w.elapsed.Seconds(), len(w.samples), tracePath)
	return res, nil
}
