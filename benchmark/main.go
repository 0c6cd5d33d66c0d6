// Command benchmark is the one benchmark of this repository: four unpaced
// workloads, eleven end-to-end metrics measured with nothing attached, and
// a per-layer ledger taken in a separate traced run from the benchmark's own
// files. BENCHMARK.json at the repository root declares it; README.md in
// this directory says why each workload and metric exists.
//
//	go run -C benchmark . -workload live_small_warm -seed 3 -seconds 15 -trace 0
//	go run -C benchmark . -runs 10 -out out/a.json     # every workload, both passes
//	go run -C benchmark . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"spectra"
	"spectra/internal/testbed"
)

// workloadNames is the fixed order workloads run and print in.
var workloadNames = []string{"live_small_cold", "live_small_warm", "live_bulk", simWorkload}

// metricValue is one reported figure, in the shape the driver parses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of a single-workload run's standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractPath is where the benchmark's contract lives relative to this
// directory, which `go run -C benchmark .` makes the working directory.
const contractPath = "../BENCHMARK.json"

// failedFractionBound is the share of attempted operations that may fail
// before a run reports itself incorrect (the end-to-end metric is
// verified_fraction = 1 − failed fraction).
const failedFractionBound = 0.001

// fixture is a built system under test plus the benchmark's way of driving
// it.
type fixture interface {
	// callers returns the closed-loop callers: each call issues that
	// caller's next operation.
	callers(seed uint64) []func(*recorder) opResult
	// relativeUtility is the decision-quality check made after the window.
	relativeUtility() (float64, error)
	// target hands the layer probes what they call into.
	target() probeTarget
	Close()
}

func (f *liveFixture) callers(seed uint64) []func(*recorder) opResult {
	out := make([]func(*recorder) opResult, runtime.NumCPU())
	for i := range out {
		w := f.worker(i, seed)
		out[i] = func(rec *recorder) opResult { return w.run(rec, nil) }
	}
	return out
}

func (f *simFixture) callers(uint64) []func(*recorder) opResult {
	return []func(*recorder) opResult{f.run}
}

func (f *simFixture) Close() {}

// bench is one workload at one seed: it knows how to build the fixture.
type bench struct {
	workload string
	seed     uint64
	tape     *simTape // generated once; not part of set-up
}

func newBench(workload string, seed uint64) (*bench, error) {
	b := &bench{workload: workload, seed: seed}
	if workload == simWorkload {
		b.tape = genSimTape(seed)
		return b, nil
	}
	if _, ok := liveWorkloads[workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return b, nil
}

// buildOpts varies a fixture away from the end-to-end shape (the zero
// value): an Observer, a handler log for the service function's spans, or
// the decision cache in the opposite state to the workload's own.
type buildOpts struct {
	obs       *spectra.Observer
	handlers  *handlerLog
	flipCache bool
}

// cacheOn reports whether the workload itself runs with the decision cache.
func (b *bench) cacheOn() bool { return liveWorkloads[b.workload].cache }

// build assembles a fresh fixture.
func (b *bench) build(o buildOpts) (fixture, error) {
	cache := b.cacheOn() != o.flipCache
	if b.workload == simWorkload {
		opts := testbed.Options{}
		if cache {
			// As spectra-bench -begin does: the virtual clock would
			// otherwise never let a snapshot age.
			opts.Cache = spectra.CacheOptions{Enabled: true}
			opts.SnapshotTTL = time.Hour
		}
		return newSimFixture(b.tape, o.obs, o.handlers, opts)
	}
	spec := liveWorkloads[b.workload]
	spec.cache = cache
	return newLiveFixture(spec, o.obs, o.handlers)
}

const setupRepeats = 9

// warmUp runs the callers unmeasured so pools are dialled, models and the
// decision cache are filled and lazy initialisation is done; a failure here
// is a broken fixture, not a measurement.
func warmUp(callers []func(*recorder) opResult, d time.Duration) error {
	w := runWindow(d, 1, callers, nil)
	if w.failed() > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed: %v", w.failed(), w.failed()+int64(len(w.samples)), w.firstErr)
	}
	return nil
}

func warmUpFor(d time.Duration) time.Duration {
	if w := d / 5; w < time.Second {
		return w
	}
	return time.Second
}

// runEndToEnd measures the eleven end-to-end metrics: no Observer, no
// benchmark spans.
func (b *bench) runEndToEnd(d time.Duration) (runResult, error) {
	var (
		fx      fixture
		setupTs []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			fx.Close()
		}
		start := time.Now()
		var err error
		if fx, err = b.build(buildOpts{}); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		setupTs = append(setupTs, time.Since(start).Seconds())
	}
	defer fx.Close()

	callers := fx.callers(b.seed)
	if err := warmUp(callers, warmUpFor(d)); err != nil {
		return runResult{}, err
	}
	w := runWindow(d, sliceCount(d), callers, nil)
	relU, err := fx.relativeUtility()
	if err != nil {
		return runResult{}, fmt.Errorf("decision check: %w", err)
	}

	res := runResult{Attempted: int64(len(w.samples)) + w.failed(), Failed: w.failed()}
	if res.Attempted == 0 {
		return runResult{}, fmt.Errorf("no operation was attempted in %v", d)
	}
	slices := w.perSlice()
	cpuUs, allocs, allocKB := w.perOp()
	verified := 1 - float64(res.Failed)/float64(res.Attempted)
	res.Metrics = map[string]metricValue{
		"setup_s":                   {median(setupTs), "s"},
		"ops_per_s":                 {medianOf(slices, func(s sliceStats) float64 { return s.opsPerSec }), "ops/s"},
		"op_p50_us":                 {medianOf(slices, func(s sliceStats) float64 { return s.opP50 }), "us"},
		"op_p99_us":                 {medianOf(slices, func(s sliceStats) float64 { return s.opP99 }), "us"},
		"begin_p50_us":              {medianOf(slices, func(s sliceStats) float64 { return s.beginP50 }), "us"},
		"verified_fraction":         {verified, "ratio"},
		"cpu_us_per_op":             {cpuUs, "us"},
		"allocs_per_op":             {allocs, "count"},
		"alloc_kb_per_op":           {allocKB, "KiB"},
		"peak_rss_mb":               {peakRSSMiB(), "MiB"},
		"decision_relative_utility": {relU, "ratio"},
	}
	res.Correct = 1-verified <= failedFractionBound && relU > 0
	fmt.Printf("%s seed=%d window=%.2fs slices=%d samples=%d", b.workload, b.seed, w.elapsed.Seconds(), len(slices), len(w.samples))
	for k := failError; k < numFailKinds; k++ {
		fmt.Printf(" %s=%d", failNames[k], w.fails[k])
	}
	fmt.Println()
	if w.firstErr != nil {
		fmt.Printf("first failure: %v\n", w.firstErr)
	}
	return res, nil
}

// printMetrics lists a result's metrics by name with their units.
func printMetrics(res runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// heapBallast stands in for the calling application's own live heap. The
// Go collector paces itself by live heap size and the fixtures hold only a
// few MiB, so without it live_bulk would start a collection every few
// operations and every figure would follow any megabyte the program or the
// harness happens to retain (the traced pass's span buffers alone made
// live_bulk read 24 % faster). With it, collections come at the rate an
// application with 64 MiB of live data sees, and a figure moves when the
// work per operation does. It is never written, so it is not resident.
var heapBallast []byte

const heapBallastBytes = 64 << 20

func main() {
	heapBallast = make([]byte, heapBallastBytes)
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line; empty runs every workload, both passes, in child processes")
		seed     = flag.Uint64("seed", 1, "input generator seed")
		seconds  = flag.Float64("seconds", 15, "measured window per run, in seconds (0.2 for a smoke run)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, nothing attached; 1: per-layer metrics from a traced run")
		runs     = flag.Int("runs", 1, "with no -workload: runs per workload, at seeds seed, seed+1, ...")
		out      = flag.String("out", "out/results.json", "with no -workload: where the result set is written")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	flag.Parse()
	d := time.Duration(*seconds * float64(time.Second))
	var err error
	switch {
	case *compare:
		err = runCompare(contractPath, flag.Args(), os.Stdout)
	case *workload == "":
		err = runAll(*seed, *seconds, *runs, *out)
	default:
		err = runOne(*workload, *seed, d, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry point: one workload, one pass, the result as
// the last line of standard output.
func runOne(workload string, seed uint64, d time.Duration, trace int) error {
	b, err := newBench(workload, seed)
	if err != nil {
		return err
	}
	var res runResult
	if trace == 0 {
		res, err = b.runEndToEnd(d)
	} else {
		res, err = b.runTraced(d)
	}
	if err != nil {
		return err
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or a check did not hold", workload, res.Failed, res.Attempted)
	}
	return nil
}
