package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"spectra"

	spectrarpc "spectra/internal/rpc"
)

// failKind classifies why an attempted operation did not count.
type failKind uint8

const (
	failNone failKind = iota
	failError
	failShed
	failDeadline
	failWrongOutput
	numFailKinds
)

var failNames = [numFailKinds]string{"ok", "errors", "overload_sheds", "deadline_expiries", "wrong_outputs"}

// opResult is the outcome of one attempted operation.
type opResult struct {
	beginNs, opNs int64
	report        spectra.Report
	fail          failKind
	err           error
}

func failed(err error) opResult {
	kind := failError
	switch {
	case spectrarpc.IsDeadline(err):
		kind = failDeadline
	case spectrarpc.IsOverloaded(err):
		kind = failShed
	}
	return opResult{fail: kind, err: err}
}

// sample is one verified operation: when it finished (µs into the window)
// and its Begin and whole-operation latencies (ns, saturating at 4.29 s).
// Twelve bytes, because the harness's sample store is live heap and the Go
// collector paces itself by live heap: kept small, collections come as often
// as a small application embedding Spectra would see them.
type sample struct {
	endUs, opNs, beginNs uint32
}

func clampNs(ns int64) uint32 {
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}

// usageMark is the process's cumulative resource use at an instant.
type usageMark struct {
	atNs    int64
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window is what one measured window produced.
type window struct {
	samples  []sample // merged over workers, ordered by endUs
	marks    []usageMark
	fails    [numFailKinds]int64
	firstErr error
	reports  reportTally
	elapsed  time.Duration
}

// reportTally sums what the Reports and Decisions of verified operations
// say; the traced run turns it into per-layer counts.
type reportTally struct {
	ops, decisions, evaluations, candidates int64
	failovers, degraded, rpcs, reintegrated int64
}

func (t *reportTally) add(rep spectra.Report) {
	t.ops++
	if d := rep.Decision; d.Evaluations > 0 {
		t.decisions++
		t.evaluations += int64(d.Evaluations)
		t.candidates += int64(d.Candidates)
	}
	t.failovers += int64(len(rep.Failovers))
	if rep.Degraded {
		t.degraded++
	}
	t.rpcs += int64(rep.Usage.RPCs)
	t.reintegrated += rep.Decision.ReintegratedBytes
}

func (t *reportTally) merge(o reportTally) {
	t.ops += o.ops
	t.decisions += o.decisions
	t.evaluations += o.evaluations
	t.candidates += o.candidates
	t.failovers += o.failovers
	t.degraded += o.degraded
	t.rpcs += o.rpcs
	t.reintegrated += o.reintegrated
}

// runWindow drives len(ops) closed-loop callers for d and marks resource
// use at slice boundaries. ops[i] issues caller i's next operation; recs[i]
// is its span recorder (nil entries, or nil recs, for an untraced window).
func runWindow(d time.Duration, slices int, ops []func(*recorder) opResult, recs []*recorder) *window {
	type workerOut struct {
		samples  []sample
		fails    [numFailKinds]int64
		firstErr error
		reports  reportTally
	}
	outs := make([]workerOut, len(ops))
	mark := func(start time.Time) usageMark {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return usageMark{
			atNs: int64(time.Since(start)), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		}
	}

	runtime.GC()
	start := time.Now()
	deadline := start.Add(d)
	w := &window{marks: []usageMark{mark(start)}}
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := &outs[i]
			var rec *recorder
			if recs != nil {
				rec = recs[i]
			}
			for time.Now().Before(deadline) {
				r := ops[i](rec)
				if r.fail != failNone {
					out.fails[r.fail]++
					if out.firstErr == nil {
						out.firstErr = r.err
					}
					// An instantly failing operation must not spin the
					// closed loop into millions of junk failures.
					time.Sleep(time.Millisecond)
					continue
				}
				out.reports.add(r.report)
				out.samples = append(out.samples, sample{
					endUs: uint32(time.Since(start) / time.Microsecond), opNs: clampNs(r.opNs), beginNs: clampNs(r.beginNs),
				})
			}
		}(i)
	}
	for s := 1; s < slices; s++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(s) / time.Duration(slices))))
		w.marks = append(w.marks, mark(start))
	}
	wg.Wait()
	w.marks = append(w.marks, mark(start))
	w.elapsed = time.Since(start)

	for i := range outs {
		w.samples = append(w.samples, outs[i].samples...)
		for k, n := range outs[i].fails {
			w.fails[k] += n
		}
		if w.firstErr == nil {
			w.firstErr = outs[i].firstErr
		}
		w.reports.merge(outs[i].reports)
	}
	sort.Slice(w.samples, func(a, b int) bool { return w.samples[a].endUs < w.samples[b].endUs })
	return w
}

func (w *window) failed() int64 {
	var n int64
	for _, k := range w.fails {
		n += k
	}
	return n
}

// sliceStats is one slice of the window reduced to its rate and latency
// figures.
type sliceStats struct {
	opsPerSec, opP50, opP99, beginP50 float64 // latencies in µs
}

// perOp is the window's resource use per verified operation: totals over
// the whole window, because counts add up and a median over slices would
// flip between regimes (slices with and without decision-cache misses).
func (w *window) perOp() (cpuUs, allocs, allocKB float64) {
	first, last := w.marks[0], w.marks[len(w.marks)-1]
	ops := float64(len(w.samples))
	if ops == 0 {
		return 0, 0, 0
	}
	return float64(last.cpu-first.cpu) / 1e3 / ops,
		float64(last.mallocs-first.mallocs) / ops,
		float64(last.bytes-first.bytes) / 1024 / ops
}

// perSlice reduces each slice between consecutive marks. The reported rate
// and latency figures are medians over slices, which a scheduler hiccup
// landing in one slice does not move.
func (w *window) perSlice() []sliceStats {
	var out []sliceStats
	next := 0
	for m := 1; m < len(w.marks); m++ {
		lo, hi := w.marks[m-1], w.marks[m]
		first := next
		for next < len(w.samples) && int64(w.samples[next].endUs)*1000 <= hi.atNs {
			next++
		}
		part := w.samples[first:next]
		if len(part) == 0 {
			continue
		}
		opLat := make([]float64, len(part))
		beginLat := make([]float64, len(part))
		for i, s := range part {
			opLat[i] = float64(s.opNs) / 1e3
			beginLat[i] = float64(s.beginNs) / 1e3
		}
		sort.Float64s(opLat)
		sort.Float64s(beginLat)
		out = append(out, sliceStats{
			opsPerSec: float64(len(part)) / (float64(hi.atNs-lo.atNs) / 1e9),
			opP50:     percentile(opLat, 0.50),
			opP99:     percentile(opLat, 0.99),
			beginP50:  percentile(beginLat, 0.50),
		})
	}
	return out
}

// medianOf reduces the slices to one figure.
func medianOf(slices []sliceStats, field func(sliceStats) float64) float64 {
	vs := make([]float64, len(slices))
	for i, s := range slices {
		vs[i] = field(s)
	}
	return median(vs)
}

// sliceCount picks how many slices a window of d is cut into: ten for a
// full-length run, fewer when a short run would leave slices too thin for
// a p99.
func sliceCount(d time.Duration) int {
	n := int(d / (500 * time.Millisecond))
	if n < 1 {
		return 1
	}
	if n > 10 {
		return 10
	}
	return n
}
