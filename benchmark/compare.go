package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// contractMetric is one end_to_end entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractFile struct {
	EndToEnd []contractMetric `json:"end_to_end"`
}

// Verdicts of a comparison.
const (
	verdictWithin     = "within"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one metric of one workload in two result sets.
type comparison struct {
	medianA, medianB float64
	// worse is how far B's median is on the wrong side of A's, as a share of
	// A's median (negative when B is better).
	worse float64
	// spread is the wider of the two sets' interquartile range over median.
	spread  float64
	verdict string
}

// compareMetric applies one metric's direction and bound to two sets of
// runs. A spread wider than the bound cannot support "unchanged", so the
// metric is unresolved unless every run of B reads better than every run of
// A; otherwise B's median may be worse than A's by at most the bound.
func compareMetric(m contractMetric, a, b []float64) comparison {
	c := comparison{medianA: median(a), medianB: median(b)}
	sign := 1.0 // lower is better: B − A > 0 is worse
	if m.Better == "higher" {
		sign = -1
	}
	if c.medianA != 0 {
		c.worse = sign * (c.medianB - c.medianA) / math.Abs(c.medianA)
	}
	c.spread = max(relativeSpread(a), relativeSpread(b))
	switch {
	case c.spread > m.Bound && !allBetter(sign, a, b):
		c.verdict = verdictUnresolved
	case c.worse > m.Bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictWithin
	}
	return c
}

// relativeSpread is the distance between the first and third quartile as a
// share of the median, the driver's measure of run-to-run spread.
func relativeSpread(vs []float64) float64 {
	med := median(vs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(med)
}

// allBetter reports whether every value of b is better than every value of
// a (sign +1: lower is better).
func allBetter(sign float64, a, b []float64) bool {
	worstB, bestA := sign*b[0], sign*a[0]
	for _, v := range b {
		worstB = max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = min(bestA, sign*v)
	}
	return worstB < bestA
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadJSON(path string, into any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// errNotWithin is returned by -compare when some metric regressed or could
// not be resolved, so scripts can gate on the exit code.
var errNotWithin = errors.New("compare: not every metric is within its bound")

// runCompare prints, for every workload and end-to-end metric, both
// medians, B over A, the spread, and the verdict under the contract's
// bound. paths are the two result sets, A (the base) then B.
func runCompare(contractPath string, paths []string, w io.Writer) error {
	if len(paths) != 2 {
		return errors.New("usage: -compare A.json B.json")
	}
	var contract contractFile
	if err := loadJSON(contractPath, &contract); err != nil {
		return fmt.Errorf("contract: %w", err)
	}
	var a, b resultSet
	if err := loadJSON(paths[0], &a); err != nil {
		return err
	}
	if err := loadJSON(paths[1], &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (commit %s, %d runs)\nB = %s (commit %s, %d runs)\n",
		paths[0], a.Env.Commit, a.Env.Runs, paths[1], b.Env.Commit, b.Env.Runs)
	bad := 0
	for _, workload := range workloadNames {
		va, vb := a.values(workload, 0), b.values(workload, 0)
		fmt.Fprintf(w, "%s\n  %-26s %-6s %12s %12s %8s %8s %7s  %s\n", workload,
			"metric", "unit", "median A", "median B", "B/A", "spread", "bound", "verdict")
		for _, m := range contract.EndToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				fmt.Fprintf(w, "  %-26s missing from a result set\n", m.Name)
				bad++
				continue
			}
			c := compareMetric(m, va[m.Name], vb[m.Name])
			if c.verdict != verdictWithin {
				bad++
			}
			fmt.Fprintf(w, "  %-26s %-6s %12.4f %12.4f %8.4f %8.4f %7.3f  %s\n",
				m.Name, m.Unit, c.medianA, c.medianB, c.medianB/c.medianA, c.spread, m.Bound, c.verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%w (%d are not)", errNotWithin, bad)
	}
	return nil
}
