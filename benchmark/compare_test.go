package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	lower := contractMetric{Name: "op_p50_us", Better: "lower", Bound: 0.07}
	higher := contractMetric{Name: "ops_per_s", Better: "higher", Bound: 0.07}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name string
		m    contractMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"5% slower is inside 7%", lower, steady, scale(steady, 1.05), verdictWithin},
		{"10% slower", lower, steady, scale(steady, 1.10), verdictRegressed},
		{"10% faster", lower, steady, scale(steady, 0.90), verdictWithin},
		{"throughput down 10%", higher, steady, scale(steady, 0.90), verdictRegressed},
		{"throughput up 10%", higher, steady, scale(steady, 1.10), verdictWithin},
		{"spread wider than the bound", lower, noisy, noisy, verdictUnresolved},
		{"wide spread but every run better", lower, scale(noisy, 10), noisy, verdictWithin},
	} {
		if got := compareMetric(tc.m, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestRunCompareReadsContractAndSets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		buf, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	contract := write("contract.json", contractFile{EndToEnd: []contractMetric{
		{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.07},
	}})
	set := func(p50 float64) resultSet {
		var s resultSet
		for _, w := range workloadNames {
			for seed := uint64(1); seed <= 3; seed++ {
				s.Runs = append(s.Runs, runRecord{Workload: w, Seed: seed, Result: runResult{
					Correct: true, Metrics: map[string]metricValue{"op_p50_us": {p50 + float64(seed), "us"}},
				}})
			}
		}
		return s
	}
	a, same, slow := write("a.json", set(100)), write("b.json", set(101)), write("c.json", set(120))

	var out bytes.Buffer
	if err := runCompare(contract, []string{a, same}, &out); err != nil {
		t.Fatalf("comparing like with like: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), verdictWithin); n != len(workloadNames) {
		t.Errorf("want %d %q verdicts, got %d:\n%s", len(workloadNames), verdictWithin, n, out.String())
	}
	out.Reset()
	err := runCompare(contract, []string{a, slow}, &out)
	if !errors.Is(err, errNotWithin) {
		t.Fatalf("a 20%% slowdown returned %v, want errNotWithin", err)
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no %q verdict in:\n%s", verdictRegressed, out.String())
	}
}
