package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs both passes of all four workloads on a 200 ms
// window: every operation must verify, and the metric names must be exactly
// the ones BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	var contract struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := loadJSON(contractPath, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloadNames) {
		t.Fatalf("contract declares %d workloads, the benchmark has %d", len(contract.Workloads), len(workloadNames))
	}
	// The traced pass writes its spans under ./out; keep the test's there too
	// (it is untracked) but clean up what this run adds.
	t.Cleanup(func() {
		for _, w := range workloadNames {
			os.Remove(filepath.Join("out", "trace-"+w+".json"))
		}
	})
	const window = 200 * time.Millisecond
	for i, w := range contract.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("contract workload %d is %q, the benchmark's is %q", i, w.Name, workloadNames[i])
			continue
		}
		b, err := newBench(w.Name, 11)
		if err != nil {
			t.Fatal(err)
		}
		for pass, declared := range [][]struct{ Name, Unit string }{contract.EndToEnd, contract.PerLayer} {
			run := b.runEndToEnd
			if pass == 1 {
				run = b.runTraced
			}
			res, err := run(window)
			if err != nil {
				t.Fatalf("%s pass %d: %v", w.Name, pass, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s pass %d: correct=%v attempted=%d failed=%d", w.Name, pass, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s pass %d: %d metrics reported, %d declared", w.Name, pass, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				got, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s pass %d: declared metric %q not reported", w.Name, pass, d.Name)
				} else if got.Unit != d.Unit {
					t.Errorf("%s: metric %q has unit %q, declared %q", w.Name, d.Name, got.Unit, d.Unit)
				}
			}
		}
	}
}
