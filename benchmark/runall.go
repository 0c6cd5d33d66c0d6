package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runEnv records where a result set was measured.
type runEnv struct {
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
}

// runRecord is one child run inside a result set.
type runRecord struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     int       `json:"trace"`
	InputHash string    `json:"input_hash"`
	Result    runResult `json:"result"`
}

// resultSet is what a run of every workload writes and -compare reads.
type resultSet struct {
	Env  runEnv      `json:"env"`
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload in fresh child processes (so each one's peak
// RSS, heap and caches are its own): runs end-to-end passes at consecutive
// seeds, then one traced pass, and writes the result set to out.
func runAll(seed uint64, seconds float64, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	set := resultSet{Env: runEnv{
		Seed: seed, Seconds: seconds, Runs: runs,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Started: time.Now().UTC().Format(time.RFC3339),
	}}
	for _, workload := range workloadNames {
		for i := 0; i <= runs; i++ {
			s, trace := seed+uint64(i), 0
			if i == runs {
				s, trace = seed, 1 // the per-layer pass, after the untraced runs
			}
			res, err := runChild(self, workload, s, seconds, trace)
			if err != nil {
				return fmt.Errorf("%s seed %d trace %d: %w", workload, s, trace, err)
			}
			set.Runs = append(set.Runs, runRecord{
				Workload: workload, Seed: s, Trace: trace,
				InputHash: fmt.Sprintf("%016x", inputHash(workload, s)), Result: res,
			})
		}
	}
	printSet(set)
	buf, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return fmt.Errorf("encode result set: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return fmt.Errorf("create %s: %w", filepath.Dir(out), err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result set: %w", err)
	}
	fmt.Printf("result set written to %s\n", out)
	return nil
}

// runChild runs one workload pass in a child process and parses the result
// from the last line of its output. A child that ran but failed its checks
// still yields its result, with the failure as the error.
func runChild(self, workload string, seed uint64, seconds float64, trace int) (runResult, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("child printed no result: %w", err)
	}
	return res, runErr
}

// commit names the source revision when the checkout is a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printSet prints every metric of every workload by name with its unit: the
// median over the untraced runs, then the traced pass's per-layer figures.
func printSet(set resultSet) {
	for _, workload := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			values := set.values(workload, trace)
			names := sortedKeys(values)
			if len(names) == 0 {
				continue
			}
			fmt.Printf("%s — %s (median of %d)\n", workload, [2]string{"end to end", "per layer"}[trace], len(values[names[0]]))
			for _, name := range names {
				fmt.Printf("  %-36s %14.4f %s\n", name, median(values[name]), set.unit(name))
			}
		}
	}
}

// values gathers, per metric, one workload's values over the runs of one
// pass.
func (s resultSet) values(workload string, trace int) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		for name, m := range r.Result.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

func (s resultSet) unit(metric string) string {
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok {
			return m.Unit
		}
	}
	return ""
}
