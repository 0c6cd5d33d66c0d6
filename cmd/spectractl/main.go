// Command spectractl inspects and exercises a running spectrad server: the
// RPC commands (status, ping, work) talk to the spectrad RPC port, and the
// observability commands (traces, top, accuracy, timeseries) read either a
// live /debug endpoint or a flight-recorder JSONL file.
//
// Usage:
//
//	spectractl -server 127.0.0.1:7009 status
//	spectractl -server 127.0.0.1:7009 -timeout 5s ping
//	spectractl -server 127.0.0.1:7009 work -mc 500
//	spectractl -debug 127.0.0.1:6060 traces -n 3
//	spectractl -file spectrad.jsonl top
//	spectractl -debug 127.0.0.1:6060 accuracy
//	spectractl -debug 127.0.0.1:6060 timeseries -series local.cpu.availMHz
//
// Exit codes: 1 usage or local failure, 2 could not dial the server, 3 the
// server was reached but the call failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"spectra/internal/obs"
	"spectra/internal/rpc"
	"spectra/internal/wire"
)

// Exit codes (beyond the usual 0/1).
const (
	exitDial = 2 // could not establish a connection to the server
	exitCall = 3 // connected, but the exchange failed
)

func main() {
	opts := options{out: os.Stdout}
	flag.StringVar(&opts.server, "server", "127.0.0.1:7009", "spectrad RPC address (status, ping, work)")
	flag.DurationVar(&opts.timeout, "timeout", 10*time.Second, "per-exchange RPC deadline")
	flag.StringVar(&opts.debug, "debug", "", "debug endpoint (host:port or URL) for traces, top, accuracy, timeseries")
	flag.StringVar(&opts.file, "file", "", "flight-recorder JSONL file for traces and top")
	flag.Parse()

	if err := run(opts, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "spectractl:", err)
		os.Exit(exitCode(err))
	}
}

// options carries the global flags; out is swapped by tests.
type options struct {
	server  string
	timeout time.Duration
	debug   string
	file    string
	out     io.Writer
}

// exitCode classifies a failure: dial failures (the server could not be
// reached at all) exit 2, call failures (reached, then the exchange or the
// service failed) exit 3, everything else 1.
func exitCode(err error) int {
	var terr *rpc.TransportError
	if errors.As(err, &terr) {
		if terr.Op == "dial" {
			return exitDial
		}
		return exitCall
	}
	var rerr *rpc.RemoteError
	if errors.As(err, &rerr) {
		return exitCall
	}
	return 1
}

func run(opts options, args []string) error {
	if opts.out == nil {
		opts.out = os.Stdout
	}
	if len(args) == 0 {
		return errors.New("usage: spectractl [flags] {status|ping|work|traces|top|accuracy|timeseries}")
	}
	switch args[0] {
	case "status", "ping", "work":
		client, err := rpc.Dial(opts.server, nil)
		if err != nil {
			return err
		}
		defer client.Close()
		client.SetTimeout(opts.timeout)
		switch args[0] {
		case "status":
			return status(opts.out, client)
		case "ping":
			return ping(opts.out, client)
		default:
			return work(opts.out, client, args[1:])
		}
	case "traces":
		return traces(opts, args[1:])
	case "top":
		return top(opts, args[1:])
	case "accuracy":
		return accuracy(opts)
	case "timeseries":
		return timeseries(opts, args[1:])
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func status(out io.Writer, client *rpc.Client) error {
	st, err := client.StatusContext(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "server:      %s\n", st.Name)
	fmt.Fprintf(out, "cpu:         %.0f MHz (%.0f MHz available, load %.2f)\n",
		st.SpeedMHz, st.AvailMHz, st.LoadFraction)
	fmt.Fprintf(out, "fetch rate:  %.0f B/s\n", st.FetchRateBps)
	fmt.Fprintf(out, "services:    %v\n", st.Services)
	if len(st.CachedFiles) > 0 {
		fmt.Fprintf(out, "cached:      %d files\n", len(st.CachedFiles))
	}
	return nil
}

func ping(out io.Writer, client *rpc.Client) error {
	const count = 5
	var total time.Duration
	for i := 0; i < count; i++ {
		d, err := client.PingContext(context.Background())
		if err != nil {
			return err
		}
		total += d
		fmt.Fprintf(out, "ping %d: %v\n", i+1, d.Round(time.Microsecond))
	}
	fmt.Fprintf(out, "mean: %v\n", (total / count).Round(time.Microsecond))
	return nil
}

func work(out io.Writer, client *rpc.Client, args []string) error {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	mc := fs.Uint64("mc", 100, "megacycles of work to request")
	fp := fs.Bool("fp", false, "request floating-point work")
	if err := fs.Parse(args); err != nil {
		return err
	}
	payload := wire.WorkRequest{Megacycles: *mc, FloatingPoint: *fp}.Encode()
	start := time.Now()
	_, usage, _, err := client.CallContext(context.Background(), "spectra.work", "run", payload, nil)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "executed %d Mc in %v", *mc, elapsed.Round(time.Millisecond))
	if usage != nil {
		fmt.Fprintf(out, " (server reports %.0f Mc consumed)", usage.CPUMegacycles)
	}
	fmt.Fprintln(out)
	return nil
}

// loadTraces reads decision traces from the -file JSONL flight recorder or
// the -debug endpoint's /debug/traces route.
func loadTraces(opts options) ([]*obs.DecisionTrace, error) {
	if opts.file != "" {
		traces, skipped, err := obs.ReadTraceFile(opts.file)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			fmt.Fprintf(opts.out, "(%d unparsable lines skipped)\n", skipped)
		}
		return traces, nil
	}
	if opts.debug != "" {
		var traces []*obs.DecisionTrace
		if err := fetchJSON(opts.debug, "/debug/traces", &traces); err != nil {
			return nil, err
		}
		return traces, nil
	}
	return nil, errors.New("traces need -file FILE.jsonl or -debug ADDR")
}

func traces(opts options, args []string) error {
	fs := flag.NewFlagSet("traces", flag.ContinueOnError)
	n := fs.Int("n", 5, "show the newest N traces (0 = all)")
	op := fs.String("op", "", "only traces of this operation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	all, err := loadTraces(opts)
	if err != nil {
		return err
	}
	if *op != "" {
		kept := all[:0:0]
		for _, t := range all {
			if t.Operation == *op {
				kept = append(kept, t)
			}
		}
		all = kept
	}
	if *n > 0 && len(all) > *n {
		all = all[len(all)-*n:]
	}
	if len(all) == 0 {
		fmt.Fprintln(opts.out, "no traces")
		return nil
	}
	for _, t := range all {
		printTrace(opts.out, t)
	}
	return nil
}

// printTrace pretty-prints one decision trace with its span tree.
func printTrace(out io.Writer, t *obs.DecisionTrace) {
	headline := fmt.Sprintf("#%d %s", t.OpID, t.Operation)
	if t.Forced {
		headline += " (forced)"
	}
	if t.Aborted {
		headline += " (aborted)"
	}
	fmt.Fprintf(out, "%s\n", headline)
	fmt.Fprintf(out, "  begin=%s elapsed=%v", t.Begin.Format(time.RFC3339Nano), t.End.Sub(t.Begin).Round(time.Microsecond))
	chosen := t.Chosen.Plan
	if t.Chosen.Server != "" {
		chosen = t.Chosen.Server + "/" + chosen
	}
	if chosen != "" {
		fmt.Fprintf(out, " chosen=%s", chosen)
	}
	if t.Candidates > 0 {
		fmt.Fprintf(out, " candidates=%d evals=%d", t.Candidates, t.Evaluations)
	}
	if t.SnapshotSeq > 0 {
		fmt.Fprintf(out, " snapshotSeq=%d", t.SnapshotSeq)
	}
	fmt.Fprintln(out)
	if len(t.PredictionError) > 0 {
		keys := make([]string, 0, len(t.PredictionError))
		for k := range t.PredictionError {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%.2f", k, t.PredictionError[k]))
		}
		fmt.Fprintf(out, "  prediction error: %s\n", strings.Join(parts, " "))
	}
	for _, f := range t.Failovers {
		to := f.To
		if to == "" {
			to = "(local)"
		}
		fmt.Fprintf(out, "  failover: %s %s -> %s\n", f.OpType, f.From, to)
	}
	if len(t.Spans) > 0 {
		fmt.Fprintln(out, "  spans:")
		printSpanTree(out, t, -1, 2)
	}
}

// printSpanTree prints the spans whose Parent is parent, indented, then
// recurses into each one's children.
func printSpanTree(out io.Writer, t *obs.DecisionTrace, parent, depth int) {
	for _, s := range t.Spans {
		if s.Parent != parent {
			continue
		}
		label := s.Name
		if s.Origin != "" {
			label += " [" + s.Origin + "]"
		}
		fmt.Fprintf(out, "%s%-*s +%v %v\n",
			strings.Repeat("  ", depth),
			30-2*depth, label,
			s.Start.Sub(t.Begin).Round(time.Microsecond),
			s.Cost().Round(time.Microsecond))
		printSpanTree(out, t, s.ID, depth+1)
	}
}

// top aggregates span costs across traces: the slowest phases by total
// time, with counts and per-span mean and max. Against a live debug
// endpoint it leads with the tail-control gauges — queue depth next to the
// deadline shed and hedge rates — so one screen answers whether the tail
// is being managed (hedges winning, expired work shed) or merely suffered.
func top(opts options, args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	n := fs.Int("n", 10, "show the N costliest phases")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opts.debug != "" {
		var snap obs.RegistrySnapshot
		if err := fetchJSON(opts.debug, "/debug/metrics", &snap); err != nil {
			fmt.Fprintf(opts.out, "metrics unavailable: %v\n", err)
		} else {
			fmt.Fprintf(opts.out,
				"queue depth %.0f  deadline shed %d  expired %d  hedges %d (wins %d)  pool exhausted %d\n",
				snap.Gauges[obs.MServerQueueDepth],
				snap.Counters[obs.MServerDeadlineShed],
				snap.Counters[obs.MDeadlineExceeded],
				snap.Counters[obs.MHedgeLaunched],
				snap.Counters[obs.MHedgeWins],
				snap.Counters[obs.MPoolExhausted])
			fmt.Fprintf(opts.out,
				"decision cache: hits %d  misses %d  bypass %d  invalidations %d  entries %.0f\n\n",
				snap.Counters[obs.MDecisionCacheHits],
				snap.Counters[obs.MDecisionCacheMisses],
				snap.Counters[obs.MDecisionCacheBypass],
				snap.Counters[obs.MDecisionCacheInvalidations],
				snap.Gauges[obs.MDecisionCacheEntries])
		}
	}
	all, err := loadTraces(opts)
	if err != nil {
		return err
	}
	type agg struct {
		name  string
		count int
		total time.Duration
		max   time.Duration
	}
	byName := make(map[string]*agg)
	for _, t := range all {
		for _, s := range t.Spans {
			key := s.Name
			if s.Origin != "" {
				key = s.Name + " [" + s.Origin + "]"
			}
			a, ok := byName[key]
			if !ok {
				a = &agg{name: key}
				byName[key] = a
			}
			cost := s.Cost()
			a.count++
			a.total += cost
			if cost > a.max {
				a.max = cost
			}
		}
	}
	if len(byName) == 0 {
		fmt.Fprintln(opts.out, "no spans")
		return nil
	}
	rows := make([]*agg, 0, len(byName))
	for _, a := range byName {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	if *n > 0 && len(rows) > *n {
		rows = rows[:*n]
	}
	fmt.Fprintf(opts.out, "%-32s %8s %12s %12s %12s\n", "span", "count", "total", "mean", "max")
	for _, a := range rows {
		mean := a.total / time.Duration(a.count)
		fmt.Fprintf(opts.out, "%-32s %8d %12v %12v %12v\n",
			a.name, a.count,
			a.total.Round(time.Microsecond),
			mean.Round(time.Microsecond),
			a.max.Round(time.Microsecond))
	}
	return nil
}

func accuracy(opts options) error {
	if opts.debug == "" {
		return errors.New("accuracy needs -debug ADDR")
	}
	var stats []obs.AccuracyStat
	if err := fetchJSON(opts.debug, "/debug/accuracy", &stats); err != nil {
		return err
	}
	if len(stats) == 0 {
		fmt.Fprintln(opts.out, "no accuracy data")
		return nil
	}
	fmt.Fprintf(opts.out, "%-32s %-12s %10s %8s\n", "operation", "resource", "relerr", "samples")
	for _, s := range stats {
		fmt.Fprintf(opts.out, "%-32s %-12s %10.3f %8d\n",
			s.Operation, s.Resource, s.MeanRelativeError, s.Samples)
	}
	return nil
}

func timeseries(opts options, args []string) error {
	if opts.debug == "" {
		return errors.New("timeseries needs -debug ADDR")
	}
	fs := flag.NewFlagSet("timeseries", flag.ContinueOnError)
	series := fs.String("series", "", "print this series' points instead of the summary")
	n := fs.Int("n", 20, "points per series to fetch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := fmt.Sprintf("/debug/timeseries?n=%d", *n)
	if *series != "" {
		path += "&series=" + *series
	}
	var data map[string][]obs.TimeSeriesPoint
	if err := fetchJSON(opts.debug, path, &data); err != nil {
		return err
	}
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	if *series != "" {
		for _, name := range names {
			for _, p := range data[name] {
				fmt.Fprintf(opts.out, "%s seq=%d %s %g\n",
					name, p.Seq, p.When.Format(time.RFC3339Nano), p.Value)
			}
		}
		return nil
	}
	if len(names) == 0 {
		fmt.Fprintln(opts.out, "no series")
		return nil
	}
	fmt.Fprintf(opts.out, "%-36s %8s %14s\n", "series", "points", "latest")
	for _, name := range names {
		pts := data[name]
		latest := "-"
		if len(pts) > 0 {
			latest = fmt.Sprintf("%g", pts[len(pts)-1].Value)
		}
		fmt.Fprintf(opts.out, "%-36s %8d %14s\n", name, len(pts), latest)
	}
	return nil
}

// fetchJSON GETs path from the debug endpoint (host:port or full URL) and
// decodes the JSON body.
func fetchJSON(base, path string, v any) error {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimSuffix(base, "/") + path
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
