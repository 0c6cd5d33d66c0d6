package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spectra"
	"spectra/internal/obs"
	"spectra/internal/rpc"
	"spectra/internal/sim"
)

// startServer runs an in-process spectrad-equivalent for spectractl tests,
// returning the RPC address and an observer with a retained-trace sink and
// time-series recorder serving the debug endpoint.
func startServer(t *testing.T) (addr, debugAddr string) {
	t.Helper()
	machine := spectra.NewMachine(spectra.MachineConfig{
		Name: "ctl-test", SpeedMHz: 50_000, OnWallPower: true,
	})
	node := spectra.NewNode(machine, nil, nil)
	srv := spectra.NewServer("ctl-test", node, sim.RealClock{})
	srv.Register("spectra.work", func(ctx *spectra.ServiceContext, optype string, payload []byte) ([]byte, error) {
		ctx.Compute(spectra.ComputeDemand{IntegerMegacycles: 10})
		return []byte("done"), nil
	})

	o := spectra.NewObserver()
	o.Sink = spectra.NewMemoryTraceSink(64)
	o.TimeSeries = obs.NewTimeSeriesRecorder(0)
	o.TimeSeries.RecordValue("local.cpu.availMHz", time.Now(), 50_000)
	srv.SetObserver(o)

	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	debugAddr, stop, err := o.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop() })
	return addr, debugAddr
}

// ctl runs spectractl with the given flags and returns its output.
func ctl(t *testing.T, opts options, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	opts.out = &buf
	if opts.timeout == 0 {
		opts.timeout = 5 * time.Second
	}
	err := run(opts, args)
	return buf.String(), err
}

func TestCtlStatus(t *testing.T) {
	addr, _ := startServer(t)
	out, err := ctl(t, options{server: addr}, "status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ctl-test") {
		t.Fatalf("status output missing server name:\n%s", out)
	}
}

func TestCtlPing(t *testing.T) {
	addr, _ := startServer(t)
	out, err := ctl(t, options{server: addr}, "ping")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mean:") {
		t.Fatalf("ping output missing mean:\n%s", out)
	}
}

func TestCtlWork(t *testing.T) {
	addr, _ := startServer(t)
	if _, err := ctl(t, options{server: addr}, "work", "-mc", "10"); err != nil {
		t.Fatal(err)
	}
	out, err := ctl(t, options{server: addr}, "work", "-mc", "5", "-fp")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "executed 5 Mc") {
		t.Fatalf("work output missing summary:\n%s", out)
	}
}

func TestCtlErrors(t *testing.T) {
	addr, _ := startServer(t)
	if _, err := ctl(t, options{server: addr}); err == nil {
		t.Fatal("missing command accepted")
	}
	if _, err := ctl(t, options{server: addr}, "bogus"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := ctl(t, options{server: "127.0.0.1:1"}, "status"); err == nil {
		t.Fatal("dead server accepted")
	}
}

// TestCtlExitCodes pins the dial-versus-call exit-code split: an unreachable
// server is exit 2, a reachable server rejecting the call is exit 3, and
// usage errors are exit 1.
func TestCtlExitCodes(t *testing.T) {
	addr, _ := startServer(t)
	_, err := ctl(t, options{server: "127.0.0.1:1"}, "status")
	if err == nil || exitCode(err) != exitDial {
		t.Fatalf("dial failure: got err=%v code=%d, want code %d", err, exitCode(err), exitDial)
	}
	// Unknown service: the server is reached, the call fails remotely.
	client, derr := rpc.Dial(addr, nil)
	if derr != nil {
		t.Fatal(derr)
	}
	defer client.Close()
	_, _, _, cerr := client.CallContext(context.Background(), "no.such.service", "run", nil, nil)
	if cerr == nil || exitCode(cerr) != exitCall {
		t.Fatalf("remote failure: got err=%v code=%d, want code %d", cerr, exitCode(cerr), exitCall)
	}
	_, uerr := ctl(t, options{}, "nope")
	if uerr == nil || exitCode(uerr) != 1 {
		t.Fatalf("usage error should exit 1, got %v", uerr)
	}
}

func TestCtlTracesFromDebugEndpoint(t *testing.T) {
	addr, debugAddr := startServer(t)
	// Drive a request so the server emits a trace with spans.
	if _, err := ctl(t, options{server: addr}, "work", "-mc", "5"); err != nil {
		t.Fatal(err)
	}
	out, err := ctl(t, options{debug: debugAddr}, "traces")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "spectra.work/run") {
		t.Fatalf("traces output missing the work trace:\n%s", out)
	}
	if !strings.Contains(out, "server.exec") {
		t.Fatalf("traces output missing server-side spans:\n%s", out)
	}
}

func TestCtlTracesFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.jsonl")
	sink, err := obs.NewJSONLSink(path, obs.JSONLSinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	sink.Emit(&obs.DecisionTrace{
		OpID:      7,
		Operation: "file-op",
		Begin:     begin,
		End:       begin.Add(40 * time.Millisecond),
		Spans: []obs.Span{
			{ID: 0, Parent: -1, Name: obs.SpanSolve, Start: begin, End: begin.Add(time.Millisecond)},
			{ID: 1, Parent: 0, Name: obs.SpanRPC, Start: begin.Add(time.Millisecond), End: begin.Add(30 * time.Millisecond)},
		},
	})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ctl(t, options{file: path}, "traces", "-op", "file-op")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"file-op", obs.SpanSolve, obs.SpanRPC} {
		if !strings.Contains(out, want) {
			t.Fatalf("traces output missing %q:\n%s", want, out)
		}
	}
	// The rpc span must be nested under solve (deeper indentation).
	if !strings.Contains(out, "      "+obs.SpanRPC) {
		t.Fatalf("rpc span not nested under parent:\n%s", out)
	}
}

func TestCtlTop(t *testing.T) {
	addr, debugAddr := startServer(t)
	for i := 0; i < 3; i++ {
		if _, err := ctl(t, options{server: addr}, "work", "-mc", "2"); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ctl(t, options{debug: debugAddr}, "top")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "server.exec") {
		t.Fatalf("top output missing server.exec aggregate:\n%s", out)
	}
	if !strings.Contains(out, "total") {
		t.Fatalf("top output missing header:\n%s", out)
	}
	// The live endpoint leads with the tail-control line: queue depth next
	// to the deadline shed and hedge rates.
	for _, want := range []string{"queue depth", "deadline shed", "hedges", "pool exhausted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("top output missing %q in the metrics header:\n%s", want, out)
		}
	}
	// And the decision-cache line, so a glance shows whether Begins are
	// warm or deliberating.
	for _, want := range []string{"decision cache", "hits", "entries"} {
		if !strings.Contains(out, want) {
			t.Fatalf("top output missing %q in the metrics header:\n%s", want, out)
		}
	}
}

func TestCtlTimeseries(t *testing.T) {
	_, debugAddr := startServer(t)
	out, err := ctl(t, options{debug: debugAddr}, "timeseries")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "local.cpu.availMHz") {
		t.Fatalf("timeseries summary missing series:\n%s", out)
	}
	out, err = ctl(t, options{debug: debugAddr}, "timeseries", "-series", "local.cpu.availMHz")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "seq=") {
		t.Fatalf("timeseries points missing seq:\n%s", out)
	}
}

func TestCtlAccuracyEmpty(t *testing.T) {
	_, debugAddr := startServer(t)
	out, err := ctl(t, options{debug: debugAddr}, "accuracy")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no accuracy data") && !strings.Contains(out, "operation") {
		t.Fatalf("unexpected accuracy output:\n%s", out)
	}
}

func TestCtlObsCommandsNeedSource(t *testing.T) {
	if _, err := ctl(t, options{}, "traces"); err == nil {
		t.Fatal("traces without -debug or -file accepted")
	}
	if _, err := ctl(t, options{}, "timeseries"); err == nil {
		t.Fatal("timeseries without -debug accepted")
	}
	if _, err := ctl(t, options{}, "accuracy"); err == nil {
		t.Fatal("accuracy without -debug accepted")
	}
}
