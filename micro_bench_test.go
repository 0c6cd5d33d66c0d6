package spectra_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"spectra/internal/apps/janus"
	"spectra/internal/predict"
	"spectra/internal/rpc"
	"spectra/internal/solver"
	"spectra/internal/testbed"
	"spectra/internal/wire"

	spectrapub "spectra"
)

// --- Hot-path micro-benchmarks --------------------------------------------

// benchSpeechApp assembles the trained speech workload for Begin
// micro-benchmarks: the testbed, the janus app, and three forced training
// passes over each alternative so decisions are self-tuned.
func benchSpeechApp(b *testing.B, opts testbed.Options) (*testbed.Speech, *janus.App) {
	b.Helper()
	tb, err := testbed.NewSpeech(opts)
	if err != nil {
		b.Fatal(err)
	}
	app, err := janus.Install(tb.Setup)
	if err != nil {
		b.Fatal(err)
	}
	tb.Setup.Refresh()
	alts := []solver.Alternative{
		{Plan: janus.PlanLocal, Fidelity: map[string]string{janus.FidelityDim: janus.VocabFull}},
		{Server: "t20", Plan: janus.PlanHybrid, Fidelity: map[string]string{janus.FidelityDim: janus.VocabFull}},
		{Server: "t20", Plan: janus.PlanRemote, Fidelity: map[string]string{janus.FidelityDim: janus.VocabFull}},
	}
	for i := 0; i < 3; i++ {
		for _, alt := range alts {
			if _, err := app.RecognizeForced(alt, 2); err != nil {
				b.Fatal(err)
			}
		}
	}
	return tb, app
}

// runBeginLoop is the measured Begin/Abort loop shared by the solver-path
// and warm-path benchmarks.
func runBeginLoop(b *testing.B, tb *testbed.Speech, app *janus.App) {
	b.Helper()
	params := map[string]float64{janus.ParamLength: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		octx, err := tb.Setup.Client.BeginFidelityOp(app.Operation(), params, "")
		if err != nil {
			b.Fatal(err)
		}
		octx.Abort()
	}
}

// BenchmarkBeginFidelityOp measures one full placement decision on the
// trained speech workload: snapshot, file prediction, solve, consistency.
func BenchmarkBeginFidelityOp(b *testing.B) {
	tb, app := benchSpeechApp(b, testbed.Options{})
	runBeginLoop(b, tb, app)
}

// BenchmarkBeginFidelityOpWarm measures the same Begin with the
// placement-decision cache enabled: after the first solve, every iteration
// is a warm hit — fingerprint comparison instead of predict + search. The
// virtual clock is frozen during the loop, so neither the snapshot TTL nor
// the decision TTL expires; the ratio to BenchmarkBeginFidelityOp is the
// cache's speedup.
func BenchmarkBeginFidelityOpWarm(b *testing.B) {
	tb, app := benchSpeechApp(b, testbed.Options{
		Cache:       spectrapub.CacheOptions{Enabled: true},
		SnapshotTTL: time.Hour,
	})
	runBeginLoop(b, tb, app)
}

// BenchmarkSolverHeuristic97 measures the search alone over the Pangloss
// decision space with a synthetic utility.
func BenchmarkSolverHeuristic97(b *testing.B) {
	alts := panglossSpace()
	eval := func(a solver.Alternative) float64 {
		return float64(len(a.Plan)) + float64(len(a.Server))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.Heuristic(alts, eval, solver.Options{})
	}
}

// BenchmarkSolverExhaustive97 is the oracle counterpart.
func BenchmarkSolverExhaustive97(b *testing.B) {
	alts := panglossSpace()
	eval := func(a solver.Alternative) float64 {
		return float64(len(a.Plan)) + float64(len(a.Server))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.Exhaustive(alts, eval)
	}
}

func panglossSpace() []solver.Alternative {
	var alts []solver.Alternative
	for _, s := range []string{"a", "b"} {
		for _, p := range []string{"p1", "p2", "p3", "p4"} {
			for _, f := range []string{"x", "y", "z"} {
				alts = append(alts, solver.Alternative{
					Server:   s,
					Plan:     p,
					Fidelity: map[string]string{"f": f},
				})
			}
		}
	}
	return alts
}

// BenchmarkLinearModelObserve measures one online regression update.
func BenchmarkLinearModelObserve(b *testing.B) {
	m := predict.NewLinearModel([]string{"a", "b", "c"})
	params := map[string]float64{"a": 1, "b": 2, "c": 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(params, float64(i))
	}
}

// BenchmarkLinearModelPredict measures one regression solve + evaluate.
func BenchmarkLinearModelPredict(b *testing.B) {
	m := predict.NewLinearModel([]string{"a", "b", "c"})
	params := map[string]float64{"a": 1, "b": 2, "c": 3}
	for i := 0; i < 100; i++ {
		params["a"] = float64(i)
		m.Observe(params, float64(3*i+7))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(params)
	}
}

// BenchmarkTrafficEstimate measures one bandwidth/latency fit over a full
// observation window.
func BenchmarkTrafficEstimate(b *testing.B) {
	l := rpc.NewTrafficLog()
	for i := 0; i < rpc.DefaultLogWindow; i++ {
		l.Record(rpc.TrafficObservation{
			Bytes:   int64(1000 * (i + 1)),
			Elapsed: time.Duration(i+1) * time.Millisecond,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := l.Estimate(); !ok {
			b.Fatal("no estimate")
		}
	}
}

// benchWireSizes runs fn once per payload size as a sub-benchmark, with
// throughput reported against the payload bytes each iteration moves.
func benchWireSizes(b *testing.B, fn func(b *testing.B, msg *wire.Message)) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"64B", 64}, {"1KiB", 1 << 10}, {"64KiB", 64 << 10}} {
		b.Run(size.name, func(b *testing.B) {
			msg := &wire.Message{
				Type:     wire.MsgRequest,
				ID:       1,
				Service:  "svc",
				OpType:   "op",
				Payload:  make([]byte, size.bytes),
				Deadline: wire.NewDeadlineContext(100 * time.Millisecond),
			}
			b.ReportAllocs()
			b.SetBytes(int64(size.bytes))
			fn(b, msg)
		})
	}
}

// BenchmarkWireEncode measures framing a request into an in-memory writer.
func BenchmarkWireEncode(b *testing.B) {
	benchWireSizes(b, func(b *testing.B, msg *wire.Message) {
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if _, err := wire.WriteMessage(&buf, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireDecode measures reading the same frame back.
func BenchmarkWireDecode(b *testing.B) {
	benchWireSizes(b, func(b *testing.B, msg *wire.Message) {
		var buf bytes.Buffer
		if _, err := wire.WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		r := bytes.NewReader(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(buf.Bytes())
			if _, _, err := wire.ReadMessage(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireRoundTrip measures message encode+decode.
func BenchmarkWireRoundTrip(b *testing.B) {
	benchWireSizes(b, func(b *testing.B, msg *wire.Message) {
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if _, err := wire.WriteMessage(&buf, msg); err != nil {
				b.Fatal(err)
			}
			if _, _, err := wire.ReadMessage(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLiveRPCRoundTrip measures a real loopback Spectra RPC.
func BenchmarkLiveRPCRoundTrip(b *testing.B) {
	machine := spectrapub.NewMachine(spectrapub.MachineConfig{
		Name: "bench", SpeedMHz: 1_000_000, OnWallPower: true,
	})
	node := spectrapub.NewNode(machine, nil, nil)
	srv := spectrapub.NewServer("bench", node, spectrapub.RealClock{})
	srv.Register("echo", func(ctx *spectrapub.ServiceContext, optype string, payload []byte) ([]byte, error) {
		return payload, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := client.CallContext(context.Background(), "echo", "op", payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}
