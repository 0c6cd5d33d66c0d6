package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"spectra/internal/coda"
	spectrarpc "spectra/internal/rpc"
	"spectra/internal/sim"
	"spectra/internal/solver"
	"spectra/internal/wire"
)

// liveWork is a toy service that sleeps according to the hosting machine's
// modeled speed: 30 Mc on a 1000 MHz server costs 30 ms of real time.
func liveWork(ctx *ServiceContext, optype string, payload []byte) ([]byte, error) {
	ctx.Compute(sim.ComputeDemand{IntegerMegacycles: 30})
	return []byte("done"), nil
}

// startLiveServer runs a spectrad-style server on a loopback port.
func startLiveServer(t *testing.T, name string, mhz float64) string {
	t.Helper()
	machine := sim.NewMachine(sim.MachineConfig{
		Name:        name,
		SpeedMHz:    mhz,
		OnWallPower: true,
	})
	node := NewNode(machine, coda.NewClient(name, coda.NewFileServer(), 0), nil)
	srv := NewServer(name, node, sim.RealClock{})
	srv.Register("toy", liveWork)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func newLiveClient(t *testing.T, servers map[string]string) *LiveSetup {
	t.Helper()
	host := sim.NewMachine(sim.MachineConfig{
		Name:        "client",
		SpeedMHz:    100, // ten times slower than the fast server
		Power:       sim.PowerModel{IdleW: 2, BusyW: 10, NetW: 3},
		OnWallPower: true,
		Battery:     sim.NewBattery(100_000),
	})
	setup, err := NewLiveSetup(LiveOptions{Host: host, Servers: servers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { setup.Runtime.Close() })
	setup.Host.RegisterService("toy", liveWork)
	return setup
}

func TestLiveEndToEndOffloading(t *testing.T) {
	addr := startLiveServer(t, "fast", 1000)
	setup := newLiveClient(t, map[string]string{"fast": addr})

	op, err := setup.Client.RegisterFidelity(OperationSpec{
		Name:    "toy.live",
		Service: "toy",
		Plans: []PlanSpec{
			{Name: "local"},
			{Name: "remote", UsesServer: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup.Client.PollServers()
	setup.Client.Probe()

	run := func(alt solver.Alternative) Report {
		t.Helper()
		octx, err := setup.Client.BeginForced(op, alt, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if alt.Plan == "remote" {
			_, err = octx.DoRemoteOp("run", []byte("x"))
		} else {
			_, err = octx.DoLocalOp("run", []byte("x"))
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, err := octx.End()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Train both plans over the real network.
	var local, remote Report
	for i := 0; i < 3; i++ {
		local = run(solver.Alternative{Plan: "local"})
		remote = run(solver.Alternative{Server: "fast", Plan: "remote"})
	}
	// Local: 30 Mc at 100 MHz = ~300 ms. Remote: ~30 ms + loopback RPC.
	if local.Elapsed < 200*time.Millisecond {
		t.Fatalf("local elapsed = %v, want ~300ms", local.Elapsed)
	}
	if remote.Elapsed >= local.Elapsed {
		t.Fatalf("remote %v should beat local %v", remote.Elapsed, local.Elapsed)
	}
	if remote.Usage.RemoteMegacycles != 30 {
		t.Fatalf("server-reported cycles = %v, want 30", remote.Usage.RemoteMegacycles)
	}
	if remote.Usage.RPCs != 1 || remote.Usage.BytesSent == 0 {
		t.Fatalf("remote usage = %+v", remote.Usage)
	}

	// Spectra's own decision must offload.
	octx, err := setup.Client.BeginFidelityOp(op, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := octx.Decision().Alternative; got.Plan != "remote" || got.Server != "fast" {
		t.Fatalf("live decision = %+v, want remote on fast", got)
	}
	octx.Abort()
}

func TestLiveServerStatusAndProbe(t *testing.T) {
	addr := startLiveServer(t, "srv", 500)
	setup := newLiveClient(t, map[string]string{"srv": addr})

	status, err := setup.Runtime.PollServer(context.Background(), "srv")
	if err != nil {
		t.Fatal(err)
	}
	if status.Name != "srv" || status.SpeedMHz != 500 {
		t.Fatalf("status = %+v", status)
	}
	foundToy := false
	for _, s := range status.Services {
		if s == "toy" {
			foundToy = true
		}
	}
	if !foundToy {
		t.Fatalf("services = %v, want toy", status.Services)
	}

	if err := setup.Runtime.Probe(context.Background(), "srv"); err != nil {
		t.Fatal(err)
	}
	if setup.Network.Log("srv").Len() < 2 {
		t.Fatal("probe produced no traffic observations")
	}
	est, ok := setup.Network.Log("srv").Estimate()
	if !ok || est.BandwidthBps <= 0 {
		t.Fatalf("estimate = %+v, %v", est, ok)
	}
}

func TestLiveUnreachableServer(t *testing.T) {
	setup := newLiveClient(t, map[string]string{"ghost": "127.0.0.1:1"})
	if _, err := setup.Runtime.PollServer(context.Background(), "ghost"); err == nil {
		t.Fatal("polling a dead server should fail")
	}
	setup.Client.PollServers() // must not panic; marks unreachable
	snap := setup.Client.Monitors().Snapshot(time.Now(), setup.Client.Servers())
	if snap.Network["ghost"].Reachable {
		t.Fatal("ghost marked reachable")
	}
}

func TestServiceLoop(t *testing.T) {
	loop := NewServiceLoop()
	machine := sim.NewMachine(sim.MachineConfig{Name: "m", SpeedMHz: 1000, OnWallPower: true})
	node := NewNode(machine, coda.NewClient("m", coda.NewFileServer(), 0), nil)
	node.RegisterService("loop", loop.Handler())

	// Service main loop, as in the paper's Figure 2.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			op, ok := loop.GetOp() // service_getop
			if !ok {
				return
			}
			out := append([]byte(op.OpType+":"), op.Payload...)
			op.Return(out, nil) // service_retop
		}
	}()

	fn, _ := node.Service("loop")
	ctx := NewServiceContext(sim.RealClock{}, node, nil)
	out, err := fn(ctx, "greet", []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "greet:world" {
		t.Fatalf("out = %q", out)
	}

	loop.Close()
	wg.Wait()
	if _, err := fn(ctx, "late", nil); err == nil {
		t.Fatal("closed loop should reject requests")
	}
	if _, ok := loop.GetOp(); ok {
		t.Fatal("GetOp after close should report closed")
	}
	loop.Close() // idempotent
}

func TestServiceRequestDoubleReturn(t *testing.T) {
	loop := NewServiceLoop()
	defer loop.Close()
	machine := sim.NewMachine(sim.MachineConfig{Name: "m", SpeedMHz: 1000, OnWallPower: true})
	node := NewNode(machine, coda.NewClient("m", coda.NewFileServer(), 0), nil)

	go func() {
		op, ok := loop.GetOp()
		if !ok {
			return
		}
		op.Return([]byte("first"), nil)
		op.Return([]byte("second"), nil) // ignored
	}()
	fn := loop.Handler()
	ctx := NewServiceContext(sim.RealClock{}, node, nil)
	out, err := fn(ctx, "op", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "first" {
		t.Fatalf("out = %q", out)
	}
}

// TestNonFiniteServerUsageDoesNotPoisonModels runs operations against a
// server whose usage reports are NaN and +Inf. The replies must arrive (no
// operation waits out its deadline and degrades to local execution) and
// the demand models that absorbed them must still predict finite numbers.
func TestNonFiniteServerUsageDoesNotPoisonModels(t *testing.T) {
	srv := spectrarpc.NewServer(func() *wire.ServerStatus {
		return &wire.ServerStatus{Name: "nan", SpeedMHz: 1000, AvailMHz: 1000}
	})
	srv.Register("toy", func(string, []byte) ([]byte, *wire.UsageReport, error) {
		return []byte("done"), &wire.UsageReport{
			CPUMegacycles: math.NaN(),
			Extra:         []wire.NamedValue{{Name: "computeSeconds", Value: math.Inf(1)}},
		}, nil
	})
	srv.Register(EchoService, func(_ string, payload []byte) ([]byte, *wire.UsageReport, error) {
		return payload, nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	setup := newLiveClient(t, map[string]string{"nan": addr})
	op, err := setup.Client.RegisterFidelity(OperationSpec{
		Name:    "toy.nan",
		Service: "toy",
		Plans:   []PlanSpec{{Name: "local"}, {Name: "remote", UsesServer: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup.Client.PollServers()
	setup.Client.Probe()

	for i := 0; i < 3; i++ {
		octx, err := setup.Client.BeginForced(op, solver.Alternative{Server: "nan", Plan: "remote"}, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := octx.DoRemoteOp("run", []byte("x")); err != nil {
			t.Fatal(err)
		}
		rep, err := octx.End()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Degraded || len(rep.Failovers) != 0 {
			t.Fatalf("op %d: report = %+v, want the remote reply to have arrived", i, rep)
		}
	}
	for _, alt := range setup.Client.EvaluateAlternatives(op, nil, "") {
		p := alt.Predicted
		if math.IsNaN(alt.Utility) || math.IsNaN(p.EnergyJoules) || math.IsInf(p.EnergyJoules, 0) || p.Latency < 0 {
			t.Fatalf("alternative %+v: prediction %+v utility %v — a non-finite sample reached the models", alt.Alternative, p, alt.Utility)
		}
	}
}
