package core

import (
	"testing"
	"time"

	"spectra/internal/coda"
	"spectra/internal/sim"
	"spectra/internal/simnet"
	"spectra/internal/solver"
)

// newParallelSetup builds a client and two equal servers for parallel
// execution tests.
func newParallelSetup(t *testing.T) *SimSetup {
	t.Helper()
	host := sim.NewMachine(sim.MachineConfig{
		Name:        "client",
		SpeedMHz:    100,
		Power:       sim.PowerModel{IdleW: 1, BusyW: 10, NetW: 2},
		OnWallPower: true,
		Battery:     sim.NewBattery(50_000),
	})
	mkServer := func(name string) SimServer {
		return SimServer{
			Name: name,
			Machine: sim.NewMachine(sim.MachineConfig{
				Name: name, SpeedMHz: 1000, OnWallPower: true,
			}),
			Link: simnet.NewLink(simnet.LinkConfig{
				Name: "lan-" + name, Latency: time.Millisecond, BandwidthBps: 1_000_000,
			}),
		}
	}
	setup, err := NewSimSetup(SimOptions{
		Host:    host,
		Servers: []SimServer{mkServer("s1"), mkServer("s2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	work := func(ctx *ServiceContext, optype string, payload []byte) ([]byte, error) {
		ctx.Compute(sim.ComputeDemand{IntegerMegacycles: 1000}) // 1s per branch
		return []byte("ok"), nil
	}
	setup.Env.Host().RegisterService("toy", work)
	for _, s := range []string{"s1", "s2"} {
		node, _, _ := setup.Env.Server(s)
		node.RegisterService("toy", work)
	}
	return setup
}

func parallelSpec() OperationSpec {
	return OperationSpec{
		Name:    "toy.parallel",
		Service: "toy",
		Plans: []PlanSpec{
			{Name: "local"},
			{Name: "remote", UsesServer: true},
		},
	}
}

func TestParallelExecutionOverlaps(t *testing.T) {
	setup := newParallelSetup(t)
	op, err := setup.Client.RegisterFidelity(parallelSpec())
	if err != nil {
		t.Fatal(err)
	}
	setup.Refresh()

	// Sequential: two branches on the same server take ~2 s.
	seq, err := setup.Client.BeginForced(op, solver.Alternative{Server: "s1", Plan: "remote"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := seq.DoRemoteOp("run", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	seqRep, err := seq.End()
	if err != nil {
		t.Fatal(err)
	}
	if seqRep.Elapsed < 2*time.Second {
		t.Fatalf("sequential elapsed = %v, want >= 2s", seqRep.Elapsed)
	}

	// Parallel: the same two branches on different servers take ~1 s.
	par, err := setup.Client.BeginForced(op, solver.Alternative{Server: "s1", Plan: "remote"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := par.DoParallelOps([]ParallelCall{
		{Server: "s1", OpType: "run", Payload: []byte("x")},
		{Server: "s2", OpType: "run", Payload: []byte("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || string(outs[0]) != "ok" || string(outs[1]) != "ok" {
		t.Fatalf("outputs = %q", outs)
	}
	parRep, err := par.End()
	if err != nil {
		t.Fatal(err)
	}
	if parRep.Elapsed >= seqRep.Elapsed {
		t.Fatalf("parallel %v should beat sequential %v", parRep.Elapsed, seqRep.Elapsed)
	}
	if parRep.Elapsed > 1200*time.Millisecond {
		t.Fatalf("parallel elapsed = %v, want ~1s", parRep.Elapsed)
	}
	// Usage still accounts both branches.
	if parRep.Usage.RemoteMegacycles != 2000 {
		t.Fatalf("remote megacycles = %v, want 2000", parRep.Usage.RemoteMegacycles)
	}
	if parRep.Usage.RPCs != 2 {
		t.Fatalf("rpcs = %d, want 2", parRep.Usage.RPCs)
	}
}

func TestParallelDefaultsToDecidedServer(t *testing.T) {
	setup := newParallelSetup(t)
	op, err := setup.Client.RegisterFidelity(parallelSpec())
	if err != nil {
		t.Fatal(err)
	}
	setup.Refresh()
	octx, err := setup.Client.BeginForced(op, solver.Alternative{Server: "s2", Plan: "remote"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := octx.DoParallelOps([]ParallelCall{{OpType: "run", Payload: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outputs = %d", len(outs))
	}
	octx.Abort()
}

func TestParallelErrors(t *testing.T) {
	setup := newParallelSetup(t)
	op, err := setup.Client.RegisterFidelity(parallelSpec())
	if err != nil {
		t.Fatal(err)
	}
	setup.Refresh()
	octx, err := setup.Client.BeginForced(op, solver.Alternative{Server: "s1", Plan: "remote"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := octx.DoParallelOps(nil); err == nil {
		t.Fatal("empty call list should fail")
	}
	if _, err := octx.DoParallelOps([]ParallelCall{{Server: "ghost", OpType: "run"}}); err == nil {
		t.Fatal("unknown server should fail")
	}
	// Local plan: no decided server and none specified.
	local, err := setup.Client.BeginForced(op, solver.Alternative{Plan: "local"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.DoParallelOps([]ParallelCall{{OpType: "run"}}); err == nil {
		t.Fatal("parallel call without server should fail")
	}
	local.Abort()
	octx.Abort()
	if _, err := octx.DoParallelOps([]ParallelCall{{Server: "s1", OpType: "run"}}); err == nil {
		t.Fatal("parallel call after end should fail")
	}
}

func TestParallelLiveRuntime(t *testing.T) {
	// Two real TCP servers; parallel branches genuinely overlap.
	addr1 := startLiveServer(t, "p1", 1000)
	addr2 := startLiveServer(t, "p2", 1000)
	setup := newLiveClient(t, map[string]string{"p1": addr1, "p2": addr2})

	op, err := setup.Client.RegisterFidelity(OperationSpec{
		Name:    "toy.parlive",
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

	octx, err := setup.Client.BeginForced(op, solver.Alternative{Server: "p1", Plan: "remote"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	outs, err := octx.DoParallelOps([]ParallelCall{
		{Server: "p1", OpType: "run", Payload: []byte("a")},
		{Server: "p2", OpType: "run", Payload: []byte("b")},
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outputs = %d", len(outs))
	}
	// Each branch computes 30 ms; overlapped execution must finish well
	// under the 60 ms a sequential run would need.
	if elapsed > 55*time.Millisecond {
		t.Fatalf("parallel live elapsed = %v, want < 55ms", elapsed)
	}
	rep, err := octx.End()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Usage.RemoteMegacycles != 60 {
		t.Fatalf("remote megacycles = %v, want 60", rep.Usage.RemoteMegacycles)
	}
}

// startSlowServer hosts the toy service on a server whose handler takes a
// fixed slab of real time regardless of any budget — a stand-in for a
// stalled-but-reachable server, bounded so a deadline regression fails an
// elapsed-time assertion instead of hanging the test run.
func startSlowServer(t *testing.T, name string, delay time.Duration) string {
	t.Helper()
	machine := sim.NewMachine(sim.MachineConfig{Name: name, SpeedMHz: 1000, OnWallPower: true})
	node := NewNode(machine, coda.NewClient(name, coda.NewFileServer(), 0), nil)
	srv := NewServer(name, node, sim.RealClock{})
	srv.Register("toy", func(ctx *ServiceContext, optype string, payload []byte) ([]byte, error) {
		time.Sleep(delay)
		return []byte("late"), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestParallelFailoverRespectsBudget is the regression test for the
// deadline escape ctxflow flagged in DoParallelOps: the parallel branches
// and the failover ladder of a failed branch both used context.Background,
// so a branch landing on a stalled server waited out the stall instead of
// the operation's budget. Here the only server stalls for 2s while the
// budget is 200ms: the branch must be cancelled at the budget, the ladder
// (with no surviving server) must shed to the local fallback, and the
// whole operation must complete degraded well under the stall.
func TestParallelFailoverRespectsBudget(t *testing.T) {
	const stall = 2 * time.Second
	slowAddr := startSlowServer(t, "slow", stall)

	host := sim.NewMachine(sim.MachineConfig{
		Name:        "client",
		SpeedMHz:    1000,
		Power:       sim.PowerModel{IdleW: 2, BusyW: 10, NetW: 3},
		OnWallPower: true,
		Battery:     sim.NewBattery(100_000),
	})
	setup, err := NewLiveSetup(LiveOptions{
		Host:    host,
		Servers: map[string]string{"slow": slowAddr},
		Deadline: DeadlineOptions{
			Floor:   200 * time.Millisecond,
			Ceiling: 200 * time.Millisecond,
			NoHedge: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { setup.Runtime.Close() })
	setup.Host.RegisterService("toy", liveWork)

	op, err := setup.Client.RegisterFidelity(OperationSpec{
		Name:    "toy.parbudget",
		Service: "toy",
		Plans:   []PlanSpec{{Name: "local"}, {Name: "remote", UsesServer: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup.Client.PollServers()

	octx, err := setup.Client.BeginForced(op, solver.Alternative{Server: "slow", Plan: "remote"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	outs, err := octx.DoParallelOps([]ParallelCall{
		{Server: "slow", OpType: "run", Payload: []byte("x")},
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budget-bounded parallel op failed instead of falling back: %v", err)
	}
	if len(outs) != 1 || string(outs[0]) != "done" {
		t.Fatalf("fallback outputs = %q, want the local result", outs)
	}
	// The branch must end at the 200ms budget (plus local execution and
	// scheduling slack), never at the server's 2s stall.
	if elapsed >= stall {
		t.Fatalf("parallel op outwaited its 200ms budget: %v", elapsed)
	}
	if elapsed >= 1500*time.Millisecond {
		t.Fatalf("parallel failover took %v; the budget must bound the branch and the ladder", elapsed)
	}
	rep, err := octx.End()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("local fallback must mark the report degraded")
	}
	// A budget expiry says nothing about server health: the parallel branch
	// follows the same reachability rule as the single-call path.
	snap := setup.Client.Monitors().Snapshot(setup.Runtime.Now(), []string{"slow"})
	if !snap.Network["slow"].Reachable {
		t.Fatal("a budget expiry marked a slow-but-healthy server unreachable")
	}
}
