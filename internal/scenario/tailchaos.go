package scenario

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spectra/internal/coda"
	"spectra/internal/core"
	"spectra/internal/obs"
	"spectra/internal/sim"
	"spectra/internal/solver"

	spectrarpc "spectra/internal/rpc"
)

// tailChaosClock times the chaos storm and paces its fault windows. Like
// overheadClock it is deliberately wall-clock — the scenario measures the
// real tail of live TCP operations — but routed through the clock interface
// so the determinism invariant stays auditable.
var tailChaosClock sim.Clock = sim.RealClock{}

// TailChaosOptions tunes the tail-latency chaos storm.
type TailChaosOptions struct {
	// Workers is the number of concurrent operation loops; 0 selects 64.
	Workers int
	// OpsPerWorker is how many operations each loop runs; 0 selects 40.
	OpsPerWorker int
	// PoolSize caps connections per server; 0 selects 4, far below Workers
	// so every checkout contends (the pool-exhaustion half of the storm).
	PoolSize int
	// Budget pins the per-operation latency budget (floor and ceiling both);
	// 0 selects 400ms.
	Budget time.Duration
	// ExchangeTimeout bounds each RPC exchange; 0 selects 250ms.
	ExchangeTimeout time.Duration
	// HedgeDelay is how long a primary may run before the backup launches;
	// 0 selects 25ms.
	HedgeDelay time.Duration
	// StallDuration is how long a faulted handler hangs — well past the
	// budget, so only cancellation or hedging can save the operation;
	// 0 selects 1200ms.
	StallDuration time.Duration
	// FaultWindow is the length of one fault-schedule slot; 0 selects 120ms.
	// The schedule cycles [server A stalled, healthy, server B stalled,
	// healthy, healthy], so one server is stalling 40% of the time and about
	// a fifth of all requests land on a stalling primary.
	FaultWindow time.Duration
}

func (o TailChaosOptions) withDefaults() TailChaosOptions {
	if o.Workers <= 0 {
		o.Workers = 64
	}
	if o.OpsPerWorker <= 0 {
		o.OpsPerWorker = 40
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.Budget <= 0 {
		o.Budget = 400 * time.Millisecond
	}
	if o.ExchangeTimeout <= 0 {
		o.ExchangeTimeout = 250 * time.Millisecond
	}
	if o.HedgeDelay <= 0 {
		o.HedgeDelay = 25 * time.Millisecond
	}
	if o.StallDuration <= 0 {
		o.StallDuration = 1200 * time.Millisecond
	}
	if o.FaultWindow <= 0 {
		o.FaultWindow = 120 * time.Millisecond
	}
	return o
}

// TailChaosResult summarizes the storm: the latency distribution of the
// remote sections, how the deadline machinery intervened, and how far the
// worst operation overran its budget.
type TailChaosResult struct {
	Ops        int
	P50        time.Duration
	P99        time.Duration
	Max        time.Duration
	TailRatio  float64 // P99 / P50
	Budget     time.Duration
	MaxOverrun time.Duration // worst elapsed-beyond-budget, 0 when none

	Degraded         int   // operations completed by local fallback
	HedgesLaunched   int64 // backup requests started
	HedgeWins        int64 // operations the backup resolved
	DeadlineExceeded int64 // budgets that fully expired
	ServerSheds      int64 // requests the servers refused as expired
	PoolExhausted    int64 // checkouts abandoned at the deadline
}

// RunTailChaos drives a pool-exhaustion storm against two live loopback
// servers while a fault scheduler stalls one of them at a time, and
// measures the latency tail with the full deadline machinery engaged:
// budgets derived per operation, expired work shed server-side, abandoned
// checkouts failing fast, stalled primaries hedged to the healthy server,
// and the local fallback as the last rung. Without that machinery the same
// storm pins p99 at the stall duration; with it a stalled operation costs
// the hedge delay plus one healthy exchange, and no operation may overrun
// its budget by more than one exchange timeout.
func RunTailChaos(opts TailChaosOptions) (TailChaosResult, error) {
	opts = opts.withDefaults()

	// Two identical servers; the fault scheduler stalls at most one at a
	// time, so a hedged backup always finds a healthy placement.
	var stallA, stallB atomic.Bool
	newServer := func(name string, flag *atomic.Bool) (string, *core.Server, error) {
		machine := sim.NewMachine(sim.MachineConfig{Name: name, SpeedMHz: 1000, OnWallPower: true})
		node := core.NewNode(machine, coda.NewClient(name, coda.NewFileServer(), 0), nil)
		srv := core.NewServer(name, node, sim.RealClock{})
		srv.Register("work", func(ctx *core.ServiceContext, optype string, payload []byte) ([]byte, error) {
			if flag.Load() {
				tailChaosClock.Sleep(opts.StallDuration)
			}
			ctx.Compute(sim.ComputeDemand{IntegerMegacycles: 5})
			return payload, nil
		})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		return addr, srv, nil
	}
	addrA, srvA, err := newServer("alpha", &stallA)
	if err != nil {
		return TailChaosResult{}, err
	}
	defer srvA.Close()
	addrB, srvB, err := newServer("beta", &stallB)
	if err != nil {
		return TailChaosResult{}, err
	}
	defer srvB.Close()

	observer := obs.NewObserver()
	srvA.SetObserver(observer)
	srvB.SetObserver(observer)

	host := sim.NewMachine(sim.MachineConfig{
		Name:        "client",
		SpeedMHz:    1000,
		Power:       sim.PowerModel{IdleW: 2, BusyW: 10, NetW: 3},
		OnWallPower: true,
		Battery:     sim.NewBattery(1_000_000),
	})
	setup, err := core.NewLiveSetup(core.LiveOptions{
		Host:    host,
		Servers: map[string]string{"alpha": addrA, "beta": addrB},
		Obs:     observer,
		Deadline: core.DeadlineOptions{
			Floor:      opts.Budget,
			Ceiling:    opts.Budget,
			HedgeDelay: opts.HedgeDelay,
		},
	})
	if err != nil {
		return TailChaosResult{}, err
	}
	defer setup.Runtime.Close()
	// Pools are created lazily, so the exchange timeout can still be set
	// here alongside the size.
	setup.Runtime.SetPoolOptions(spectrarpc.PoolOptions{
		Size:    opts.PoolSize,
		Timeout: opts.ExchangeTimeout,
	})
	// Local fallback is the ladder's last rung: the client must offer the
	// service itself (never stalled — the chaos is remote).
	setup.Host.RegisterService("work", func(ctx *core.ServiceContext, optype string, payload []byte) ([]byte, error) {
		ctx.Compute(sim.ComputeDemand{IntegerMegacycles: 5})
		return payload, nil
	})

	op, err := setup.Client.RegisterFidelity(core.OperationSpec{
		Name:    "work.tailchaos",
		Service: "work",
		Plans:   []core.PlanSpec{{Name: "local"}, {Name: "remote", UsesServer: true}},
	})
	if err != nil {
		return TailChaosResult{}, err
	}
	setup.Client.PollServers()
	setup.Client.Probe()

	// Fault scheduler: cycle one window of each shape until the storm ends.
	done := make(chan struct{})
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		defer stallA.Store(false)
		defer stallB.Store(false)
		for {
			for _, phase := range []*atomic.Bool{&stallA, nil, &stallB, nil, nil} {
				select {
				case <-done:
					return
				default:
				}
				if phase != nil {
					phase.Store(true)
				}
				tailChaosClock.Sleep(opts.FaultWindow)
				if phase != nil {
					phase.Store(false)
				}
			}
		}
	}()

	var (
		mu        sync.Mutex
		latencies []time.Duration
		degraded  int
		firstErr  error
	)
	servers := []string{"alpha", "beta"}
	payload := []byte("chaos")
	var workWG sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			primary := servers[w%len(servers)]
			for i := 0; i < opts.OpsPerWorker; i++ {
				octx, err := setup.Client.BeginForced(op, solver.Alternative{Server: primary, Plan: "remote"}, nil, "")
				if err == nil {
					start := tailChaosClock.Now()
					_, err = octx.DoRemoteOp("run", payload)
					elapsed := tailChaosClock.Now().Sub(start)
					if err == nil {
						var rep core.Report
						rep, err = octx.End()
						if err == nil {
							mu.Lock()
							latencies = append(latencies, elapsed)
							if rep.Degraded {
								degraded++
							}
							mu.Unlock()
						}
					} else {
						octx.Abort()
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("worker %d op %d: %w", w, i, err)
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	workWG.Wait()
	close(done)
	schedWG.Wait()

	if firstErr != nil {
		return TailChaosResult{}, firstErr
	}
	if len(latencies) == 0 {
		return TailChaosResult{}, fmt.Errorf("tail chaos completed no operations")
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p int) time.Duration {
		idx := len(latencies) * p / 100
		if idx >= len(latencies) {
			idx = len(latencies) - 1
		}
		return latencies[idx]
	}
	res := TailChaosResult{
		Ops:      len(latencies),
		P50:      pct(50),
		P99:      pct(99),
		Max:      latencies[len(latencies)-1],
		Budget:   opts.Budget,
		Degraded: degraded,
	}
	if res.P50 > 0 {
		res.TailRatio = float64(res.P99) / float64(res.P50)
	}
	if over := res.Max - opts.Budget; over > 0 {
		res.MaxOverrun = over
	}
	reg := observer.Registry
	res.HedgesLaunched = reg.Counter(obs.MHedgeLaunched).Value()
	res.HedgeWins = reg.Counter(obs.MHedgeWins).Value()
	res.DeadlineExceeded = reg.Counter(obs.MDeadlineExceeded).Value()
	res.ServerSheds = reg.Counter(obs.MServerDeadlineShed).Value()
	res.PoolExhausted = reg.Counter(obs.MPoolExhausted).Value()
	return res, nil
}
