package scenario

import "testing"

// tailSlack is k in the tail bounds below: how many healthy medians the
// one exchange a hedged operation still has to make (or the local fallback
// an expired one falls to) may cost under the storm's own contention.
const tailSlack = 4

// TestTailChaosBoundsTheTail is the deadline machinery's acceptance gate: a
// pool-exhaustion storm (64 workers over pool-of-4 connections) against
// servers that stall ~20% of requests. What hedging guarantees a stalled
// operation is the hedge delay plus one healthy exchange, so the gate is
// p99 <= HedgeDelay + k*p50 — a bound that holds however fast a healthy
// exchange gets, unlike a p99/p50 ratio, which a faster p50 fails — plus
// p99 far below the stall duration and no operation overrunning its budget
// by more than one exchange timeout and k medians of local fallback.
// Without the machinery the stalled exchanges would pin p99 at the stall
// duration (3x the budget) and blocked checkouts would stack behind them.
func TestTailChaosBoundsTheTail(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm is seconds long; skipped in -short")
	}
	opts := TailChaosOptions{}.withDefaults()
	res, err := RunTailChaos(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ops=%d p50=%v p99=%v max=%v ratio=%.2f degraded=%d hedges=%d/%d deadline=%d sheds=%d exhausted=%d",
		res.Ops, res.P50, res.P99, res.Max, res.TailRatio, res.Degraded,
		res.HedgeWins, res.HedgesLaunched, res.DeadlineExceeded, res.ServerSheds, res.PoolExhausted)

	if res.Ops != opts.Workers*opts.OpsPerWorker {
		t.Fatalf("completed %d ops, want %d — operations were lost", res.Ops, opts.Workers*opts.OpsPerWorker)
	}
	// The chaos must actually have happened: hedges launched against
	// stalled primaries.
	if res.HedgesLaunched == 0 {
		t.Fatal("no hedges launched — the fault injection never bit")
	}
	if limit := opts.HedgeDelay + tailSlack*res.P50; res.P99 > limit {
		t.Fatalf("p99 = %v, want <= hedge delay %v + %d x p50 %v = %v",
			res.P99, opts.HedgeDelay, tailSlack, res.P50, limit)
	}
	if limit := opts.ExchangeTimeout + tailSlack*res.P50; res.MaxOverrun > limit {
		t.Fatalf("worst op overran its %v budget by %v, want <= one exchange timeout %v + %d x p50 %v",
			res.Budget, res.MaxOverrun, opts.ExchangeTimeout, tailSlack, res.P50)
	}
	// The tail must stay far from the stall duration: hedging or the
	// budget, not patience, resolved the stalled requests.
	if res.P99 >= opts.StallDuration {
		t.Fatalf("p99 %v reached the stall duration %v — stalled ops were waited out", res.P99, opts.StallDuration)
	}
}
