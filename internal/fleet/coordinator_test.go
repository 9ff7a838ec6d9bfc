package fleet

import (
	"math"
	"testing"

	"repro/internal/calibrate"
)

// jsqWindowsFleet is the small-window regime: 8 hosts × 8 cores, 64
// default synthetic instances under join-shortest-queue dispatch, fed
// one-iteration requests at ρ ≈ 0.8 (one iteration is 25 ms on a full
// core, so 64 instances serve 2,560/s). Every arrival is a barrier, so
// a round is cut into ≈ 2,000 windows of a few events each.
func jsqWindowsFleet(tb testing.TB, prof *calibrate.Profile, workers int) (*Supervisor, *LoadGen) {
	tb.Helper()
	sup, err := NewScenario(Scenario{
		Machines:        8,
		CoresPerMachine: 8,
		Workers:         workers,
		Groups: []WorkloadGroup{{
			Name:      "web",
			NewApp:    newSlowApp,
			Profile:   prof,
			Instances: 64,
		}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sup, NewConstantLoad(5, 2048).WithRequestIters(1)
}

// TestSmallWindowsStayInline pins the work-first rule from both sides.
// Under JSQ arrivals no window of the 8 × 8 fleet holds the inline
// budget, so at Workers: 2 not one of them may start the pool; a
// saturated 128-host round holds eighty times the budget, so every round
// must. Neither path can disappear unnoticed.
func TestSmallWindowsStayInline(t *testing.T) {
	prof := syntheticProfile(t)
	const rounds = 20

	sup, gen := jsqWindowsFleet(t, prof, 2)
	stepRounds(t, sup, gen, rounds)
	rep := sup.Report()
	arrivals := 0
	for _, rs := range rep.Rounds {
		arrivals += rs.Arrivals
	}
	// The premise, from the counters: every arrival cut a window of its
	// own, and the windows hold far fewer events than the budget.
	if sup.windows < arrivals || arrivals < rounds*1500 {
		t.Fatalf("windows = %d over %d arrivals: the scenario is not cut into per-arrival windows", sup.windows, arrivals)
	}
	if perWindow := float64(rep.Completions) / float64(sup.windows); perWindow > inlineEventBudget/8 {
		t.Fatalf("%.1f events per window: too close to the inline budget (%d) to pin the inline path", perWindow, inlineEventBudget)
	}
	if sup.fanOuts != 0 {
		t.Fatalf("fanOuts = %d of %d windows, want 0: small windows must run on the caller's goroutine", sup.fanOuts, sup.windows)
	}

	// The same fleet with the budget forced to one event does reach the
	// pool: the windows hold multi-shard work and the counter is live.
	forced, gen := jsqWindowsFleet(t, prof, 2)
	forced.inlineBudget = 1
	stepRounds(t, forced, gen, 2)
	if forced.fanOuts == 0 {
		t.Fatal("budget 1 never fanned out: no window held work on two shards")
	}

	// A saturated 128-host round is one window of 5,120 events: it must
	// reach the pool at Workers: 2, and Workers: 1 has none to reach.
	saturated := func(workers int) *Supervisor {
		sup := newOneGroup(t, Scenario{
			Machines:        128,
			CoresPerMachine: 1,
			Budget:          128 * 190,
			Workers:         workers,
		}, newSlowApp, prof)
		startN(t, sup, 128)
		stepRounds(t, sup, NewSaturatingLoad(2), 3)
		return sup
	}
	if sat := saturated(2); sat.fanOuts < 3 {
		t.Fatalf("fanOuts = %d over 3 saturated 128-host rounds (%d windows): wide windows must reach the pool", sat.fanOuts, sat.windows)
	}
	if one := saturated(1); one.fanOuts != 0 {
		t.Fatalf("Workers: 1 fanned out %d times", one.fanOuts)
	}
}

// TestDrainSetCacheMatchesRecomputation holds the cached drain set to a
// from-scratch recomputation at every window of runDiffScenario's fleet,
// which drains, retires mid-window,
// migrates, starts and stops: the set, its host order and every shard's
// excluded mark must be what a scan of the instances gives.
func TestDrainSetCacheMatchesRecomputation(t *testing.T) {
	for _, budget := range []int{0, 1, math.MaxInt} {
		sup := newDiffScenario(t, 32, 24, 2, false)
		sup.inlineBudget = budget
		checks, nonEmpty := 0, 0
		sup.drainCheck = func(got []*shard) {
			checks++
			want := make(map[*shard]bool)
			for _, inst := range sup.insts {
				if !inst.retired && inst.draining && inst.host != nil {
					want[inst.host.shard] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: cached drain set has %d shards, recomputation %d", sup.round, len(got), len(want))
			}
			for i, sh := range got {
				if !want[sh] {
					t.Fatalf("round %d: cached drain set holds host %d, which has no live draining instance", sup.round, sh.host.index)
				}
				if i > 0 && got[i-1].host.index >= sh.host.index {
					t.Fatalf("round %d: cached drain set out of host order", sup.round)
				}
			}
			for _, h := range sup.hosts {
				if h.shard.excluded != want[h.shard] {
					t.Fatalf("round %d: host %d excluded = %v, want %v", sup.round, h.index, h.shard.excluded, want[h.shard])
				}
			}
			if len(got) > 0 {
				nonEmpty++
			}
		}
		stepRounds(t, sup, NewConstantLoad(21, 40).WithRequestIters(10), 10)
		if checks < sup.windows || nonEmpty == 0 {
			t.Fatalf("budget %d: %d checks over %d windows, %d with a live drain: the scenario proves nothing", budget, checks, sup.windows, nonEmpty)
		}
	}
}
