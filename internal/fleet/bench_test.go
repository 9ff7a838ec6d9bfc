package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/calibrate"
	"repro/internal/workload"
)

// Benchmarks for the fleet engine: one iteration simulates a 10-round
// saturated 8-instance run (the demo shape), plus an open-loop
// work-item run exercising arrival events and queueing. CI's
// bench-smoke step records these into BENCH_fleet.json so the perf
// trajectory of the event scheduler is tracked over time.

func benchProfile(b *testing.B) *calibrate.Profile {
	b.Helper()
	prof, err := calibrate.Run(NewSynthetic(SyntheticOptions{}), calibrate.Options{Set: workload.Training})
	if err != nil {
		b.Fatal(err)
	}
	return prof
}

func benchFleet(b *testing.B, prof *calibrate.Profile, gen *LoadGen, rounds int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sup := newOneGroup(b, Scenario{
			Machines:        2,
			CoresPerMachine: 2,
			Budget:          400,
			// Run the shards inline so this series keeps its
			// single-thread meaning on multi-core runners; the worker
			// pool has its own series (BenchmarkFleetScale).
			Workers: 1,
		}, newSlowApp, prof)
		for j := 0; j < 8; j++ {
			if _, err := sup.StartInstance(-1); err != nil {
				b.Fatal(err)
			}
		}
		if err := sup.Run(gen, rounds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetEventTimeline is the discrete-event scheduler under
// saturating load: every beat is an event.
func BenchmarkFleetEventTimeline(b *testing.B) {
	prof := benchProfile(b)
	b.ResetTimer()
	benchFleet(b, prof, NewSaturatingLoad(2), 10)
}

// BenchmarkFleetEventWorkItems drives Poisson work-item arrivals
// through the event engine: arrival events, queueing, and percentile
// accounting on top of beat events.
func BenchmarkFleetEventWorkItems(b *testing.B) {
	prof := benchProfile(b)
	b.ResetTimer()
	benchFleet(b, prof, NewConstantLoad(3, 12).WithRequestIters(10), 10)
}

// BenchmarkFleetScale is the hundred-host scaling benchmark: one
// saturated instance per host under a binding cluster budget, one
// op one steady-state round, across fleet sizes and worker counts.
// workers=1 runs the per-host shards inline on the benchmark goroutine;
// workers=4 fans them out to a 4-worker pool between barriers. CI's
// bench-smoke step records every variant, so the inline vs pooled
// trajectory is tracked per commit at 8, 32, and 128 hosts. On a
// single-core runner the two legs coincide; with real cores the worker
// pool adds parallel speedup.
func BenchmarkFleetScale(b *testing.B) {
	prof := benchProfile(b)
	for _, hosts := range []int{8, 32, 128} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("hosts=%d/workers=%d", hosts, workers), func(b *testing.B) {
				// Fleet construction is identical at both worker counts
				// and would dilute the ratio, so it sits outside the
				// timer; one op is one steady-state saturated round.
				sup := newOneGroup(b, Scenario{
					Machines:        hosts,
					CoresPerMachine: 1,
					Budget:          float64(hosts) * 190,
					Workers:         workers,
				}, newSlowApp, prof)
				for j := 0; j < hosts; j++ {
					if _, err := sup.StartInstance(-1); err != nil {
						b.Fatal(err)
					}
				}
				gen := NewSaturatingLoad(2)
				if err := sup.Run(gen, 2); err != nil { // warm to steady state
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sup.Step(gen); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The thousand-host leg runs the hybrid configuration (open-loop
	// load, split dispatch, fluid threshold — see BenchmarkFleetScaleFluid
	// for the discrete/fluid A/B): a saturated pure-discrete fleet at
	// this size would be benchmarking the event flood the fluid engine
	// exists to collapse.
	b.Run("hosts=1024/workers=4", func(b *testing.B) {
		benchFluidScale(b, prof, 1024, 4)
	})
}

// fluidScaleFleet builds and warms one leg of the fluid A/B: one
// open-loop instance per host at ~0.9 utilization under a non-binding
// budget (steady DVFS keeps flows fluid), dispatched by SplitDispatch.
// The split matters: each host is then an independent M/D/1 station
// whose queue really does reach the threshold, whereas pooled
// join-shortest-queue at this load holds every queue at depth 1-2 and
// fluid mode never engages. Eight warm-up rounds bring the fleet to
// steady state, with roughly half the instances fluid when fluid > 0.
func fluidScaleFleet(tb testing.TB, prof *calibrate.Profile, hosts, fluid int) (*Supervisor, *LoadGen) {
	tb.Helper()
	sup := newOneGroup(tb, Scenario{
		Machines:        hosts,
		CoresPerMachine: 1,
		Budget:          float64(hosts) * 210,
		Workers:         4,
		ControlDisabled: true,
		SplitDispatch:   true,
		Fluid:           fluid,
	}, newSlowApp, prof)
	for j := 0; j < hosts; j++ {
		if _, err := sup.StartInstance(-1); err != nil {
			tb.Fatal(err)
		}
	}
	// ~0.9 rho per host at the 0.25 s work-item service time.
	gen := NewConstantLoad(17, 3.6*float64(hosts)).WithRequestIters(10)
	if err := sup.Run(gen, 8); err != nil {
		tb.Fatal(err)
	}
	return sup, gen
}

// fluidInstances counts the instances currently on the fluid timeline.
func fluidInstances(sup *Supervisor) int {
	n := 0
	for _, inst := range sup.insts {
		if inst.fluid {
			n++
		}
	}
	return n
}

// benchFluidScale times steady-state rounds of one fluid A/B leg and
// reports how many instances ended the run fluid, so a leg that never
// engages fluid mode cannot pass for a fluid measurement.
func benchFluidScale(b *testing.B, prof *calibrate.Profile, hosts, fluid int) {
	sup, gen := fluidScaleFleet(b, prof, hosts, fluid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sup.Step(gen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fluidInstances(sup)), "fluid-insts")
}

// BenchmarkFleetScaleFluid is the discrete/fluid A/B: the same scenario
// (fluidScaleFleet) at Fluid 0 and Fluid 4, at 128 and 1024 hosts.
func BenchmarkFleetScaleFluid(b *testing.B) {
	prof := benchProfile(b)
	for _, hosts := range []int{128, 1024} {
		for _, fluid := range []int{0, 4} {
			b.Run(fmt.Sprintf("hosts=%d/workers=4/fluid=%d", hosts, fluid), func(b *testing.B) {
				benchFluidScale(b, prof, hosts, fluid)
			})
		}
	}
}

// BenchmarkFleetScenarioMix is the heterogeneous two-group benchmark:
// a fast open-loop service group and a slower saturating batch group
// share 8 hosts under a binding budget with contention-aware
// interference — per-group dispatch, pressure-vector share
// computation, and per-group round accounting all on the hot path.
// One op is one steady-state round; the workers=1/4 variants ride the
// CI bench matrix into BENCH_fleet.json alongside BenchmarkFleetScale,
// so the heterogeneous leg's trajectory is tracked per commit.
func BenchmarkFleetScenarioMix(b *testing.B) {
	slowProf := benchProfile(b)
	fastProf, err := calibrate.Run(NewSynthetic(SyntheticOptions{BaseCost: 3e6}), calibrate.Options{Set: workload.Training})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sup, err := NewScenario(Scenario{
				Machines:        8,
				CoresPerMachine: 1,
				Budget:          8 * 190,
				Workers:         workers,
				Groups: []WorkloadGroup{
					{Name: "serve", Instances: 6, Pressure: 0.3,
						NewApp:  func() (workload.App, error) { return NewSynthetic(SyntheticOptions{BaseCost: 3e6}), nil },
						Profile: fastProf,
						Load:    NewConstantLoad(21, 24).WithRequestIters(10)},
					{Name: "batch", Instances: 4, Pressure: 0.1,
						NewApp:  func() (workload.App, error) { return NewSynthetic(SyntheticOptions{}), nil },
						Profile: slowProf,
						Load:    NewSaturatingLoad(2)},
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sup.Run(nil, 2); err != nil { // warm to steady state
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sup.Step(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEventQueue isolates the scheduler's heap — the shard-local
// queue every beat goes through: push/pop of a round's worth of
// interleaved events.
func BenchmarkEventQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh := &shard{}
		base := time.Unix(0, 0)
		for j := 0; j < 1024; j++ {
			sh.push(&event{at: base.Add(time.Duration((j * 7919) % 1000 * int(time.Millisecond))), kind: evServe})
		}
		for len(sh.eq) > 0 {
			sh.popHeap()
		}
	}
}

// BenchmarkFleetJSQWindows is the rung for the coordinator's per-window
// fixed cost: the 8 × 8 one-beat JSQ fleet (jsqWindowsFleet), where
// every arrival is a barrier and a window holds one or two events. One
// op is one steady-state round of ≈ 2,060 windows; ns/window and
// allocs/window are what a window costs whole, its events included.
// Workers=1 has no pool, so the gap between the two legs is what
// Workers > 1 adds to a small window — within ≈ 10 % since small
// windows run on the caller's goroutine.
func BenchmarkFleetJSQWindows(b *testing.B) {
	prof := benchProfile(b)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("Workers=%d", workers), func(b *testing.B) {
			sup, gen := jsqWindowsFleet(b, prof, workers)
			if err := sup.Run(gen, 5); err != nil { // warm to steady state
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			windows, fanOuts := sup.windows, sup.fanOuts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sup.Step(gen); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(sup.windows - windows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/window")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/window")
			b.ReportMetric(float64(sup.fanOuts-fanOuts)/n, "fanouts/window")
		})
	}
}
