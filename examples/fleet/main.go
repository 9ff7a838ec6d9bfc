// Fleet makes the Sec. 5.5 consolidation story executable: eight
// controlled instances on two simulated machines serve saturating load
// on the event-driven timeline while the scenario walks through the
// paper's events live — a cluster-wide power-budget cut that lands
// mid-quantum (the paper's cpufrequtils cap arrives between beats, not
// at a control-round boundary) and is re-divided across machines by
// the arbiter at that exact virtual instant, a graceful drain of half
// of one machine's instances, and a live migration that rebalances the
// survivors. Throughout, every instance's feedback controller retunes
// its dynamic knobs to hold the heart-rate target, trading QoS exactly
// as the analytic cluster model predicts.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/calibrate"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/workload"
)

func main() {
	newApp := func() (workload.App, error) { return fleet.NewSynthetic(fleet.SyntheticOptions{}), nil }
	probe, _ := newApp()
	prof, err := calibrate.Run(probe, calibrate.Options{Set: workload.Training})
	if err != nil {
		log.Fatal(err)
	}

	// One workload group under the uniform-share interference model: the
	// time-multiplexing arithmetic the cluster oracle below predicts.
	sup, err := fleet.NewScenario(fleet.Scenario{
		Machines:        2,
		CoresPerMachine: 2,
		Groups:          []fleet.WorkloadGroup{{Name: "default", NewApp: newApp, Profile: prof, Instances: 8}},
		Interference:    fleet.UniformShare{},
	})
	if err != nil {
		log.Fatal(err)
	}
	insts := sup.Instances()
	gen := fleet.NewSaturatingLoad(2)

	fmt.Println("8 instances, 2 machines x 2 cores, saturating load")
	fmt.Printf("%5s | %7s | %7s | %-11s | %-7s | %5s | %6s | %s\n",
		"round", "budget", "power W", "GHz", "insts", "perf", "loss %", "event")

	step := func(event string) {
		rs, err := sup.Step(gen)
		if err != nil {
			log.Fatal(err)
		}
		freqs, residents := "", ""
		for i, h := range rs.Hosts {
			if i > 0 {
				freqs, residents = freqs+" ", residents+" "
			}
			freqs += fmt.Sprintf("%.2f", h.FreqGHz)
			residents += fmt.Sprintf("%d", h.Residents)
		}
		budget := "inf"
		if rs.Budget > 0 {
			budget = fmt.Sprintf("%.0f", rs.Budget)
		}
		fmt.Printf("%5d | %7s | %7.1f | %-11s | %-7s | %5.2f | %6.2f | %s\n",
			rs.Round, budget, rs.PowerWatts, freqs, residents,
			rs.MeanNormPerf, rs.RequestLoss*100, event)
	}

	for r := 0; r < 36; r++ {
		event := ""
		switch r {
		case 10:
			// A rack-level cap lands mid-quantum: the arbiter re-divides
			// 380 W across both machines at that exact virtual instant —
			// half a round before the next arbiter tick — so frequencies
			// drop between beats and the knobs absorb it.
			sup.SetBudgetAt(sup.Now().Add(500*time.Millisecond), 380)
			event = "budget cap to 380 W lands mid-quantum"
		case 20:
			// Load is leaving: drain two instances gracefully.
			sup.Drain(insts[0])
			sup.Drain(insts[2])
			event = "draining instances 0 and 2"
		case 26:
			// Rebalance the survivors: the drain left machine 0 with two
			// residents and machine 1 with four, so move one back.
			for _, inst := range sup.Active() {
				if inst.HostIndex() == 1 {
					if err := sup.Migrate(inst, 0); err != nil {
						log.Fatal(err)
					}
					event = fmt.Sprintf("migrating instance %d to machine 0", inst.ID())
					break
				}
			}
		}
		step(event)
	}

	rep := sup.Report()
	fmt.Printf("\n%d requests served (%d aborted), mean power %.1f W\n",
		rep.Completions, rep.Aborted, rep.MeanPower)
	fmt.Printf("latency mean %.2f s p50 %.2f s p95 %.2f s p99 %.2f s; mean request QoS loss %.2f%%\n",
		rep.MeanLatency, rep.P50Latency, rep.P95Latency, rep.P99Latency, rep.MeanRequestLoss*100)

	// The analytic model this execution is validated against.
	oracle, err := cluster.NewOracle(2, 2, prof, platform.DefaultPowerModel(), platform.Frequencies[0])
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range []int{8, 6} {
		pred, err := oracle.Predict(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("oracle, %d instances uncapped: speedup %.2fx, loss %.2f%%, power %.1f W\n",
			n, pred.Speedup, pred.Loss*100, pred.PowerWatts)
	}
}
