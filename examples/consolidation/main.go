// Consolidation reproduces the Sec. 5.5 provisioning scenario on
// bodytrack: a 4-machine system provisioned for peak load is replaced by
// a single PowerDial-equipped machine that absorbs load spikes by
// trading tracking accuracy, then both are evaluated on a spiky
// day-in-the-life load trace. A third act executes the same story
// instead of computing it: the Fig. 8 spiky trace is driven through the
// event-time fleet with the SLO autoscaler deciding placement — no
// hand-scripted starts or drains — and the consolidation timeline
// (instances, power, p95) falls out of the replay harness.
package main

import (
	"fmt"
	"log"

	powerdial "repro"
	"repro/internal/cluster"
)

func main() {
	app := powerdial.NewBodytrackBenchmark(powerdial.ScaleSmall)
	settings, err := powerdial.SweepSettings(app, powerdial.ScaleSmall)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := powerdial.Prepare(app, powerdial.PrepareOptions{Settings: settings})
	if err != nil {
		log.Fatal(err)
	}
	// Apply the paper's 5% QoS-loss bound for consolidation.
	profile := sys.Profile.WithCap(0.05)

	origCfg := powerdial.ClusterConfig{Machines: 4}
	orig, err := powerdial.NewCluster(origCfg)
	if err != nil {
		log.Fatal(err)
	}
	cons, err := powerdial.ConsolidateCluster(origCfg, profile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bodytrack: consolidated %d machines -> %d (max speedup %.1fx within 5%% QoS)\n\n",
		orig.Machines(), cons.Machines(), profile.MaxSpeedup())

	// Utilization sweep (Fig. 8c).
	peak := orig.Capacity()
	po, err := orig.Sweep(peak, 6)
	if err != nil {
		log.Fatal(err)
	}
	pc, err := cons.Sweep(peak, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%5s | %8s | %8s | %8s | %s\n", "util", "orig W", "cons W", "saved", "QoS loss")
	for i := range po {
		u := float64(i) / 5
		fmt.Printf("%5.1f | %8.1f | %8.1f | %7.0f%% | %.3f%%\n",
			u, po[i].PowerWatts, pc[i].PowerWatts,
			(po[i].PowerWatts-pc[i].PowerWatts)/po[i].PowerWatts*100,
			pc[i].MeanLoss*100)
	}

	// A spiky load trace: mostly ~20% utilization with bursts to peak.
	trace := cluster.LoadTrace(peak, 1000, 2026)
	so, err := orig.EvaluateTrace(trace)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := cons.EvaluateTrace(trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspiky load trace (%d steps):\n", len(trace))
	fmt.Printf("  original:     mean power %7.1f W, perf violations %d\n", so.MeanPower, so.PerfViolated)
	fmt.Printf("  consolidated: mean power %7.1f W, perf violations %d, max QoS loss %.2f%%\n",
		sc.MeanPower, sc.PerfViolated, sc.MaxLoss*100)
	fmt.Printf("  energy saved: %.0f%%\n", (so.MeanPower-sc.MeanPower)/so.MeanPower*100)

	// Executed replay (Fig. 8 timeline): the analytic acts above compute
	// steady states; here the spiky trace actually runs through the
	// event-driven fleet, with the hysteresis autoscaler provisioning
	// and draining instances from observed queue depth and p95 latency
	// against an SLO. The analytically exact synthetic app stands in for
	// bodytrack so the demo executes in seconds and deterministically.
	newApp := func() (powerdial.App, error) { return powerdial.NewSyntheticApp(powerdial.SyntheticOptions{}), nil }
	probe, _ := newApp()
	fleetProf, err := powerdial.Calibrate(probe, powerdial.CalibrateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sup, err := powerdial.NewFleetScenario(powerdial.FleetScenario{
		Machines:        2,
		CoresPerMachine: 2,
		Groups: []powerdial.FleetWorkloadGroup{{
			Name: "default", NewApp: newApp, Profile: fleetProf, Instances: 1,
		}},
		Interference: powerdial.FleetUniformShare{},
	})
	if err != nil {
		log.Fatal(err)
	}
	const sloP95 = 1.2 // seconds
	res, err := powerdial.ReplayFleet(sup, powerdial.FleetReplayConfig{
		Rates:    powerdial.Fig8Rates(80, 10, 2026),
		Seed:     7,
		ReqIters: 10,
		SLO:      powerdial.FleetSLO{P95: sloP95},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted Fig. 8 replay (%d rounds, autoscaler, p95 SLO %.1f s):\n", len(res.Points), sloP95)
	fmt.Printf("  autoscaler consolidated between %d and %d instances, mean power %.1f W\n",
		res.MinInstances, res.MaxInstances, res.MeanPower)
	fmt.Printf("  %d requests served, %d SLO violations outside blackout windows (%d blackout rounds)\n",
		res.Completions, res.Violations, res.BlackoutRounds)
}
