package main

// The -scenario runner: a JSON spec (internal/spec; field reference in
// docs/SWEEP_FORMAT.md) describes named heterogeneous workload groups —
// each with its own app, instance count, arrival stream, SLO, and
// contention pressure — sharing machines and one power budget.

import (
	"fmt"

	"repro/internal/spec"
)

// runScenario executes the validated -scenario spec s and prints the
// per-round timeline with per-group columns plus per-group summaries.
// A spec with caps gets a budget column.
func runScenario(o options, s *spec.Spec) error {
	// A group without a seed draws its arrivals from its index + 1.
	_, sup, err := newFleet(s, func(gi int) int64 { return int64(gi) + 1 }, o.tracePath != "")
	if err != nil {
		return fmt.Errorf("scenario %s: %w", o.scenarioPath, err)
	}
	capped := len(s.Caps) > 0

	fmt.Printf("scenario: %d groups on %d machines x %d cores, budget %s%s\n",
		len(s.Groups), s.Machines, s.Cores, watts(s.BudgetWatts()), faultsNote(o))
	for gi, g := range s.Groups {
		auto := ""
		if g.SLOP95 > 0 {
			auto = fmt.Sprintf(", autoscaled to p95 %.2fs", g.SLOP95)
		}
		fmt.Printf("  %-10s %d instances, target %.1f beats/s, pressure %.2f%s\n",
			g.Name, g.Instances, sup.TargetOf(gi).Goal(), g.Pressure, auto)
	}
	fmt.Printf("\n%5s |", "round")
	if capped {
		fmt.Printf(" %7s |", "budget")
	}
	fmt.Printf(" %7s |", "power W")
	for _, g := range s.Groups {
		fmt.Printf(" %-26s |", g.Name+" acc/arr/done/q/p95")
	}
	fmt.Println()

	for r := 0; r < s.Rounds; r++ {
		rs, err := sup.Step(nil)
		if err != nil {
			return err
		}
		fmt.Printf("%5d |", rs.Round)
		if capped {
			fmt.Printf(" %7s |", watts(rs.Budget))
		}
		fmt.Printf(" %7.1f |", rs.PowerWatts)
		for _, gs := range rs.Groups {
			fmt.Printf(" %3d %4d %4d %4d %6.2f |",
				gs.Accepting, gs.Arrivals, gs.Completions, gs.QueueDepth, gs.LatencyP95)
		}
		fmt.Println()
	}

	rep := sup.Report()
	fmt.Printf("\nsummary: %d requests (%d aborted), mean power %.1f W, energy %.0f J\n",
		rep.Completions, rep.Aborted, rep.MeanPower, rep.TotalEnergyJ)
	fmt.Printf("%-10s | %6s | %7s | %7s | %7s | %7s\n", "group", "done", "mean s", "p95 s", "p99 s", "loss %")
	for _, gr := range rep.PerGroup {
		fmt.Printf("%-10s | %6d | %7.3f | %7.3f | %7.3f | %7.2f\n",
			gr.Group, gr.Completions, gr.MeanLatency, gr.P95Latency, gr.P99Latency, gr.MeanRequestLoss*100)
	}
	if err := reportResilience(rep.Resilience, o); err != nil {
		return err
	}
	return writeTrace(sup, o, "\n")
}
