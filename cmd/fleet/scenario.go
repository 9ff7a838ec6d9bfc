package main

// The -scenario runner: a JSON spec (internal/spec; field reference in
// docs/SWEEP_FORMAT.md) describes named heterogeneous workload groups —
// each with its own app, instance count, arrival stream, SLO, and
// contention pressure — sharing machines and one power budget.

import (
	"fmt"
	"os"

	"repro/internal/calibrate"
	"repro/internal/fleet"
	"repro/internal/spec"
	"repro/internal/workload"
)

// resolveGroup supplies a -scenario group's app factory and calibrated
// profile: a real benchmark at its input scale, or the synthetic app
// sized by baseCost.
func resolveGroup(g spec.Group) (func() (workload.App, error), *calibrate.Profile, error) {
	app, scale := g.App, g.Scale
	if app == "" {
		app = "synthetic"
	}
	if scale == "" {
		scale = "small"
	}
	return workloadFor(app, scale, g.BaseCost)
}

// runScenario loads a JSON scenario spec, executes it, and prints the
// per-round timeline with per-group columns plus per-group summaries.
func runScenario(o options) error {
	s, err := spec.ReadScenario(o.scenarioPath)
	if err != nil {
		return err
	}
	rounds := s.Rounds
	if rounds == 0 {
		rounds = o.rounds
	}
	if o.workers != 0 {
		s.Workers = o.workers
	}
	if o.fluid != 0 {
		s.Fluid = o.fluid
	}
	// A group without a seed draws its arrivals from its index + 1.
	sup, err := s.Build(resolveGroup, func(gi int) int64 { return int64(gi) + 1 }, o.tracePath != "")
	if err != nil {
		return fmt.Errorf("scenario %s: %w", o.scenarioPath, err)
	}
	faulted, err := applyFaults(sup, o)
	if err != nil {
		return err
	}

	chaos := ""
	if faulted {
		chaos = fmt.Sprintf(", faults from %s", o.faultsPath)
	}
	fmt.Printf("scenario: %d groups on %d machines x %d cores, budget %s%s\n",
		len(s.Groups), s.Machines, s.Cores, watts(s.BudgetWatts()), chaos)
	for gi, g := range s.Groups {
		auto := ""
		if g.SLOP95 > 0 {
			auto = fmt.Sprintf(", autoscaled to p95 %.2fs", g.SLOP95)
		}
		fmt.Printf("  %-10s %d instances, target %.1f beats/s, pressure %.2f%s\n",
			g.Name, g.Instances, sup.TargetOf(gi).Goal(), g.Pressure, auto)
	}
	fmt.Printf("\n%5s | %7s |", "round", "power W")
	for _, g := range s.Groups {
		fmt.Printf(" %-26s |", g.Name+" acc/arr/done/q/p95")
	}
	fmt.Println()

	for r := 0; r < rounds; r++ {
		rs, err := sup.Step(nil)
		if err != nil {
			return err
		}
		fmt.Printf("%5d | %7.1f |", rs.Round, rs.PowerWatts)
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

	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		events := sup.Trace()
		if err := fleet.WriteTraceCSV(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d trace events to %s\n", len(events), o.tracePath)
	}
	return nil
}
