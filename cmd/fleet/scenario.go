package main

// The -scenario runner: a JSON spec describes named heterogeneous
// workload groups — each with its own app, instance count, arrival
// stream, SLO, and contention pressure — sharing machines and one
// power budget. This is the CLI surface of fleet.Scenario.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	powerdial "repro"
	"repro/internal/fleet"
)

// scenarioSpec is the JSON shape accepted by -scenario.
type scenarioSpec struct {
	// Machines / Cores / Budget mirror the same-named flags (defaults
	// 2 / 2 / 400 W). An explicit budget <= 0 means unlimited; omitting
	// the field selects the 400 W default.
	Machines int      `json:"machines"`
	Cores    int      `json:"cores"`
	Budget   *float64 `json:"budget"`
	// Rounds is the quanta to simulate (0 = the -rounds flag).
	Rounds int `json:"rounds"`
	// Workers sizes the shard worker pool large windows fan out to (0 =
	// GOMAXPROCS; 1 = inline on one goroutine — results bit-identical at
	// any value).
	Workers int `json:"workers"`
	// SplitDispatch routes arrivals by seeded uniform split within the
	// group instead of join-shortest-queue.
	SplitDispatch bool `json:"splitDispatch"`
	// Fluid is the hybrid fluid/discrete engine's queue-depth threshold
	// (0 = pure discrete; mirrors the -fluid flag).
	Fluid int `json:"fluid"`
	// ControlDisabled runs open-loop at baseline settings.
	ControlDisabled bool `json:"controlDisabled"`
	// Interference selects the co-residency model: "pressure" (the
	// contention-aware default over the groups' pressure values) or
	// "uniform" (the oracle-validated time-multiplexing reference).
	Interference string `json:"interference"`
	// Groups are the workload groups (required).
	Groups []groupSpec `json:"groups"`
}

// groupSpec is one workload group of the JSON spec.
type groupSpec struct {
	// Name is required and unique.
	Name string `json:"name"`
	// App is the workload: synthetic (default) | swaptions | x264 |
	// bodytrack | swish++.
	App string `json:"app"`
	// Scale is the benchmark input scale (small | medium | large).
	Scale string `json:"scale"`
	// BaseCost sizes one baseline iteration of the synthetic app in
	// work units (0 = the 6e6 default; smaller = faster service).
	BaseCost float64 `json:"baseCost"`
	// Instances is the group's initial instance count.
	Instances int `json:"instances"`
	// Load is the group's arrival process: constant | ramp | spike |
	// saturate | none (default constant).
	Load string `json:"load"`
	// Rate is the mean arrivals per quantum for open-loop loads.
	Rate float64 `json:"rate"`
	// ReqIters sizes each request in stream iterations (0 = whole
	// stream).
	ReqIters int `json:"reqIters"`
	// Seed seeds the group's arrival stream (0 = group index + 1).
	Seed int64 `json:"seed"`
	// Pressure is the group's co-residency contention pressure.
	Pressure float64 `json:"pressure"`
	// SLOP95 attaches a hysteresis autoscaler provisioning the group
	// for this p95 latency bound in seconds (0 = no autoscaler).
	SLOP95 float64 `json:"sloP95"`
	// ScaleMax bounds the group's autoscaler (0 = total cluster cores).
	ScaleMax int `json:"scaleMax"`
}

// readSpec decodes the JSON spec at path into v. Unknown fields are
// errors, so a misspelled or retired key cannot silently run the
// defaults.
func readSpec(kind, path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s %s: %w", kind, path, err)
	}
	if dec.More() {
		return fmt.Errorf("%s %s: trailing data after the JSON object", kind, path)
	}
	return nil
}

// buildGroup resolves one group spec into a fleet.WorkloadGroup.
func buildGroup(gi int, gs groupSpec) (fleet.WorkloadGroup, error) {
	var wg fleet.WorkloadGroup
	if gs.Name == "" {
		return wg, fmt.Errorf("scenario group %d has no name", gi)
	}
	app := gs.App
	if app == "" {
		app = "synthetic"
	}
	var newApp func() (powerdial.App, error)
	var prof *powerdial.Profile
	var err error
	if app == "synthetic" && gs.BaseCost != 0 {
		opts := fleet.SyntheticOptions{BaseCost: gs.BaseCost}
		newApp = func() (powerdial.App, error) { return fleet.NewSynthetic(opts), nil }
		probe, _ := newApp()
		prof, err = powerdial.Calibrate(probe, powerdial.CalibrateOptions{})
	} else {
		scale := gs.Scale
		if scale == "" {
			scale = "small"
		}
		newApp, prof, err = workloadFor(app, scale)
	}
	if err != nil {
		return wg, fmt.Errorf("scenario group %q: %w", gs.Name, err)
	}
	seed := gs.Seed
	if seed == 0 {
		seed = int64(gi) + 1
	}
	var gen *fleet.LoadGen
	switch gs.Load {
	case "", "constant":
		gen = fleet.NewConstantLoad(seed, gs.Rate)
	case "ramp":
		gen = fleet.NewRampLoad(seed, 0, gs.Rate, 15)
	case "spike":
		gen = fleet.NewSpikeLoad(seed, gs.Rate/3, gs.Rate*2, 10, 3)
	case "saturate":
		gen = fleet.NewSaturatingLoad(2)
	case "none":
		gen = nil
	default:
		return wg, fmt.Errorf("scenario group %q: unknown load %q (constant | ramp | spike | saturate | none)", gs.Name, gs.Load)
	}
	if gen != nil {
		gen = gen.WithRequestIters(gs.ReqIters)
	}
	return fleet.WorkloadGroup{
		Name:      gs.Name,
		NewApp:    newApp,
		Profile:   prof,
		Instances: gs.Instances,
		Load:      gen,
		Pressure:  gs.Pressure,
		SLO:       fleet.SLO{P95: gs.SLOP95},
	}, nil
}

// runScenario loads a JSON scenario spec, executes it, and prints the
// per-round timeline with per-group columns plus per-group summaries.
func runScenario(o options) error {
	var spec scenarioSpec
	if err := readSpec("scenario", o.scenarioPath, &spec); err != nil {
		return err
	}
	if spec.Machines == 0 {
		spec.Machines = 2
	}
	if spec.Cores == 0 {
		spec.Cores = 2
	}
	budget := 400.0
	if spec.Budget != nil {
		budget = *spec.Budget
	}
	rounds := spec.Rounds
	if rounds == 0 {
		rounds = o.rounds
	}
	var itf fleet.Interference
	switch spec.Interference {
	case "", "pressure":
		itf = nil // the contention-aware default
	case "uniform":
		itf = fleet.UniformShare{}
	default:
		return fmt.Errorf("scenario: unknown interference %q (pressure | uniform)", spec.Interference)
	}
	sc := fleet.Scenario{
		Machines:        spec.Machines,
		CoresPerMachine: spec.Cores,
		Budget:          budget,
		Workers:         spec.Workers,
		SplitDispatch:   spec.SplitDispatch,
		Fluid:           spec.Fluid,
		ControlDisabled: spec.ControlDisabled,
		Interference:    itf,
		RecordTrace:     o.tracePath != "",
	}
	if o.workers != 0 {
		sc.Workers = o.workers
	}
	if o.fluid != 0 {
		sc.Fluid = o.fluid
	}
	for gi, gs := range spec.Groups {
		wg, err := buildGroup(gi, gs)
		if err != nil {
			return err
		}
		sc.Groups = append(sc.Groups, wg)
	}
	sup, err := fleet.NewScenario(sc)
	if err != nil {
		return err
	}
	// Groups with sloP95 already got the default autoscaler from
	// NewScenario; only an explicit scaleMax needs the override.
	for gi, gs := range spec.Groups {
		if gs.SLOP95 <= 0 || gs.ScaleMax <= 0 {
			continue
		}
		scaler, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{
			SLO: fleet.SLO{P95: gs.SLOP95},
			Max: gs.ScaleMax,
		})
		if err != nil {
			return err
		}
		if err := sup.AutoscaleGroup(gi, scaler, time.Second/2); err != nil {
			return err
		}
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
		len(sc.Groups), spec.Machines, spec.Cores, watts(budget), chaos)
	for gi, wg := range sc.Groups {
		auto := ""
		if spec.Groups[gi].SLOP95 > 0 {
			auto = fmt.Sprintf(", autoscaled to p95 %.2fs", spec.Groups[gi].SLOP95)
		}
		fmt.Printf("  %-10s %d instances, target %.1f beats/s, pressure %.2f%s\n",
			wg.Name, wg.Instances, sup.TargetOf(gi).Goal(), wg.Pressure, auto)
	}
	fmt.Printf("\n%5s | %7s |", "round", "power W")
	for _, wg := range sc.Groups {
		fmt.Printf(" %-26s |", wg.Name+" acc/arr/done/q/p95")
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
