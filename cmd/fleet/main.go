// Command fleet runs the fleet supervisor: N PowerDial runtime
// instances across M simulated machines under a cluster-wide power
// budget, driven by the deterministic discrete-event scheduler, fed by
// an open-loop load generator whose arrivals land at exponentially
// spaced virtual instants. Every mode but -sweep turns its flags into
// one internal/spec Spec, validated like a -scenario file, and builds
// its fleet from that spec.
//
// Usage:
//
//	fleet                                  # 8 instances, 2 machines, 400 W cap
//	fleet -app swaptions -scale small      # a real benchmark as the workload
//	fleet -load spike -rate 6 -rounds 60   # spiky open-loop traffic
//	fleet -budget 400 -drop-to 340 -drop-at 20 -drop-frac 0.5
//	fleet -load constant -rate 4 -req-iters 10 -latency
//	fleet -trace trace.csv                 # export the event-time trace
//	fleet -replay replay.csv -rounds 90    # Fig. 8 autoscaler replay
//	fleet -replay replay.csv -rates recorded.csv -slo-p95 1.5
//	fleet -scenario mix.json               # heterogeneous workload groups
//	fleet -faults chaos.json -resilience r.csv   # chaos: seeded crashes, rack
//	                                             # outages, throttles, sags
//	fleet -serve :8080 -duration 30s       # live wall-clock server: HTTP gateway,
//	                                       # admission control, real-time pacing
//	fleet -serve none -duration 10s -swarm 12 -twin   # in-process client swarm
//	                                                  # with twin feed-forward
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	powerdial "repro"
	"repro/internal/calibrate"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/workload"
)

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // exits on a bad flag
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	err := run(o)
	if o.cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type options struct {
	app, scale, load, tracePath          string
	replayPath, ratesPath, scenarioPath  string
	faultsPath, resiliencePath, plotPath string
	sweepPath, outPath, cpuprofile       string
	serveAddr, latencyHist               string
	machines, cores, instances, rounds   int
	dropAt, reqIters, workers, fluid     int
	scaleMin, scaleMax, procs, reps      int
	admitQueue                           int
	budget, dropTo, dropFrac, rate       float64
	sloP95, swarm                        float64
	duration                             time.Duration
	seed                                 int64
	latency                              bool
	feedforward                          bool
	twin                                 bool
	hdr                                  bool
	instancesSet                         bool // -instances given explicitly
	roundsSet                            bool // -rounds given explicitly
}

// parseFlags parses args with fs into options. -scale-max 0 becomes
// the total cluster core count.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.app, "app", "synthetic", "workload: synthetic | swaptions | x264 | bodytrack | swish++")
	fs.StringVar(&o.scale, "scale", "small", "benchmark input scale: small | medium | large")
	fs.IntVar(&o.machines, "machines", 2, "simulated machine count")
	fs.IntVar(&o.cores, "cores", 2, "cores per machine")
	fs.IntVar(&o.instances, "instances", 8, "application instances to start")
	fs.IntVar(&o.rounds, "rounds", 30, "control quanta to simulate")
	fs.Float64Var(&o.budget, "budget", 400, "cluster power cap in watts (0 = unlimited)")
	fs.Float64Var(&o.dropTo, "drop-to", 0, "change the budget to this many watts mid-run (0 = never)")
	fs.IntVar(&o.dropAt, "drop-at", 0, "round at which the budget change lands")
	fs.Float64Var(&o.dropFrac, "drop-frac", 0, "fraction of the quantum into round -drop-at at which the change lands (0 = boundary, 0.5 = mid-quantum)")
	fs.StringVar(&o.load, "load", "saturate", "arrival process: saturate | constant | ramp | spike")
	fs.Float64Var(&o.rate, "rate", 6, "mean arrivals per quantum (constant/ramp/spike)")
	fs.IntVar(&o.reqIters, "req-iters", 0, "iterations per request work item (0 = whole stream)")
	fs.Int64Var(&o.seed, "seed", 1, "load generator seed")
	fs.IntVar(&o.workers, "workers", 0, "shard worker pool size: 0 = GOMAXPROCS, 1 = run the per-host shards inline on one goroutine, N>1 = an N-worker pool for windows holding more than a few dozen events (smaller ones run inline; bit-identical results at any value)")
	fs.IntVar(&o.fluid, "fluid", 0, "hybrid fluid/discrete engine: instances whose queue reaches this depth leave the event timeline and drain analytically until the backlog falls below half the threshold (0 = pure discrete)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&o.plotPath, "plot", "", "with -replay or -sweep: also render an SVG figure (replay timeline / sweep trend panels) here")
	fs.BoolVar(&o.feedforward, "feedforward", false, "replay: clamp autoscaler proposals to ±1 of the M/D/1 planner at the smoothed arrival rate (model-informed damping)")
	fs.BoolVar(&o.latency, "latency", false, "print per-instance p50/p95/p99 request latency")
	fs.StringVar(&o.tracePath, "trace", "", "write the event-time trace to this CSV file")
	fs.StringVar(&o.replayPath, "replay", "", "run the Fig. 8 autoscaler replay and write its per-quantum CSV here")
	fs.StringVar(&o.scenarioPath, "scenario", "", "run a heterogeneous scenario from this JSON spec (named workload groups with per-group apps, loads, SLOs, and contention pressure)")
	fs.StringVar(&o.ratesPath, "rates", "", "recorded arrival trace for -replay (one mean-arrivals-per-quantum per line; default: synthetic Fig. 8 shape at peak -rate)")
	fs.StringVar(&o.faultsPath, "faults", "", "inject faults from this JSON spec (seeded crash/rack-outage/throttle/straggler/sag rates, or an explicit schedule)")
	fs.StringVar(&o.resiliencePath, "resilience", "", "write the per-fault resilience CSV here (requires -faults)")
	fs.Float64Var(&o.sloP95, "slo-p95", 1.2, "p95 request-latency SLO in seconds the replay autoscaler provisions for")
	fs.IntVar(&o.scaleMin, "scale-min", 1, "replay autoscaler lower instance bound")
	fs.IntVar(&o.scaleMax, "scale-max", 0, "replay autoscaler upper instance bound (0 = total cluster cores)")
	fs.StringVar(&o.serveAddr, "serve", "", "run as a live wall-clock server: HTTP gateway address (e.g. :8080), or 'none' for the in-process -swarm only")
	fs.DurationVar(&o.duration, "duration", 30*time.Second, "with -serve: wall-clock time to serve (one round per quantum)")
	fs.Float64Var(&o.swarm, "swarm", 0, "with -serve: in-process open-loop client swarm rate in requests/sec (0 = none)")
	fs.BoolVar(&o.twin, "twin", false, "with -serve: autoscale with the digital twin's faster-than-real-time what-if advice clamping the hysteresis policy")
	fs.IntVar(&o.admitQueue, "admit-queue", 8, "with -serve: shed new requests once a group's backlog reaches this many per accepting instance")
	fs.StringVar(&o.latencyHist, "latency-hist", "", "with -serve: write the request-latency histogram CSV here")
	fs.StringVar(&o.sweepPath, "sweep", "", "run a Monte Carlo parameter sweep from this grid-spec JSON (see docs/SWEEP_FORMAT.md); aggregated CSV goes to stdout or -out")
	fs.StringVar(&o.outPath, "out", "", "with -sweep: write the CSV here instead of stdout")
	fs.IntVar(&o.procs, "procs", 0, "with -sweep: worker pool size (0 = NumCPU; output is byte-identical at any value)")
	fs.IntVar(&o.reps, "reps", 0, "with -sweep: override the grid's replications per cell")
	fs.BoolVar(&o.hdr, "hdr", false, "with -sweep: print the CSV schema line for the grid and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) {
		o.instancesSet = o.instancesSet || f.Name == "instances"
		o.roundsSet = o.roundsSet || f.Name == "rounds"
	})
	if o.scaleMax <= 0 {
		o.scaleMax = o.machines * o.cores
	}
	return o, nil
}

// resolveGroup is every mode's spec.Resolver: a group's app factory and
// calibrated profile — a real benchmark at its input scale (default
// small), or the synthetic app (the default) sized by baseCost.
func resolveGroup(g spec.Group) (func() (workload.App, error), *calibrate.Profile, error) {
	if g.App == "" || g.App == "synthetic" {
		opts := fleet.SyntheticOptions{BaseCost: g.BaseCost}
		newApp := func() (workload.App, error) { return fleet.NewSynthetic(opts), nil }
		probe, _ := newApp()
		prof, err := powerdial.Calibrate(probe, powerdial.CalibrateOptions{})
		return newApp, prof, err
	}
	scale := g.Scale
	if scale == "" {
		scale = "small"
	}
	sc, err := powerdial.ParseScale(scale)
	if err != nil {
		return nil, nil, err
	}
	probe, err := powerdial.NewBenchmark(g.App, sc)
	if err != nil {
		return nil, nil, err
	}
	settings, err := powerdial.SweepSettings(probe, sc)
	if err != nil {
		return nil, nil, err
	}
	prof, err := powerdial.Calibrate(probe, powerdial.CalibrateOptions{Settings: settings})
	if err != nil {
		return nil, nil, err
	}
	newApp := func() (workload.App, error) { return powerdial.NewBenchmark(g.App, sc) }
	return newApp, prof, nil
}

// quantum is the control quantum of every run mode.
const quantum = time.Second

// flagSpec is the fleet the flags describe, as one spec validated for
// spec.CLI, so a flag passes the same guard rails as the spec field it
// sets. -scenario reads its file and applies the -workers and -fluid
// overrides before validating. Otherwise the spec holds one group of
// -instances copies of -app: "web" under the pressure model for -serve,
// and "default" under the uniform-share model the oracle cross-checks
// assume for the plain run and -replay. -replay and -serve drive
// arrivals themselves, so their group's load is "none".
func flagSpec(o options) (*spec.Spec, error) {
	if o.scenarioPath != "" && o.serveAddr == "" {
		s, err := spec.ReadScenario(o.scenarioPath)
		if err != nil {
			return nil, err
		}
		if o.workers != 0 {
			s.Workers = o.workers
		}
		if o.fluid != 0 {
			s.Fluid = o.fluid
		}
		if s.Rounds == 0 {
			s.Rounds = o.rounds
		}
		if err := s.Validate(spec.CLI); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", o.scenarioPath, err)
		}
		return s, nil
	}
	g := spec.Group{
		Name: "default", App: o.app, Scale: o.scale, Instances: o.instances,
		Load: o.load, Rate: o.rate, ReqIters: o.reqIters,
	}
	s := &spec.Spec{
		Machines: o.machines, Cores: o.cores, Budget: &o.budget, Rounds: o.rounds,
		Workers: o.workers, Fluid: o.fluid, Interference: "uniform",
	}
	switch {
	case o.serveAddr != "":
		g.Name, g.Load, s.Interference = "web", "none", ""
	case o.replayPath != "":
		// Initial provisioning: the autoscaler's lower bound, unless
		// -instances was given explicitly (clamped to the scaling bounds).
		g.Load, g.Instances = "none", o.scaleMin
		if o.instancesSet {
			g.Instances = min(max(o.instances, o.scaleMin), o.scaleMax)
		}
	}
	s.Groups = []spec.Group{g}
	if err := s.Validate(spec.CLI); err != nil {
		return nil, err
	}
	return s, nil
}

// newFleet resolves the validated spec s with resolveGroup and
// constructs its fleet. seed(gi) is group gi's arrival seed when the
// spec leaves it 0.
func newFleet(s *spec.Spec, seed func(gi int) int64, trace bool) (fleet.Scenario, *fleet.Supervisor, error) {
	sc, err := s.Scenario(resolveGroup, seed, trace)
	if err != nil {
		return fleet.Scenario{}, nil, err
	}
	sup, err := s.Build(sc)
	return sc, sup, err
}

// scheduleDrop lands the -drop-to budget change -drop-frac of the way
// into round -drop-at: a mid-quantum cap event (none when -drop-to is
// 0). It stays a flag on the built fleet because a spec describes a
// fleet, not a stimulus: it has no field for a timed cap step.
func scheduleDrop(sup *fleet.Supervisor, o options) {
	if o.dropTo == 0 {
		return
	}
	at := time.Unix(0, 0).
		Add(time.Duration(o.dropAt) * quantum).
		Add(time.Duration(o.dropFrac * float64(quantum)))
	sup.SetBudgetAt(at, o.dropTo)
}

func run(o options) error {
	if o.sweepPath != "" {
		rounds := 0
		if o.roundsSet {
			rounds = o.rounds
		}
		return sweep.Exec(sweep.ExecConfig{
			GridPath: o.sweepPath,
			Procs:    o.procs,
			Reps:     o.reps,
			Rounds:   rounds,
			OutPath:  o.outPath,
			PlotPath: o.plotPath,
			Hdr:      o.hdr,
			Log:      os.Stderr,
		})
	}
	// Every other mode's fleet is a validated spec before any of it is
	// built.
	s, err := flagSpec(o)
	if err != nil {
		return err
	}
	switch {
	case o.serveAddr != "":
		return runServe(o, s)
	case o.scenarioPath != "":
		return runScenario(o, s)
	case o.replayPath != "":
		return runReplay(o, s)
	}
	// The group's own load draws from -seed, 0 included: only a spec
	// group's seed field reads 0 as "derive".
	sc, sup, err := newFleet(s, func(int) int64 { return o.seed }, o.tracePath != "")
	if err != nil {
		return err
	}
	faulted, err := applyFaults(sup, o)
	if err != nil {
		return err
	}
	scheduleDrop(sup, o)

	chaos := ""
	if faulted {
		chaos = fmt.Sprintf(", faults from %s", o.faultsPath)
	}
	fmt.Printf("fleet: %d instances of %s on %d machines x %d cores, budget %s, %s load%s\n",
		o.instances, o.app, o.machines, o.cores, watts(o.budget), o.load, chaos)
	fmt.Printf("target heart rate: %.1f beats/sec per instance\n\n", sup.Target().Goal())
	fmt.Printf("%5s | %7s | %7s | %-14s | %5s | %6s | %5s | %4s | %-17s\n",
		"round", "budget", "power W", "GHz per host", "perf", "loss %", "queue", "done", "p50/p95/p99 s")

	for r := 0; r < s.Rounds; r++ {
		rs, err := sup.Step(nil)
		if err != nil {
			return err
		}
		// Per-host frequencies, elided past 8 hosts: a thousand-host row
		// would bury the fleet counters it sits between.
		freqs := ""
		for i, h := range rs.Hosts {
			if i == 8 {
				freqs += fmt.Sprintf(" …(%d hosts)", len(rs.Hosts))
				break
			}
			if i > 0 {
				freqs += " "
			}
			freqs += fmt.Sprintf("%.2f", h.FreqGHz)
		}
		fmt.Printf("%5d | %7s | %7.1f | %-14s | %5.2f | %6.2f | %5d | %4d | %5.2f %5.2f %5.2f\n",
			rs.Round, watts(rs.Budget), rs.PowerWatts, freqs,
			rs.MeanNormPerf, rs.RequestLoss*100, rs.QueueDepth, rs.Completions,
			rs.LatencyP50, rs.LatencyP95, rs.LatencyP99)
	}

	rep := sup.Report()
	fmt.Printf("\nsummary: %d requests (%d aborted), mean power %.1f W, energy %.0f J\n",
		rep.Completions, rep.Aborted, rep.MeanPower, rep.TotalEnergyJ)
	fmt.Printf("latency: mean %.2f s, p50 %.2f s, p95 %.2f s, p99 %.2f s; mean request QoS loss %.2f%%\n",
		rep.MeanLatency, rep.P50Latency, rep.P95Latency, rep.P99Latency, rep.MeanRequestLoss*100)
	if err := reportResilience(rep.Resilience, o); err != nil {
		return err
	}

	if o.latency {
		fmt.Printf("\n%8s | %6s | %7s | %7s | %7s\n", "instance", "done", "p50 s", "p95 s", "p99 s")
		for _, il := range rep.PerInstance {
			fmt.Printf("%8d | %6d | %7.3f | %7.3f | %7.3f\n", il.ID, il.Completions, il.P50, il.P95, il.P99)
		}
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

	// Close the loop against the analytic oracle for the saturating case.
	if o.load == "saturate" {
		oracle, err := cluster.NewOracle(o.machines, o.cores, sc.Groups[0].Profile, powerdial.DefaultPowerModel(), platform.Frequencies[0])
		if err != nil {
			return err
		}
		pred, err := oracle.Predict(o.instances)
		if err != nil {
			return err
		}
		fmt.Printf("oracle (uncapped): per-instance speedup %.2fx, loss %.2f%%, cluster power %.1f W\n",
			pred.Speedup, pred.Loss*100, pred.PowerWatts)
	}
	return nil
}

// runReplay is the Fig. 8 replay harness: a spiky arrival trace
// (recorded via -rates, or the synthetic Fig. 8 shape peaking at -rate)
// is fed through the autoscaled fleet on the event timeline, the
// per-quantum consolidation timeline is written as CSV, and the
// autoscaler's steady-state provisioning is cross-checked against the
// M/D/1 planner.
func runReplay(o options, s *spec.Spec) error {
	if o.reqIters == 0 {
		// Replay queues per-iteration work items so latency percentiles
		// reflect queueing at request granularity.
		o.reqIters = 10
	}
	_, sup, err := newFleet(s, func(int) int64 { return o.seed }, o.tracePath != "")
	if err != nil {
		return err
	}
	faulted, err := applyFaults(sup, o)
	if err != nil {
		return err
	}
	// Service time per request follows from the per-instance target
	// heart rate; the M/D/1 cross-check below and the optional
	// feed-forward planner share it.
	service := float64(o.reqIters) / sup.Target().Goal()
	scalerCfg := fleet.HysteresisConfig{
		SLO: fleet.SLO{P95: o.sloP95},
		Min: o.scaleMin,
		Max: o.scaleMax,
	}
	if o.feedforward {
		scalerCfg.Planner = &fleet.PlannerConfig{Service: service, Quantum: quantum}
	}
	scaler, err := fleet.NewHysteresisScaler(scalerCfg)
	if err != nil {
		return err
	}

	var rates []float64
	if o.ratesPath != "" {
		f, err := os.Open(o.ratesPath)
		if err != nil {
			return err
		}
		rates, err = fleet.ReadRatesCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(rates) == 0 {
			return fmt.Errorf("rates file %s holds no rates", o.ratesPath)
		}
	} else {
		rates = fleet.Fig8Rates(o.rounds, o.rate, o.seed)
	}
	scheduleDrop(sup, o)

	chaos := ""
	if faulted {
		chaos = fmt.Sprintf(", faults from %s", o.faultsPath)
	}
	fmt.Printf("replay: %s on %d machines x %d cores, budget %s, %d-round trace, p95 SLO %.2f s, instances [%d,%d], %d iters/request%s\n",
		o.app, o.machines, o.cores, watts(o.budget), len(rates), o.sloP95, o.scaleMin, o.scaleMax, o.reqIters, chaos)
	res, err := fleet.Replay(sup, fleet.ReplayConfig{
		Rates:    rates,
		Seed:     o.seed,
		ReqIters: o.reqIters,
		Scaler:   scaler,
		SLO:      fleet.SLO{P95: o.sloP95},
	})
	if err != nil {
		return err
	}

	fmt.Printf("%5s | %5s | %4s | %4s | %4s | %7s | %6s | %5s | %s\n",
		"round", "rate", "inst", "want", "arr", "power W", "p95 s", "queue", "flags")
	for _, pt := range res.Points {
		flags := ""
		if pt.Scaled {
			flags += "scaled "
		}
		if pt.Blackout {
			flags += "blackout "
		}
		if pt.SLOViolated {
			flags += "SLO!"
		}
		fmt.Printf("%5d | %5.1f | %4d | %4d | %4d | %7.1f | %6.2f | %5d | %s\n",
			pt.Round, pt.Rate, pt.Instances, pt.Desired, pt.Arrivals,
			pt.PowerWatts, pt.P95, pt.QueueDepth, flags)
	}
	fmt.Printf("\nreplay summary: instances ranged [%d,%d], mean power %.1f W, %d completions\n",
		res.MinInstances, res.MaxInstances, res.MeanPower, res.Completions)
	fmt.Printf("SLO: %d violations outside blackout windows (%d blackout rounds of %d)\n",
		res.Violations, res.BlackoutRounds, len(res.Points))
	if err := reportResilience(sup.Report().Resilience, o); err != nil {
		return err
	}

	// Cross-check the autoscaler's provisioning against the M/D/1
	// planner at the trace's trough and peak rates.
	trough, peak := rates[0], rates[0]
	for _, r := range rates {
		if r < trough {
			trough = r
		}
		if r > peak {
			peak = r
		}
	}
	for _, pt := range []struct {
		name string
		rate float64
	}{{"trough", trough}, {"peak", peak}} {
		n, ok := cluster.PlanInstances(pt.rate/quantum.Seconds(), service, 0.95, o.sloP95, o.scaleMax)
		feas := ""
		if !ok {
			feas = " (infeasible at this bound)"
		}
		fmt.Printf("M/D/1 planner: %s rate %.1f/q, service %.2f s -> %d instances%s\n",
			pt.name, pt.rate, service, n, feas)
	}

	f, err := os.Create(o.replayPath)
	if err != nil {
		return err
	}
	if err := fleet.WriteReplayCSV(f, res.Points); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d replay rows to %s\n", len(res.Points), o.replayPath)

	if o.plotPath != "" {
		f, err := os.Create(o.plotPath)
		if err != nil {
			return err
		}
		if err := fleet.WriteReplaySVG(f, res.Points); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote replay figure to %s\n", o.plotPath)
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
		fmt.Printf("wrote %d trace events to %s\n", len(events), o.tracePath)
	}
	return nil
}

func watts(w float64) string {
	if w <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f", w)
}
