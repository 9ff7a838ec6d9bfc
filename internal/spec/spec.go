// Package spec owns the scenario JSON that describes a fleet: the
// fleet-level fields, the workload groups, and the fault model. Two
// consumers read it — cmd/fleet, whose flags and -scenario and -faults
// files all become a spec, and every cell of an internal/sweep grid —
// through one strict decoder (Decode), one validation carrying the guard
// rails (Spec.Validate), and one builder from a spec to a
// *fleet.Supervisor (Spec.Scenario, then Spec.Build), so a swept
// confidence interval describes the same fleet as the single run built
// from the same spec. docs/SWEEP_FORMAT.md is the field reference.
package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/calibrate"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// Consumer names who reads a spec. Both read one format and accept
// every field but the few a grid owns itself: a grid sets the horizon
// (its own rounds), runs only the synthetic app, and derives every
// seed from the replication seed, so it rejects rounds, a group's app,
// scale and seed, and the fault seed, naming the field.
type Consumer int

const (
	// CLI is cmd/fleet: its flags and its -scenario and -faults files.
	CLI Consumer = iota
	// Grid is a cell of a sweep grid.
	Grid
)

func (c Consumer) String() string {
	if c == Grid {
		return "a sweep grid"
	}
	return "a -scenario spec"
}

// Spec is one fleet. Zero values select the defaults.
type Spec struct {
	// Machines / Cores size the cluster (defaults 2 / 2).
	Machines int `json:"machines"`
	Cores    int `json:"cores"`
	// Budget is the cluster power cap in watts: omitted = 400, an
	// explicit value <= 0 = unlimited.
	Budget *float64 `json:"budget"`
	// Rounds is the quanta to simulate (CLI only; 0 = the -rounds flag).
	Rounds int `json:"rounds"`
	// Workers sizes the engine's shard worker pool (0 = GOMAXPROCS;
	// results are bit-identical at any value).
	Workers int `json:"workers"`
	// ArbiterIntervalMs is the arbiter tick period in milliseconds (0 =
	// the 1 s control quantum).
	ArbiterIntervalMs float64 `json:"arbiterIntervalMs"`
	// Fluid is the hybrid fluid/discrete engine's queue-depth threshold
	// (0 = pure discrete).
	Fluid int `json:"fluid"`
	// SplitDispatch routes arrivals by seeded uniform split within the
	// group instead of join-shortest-queue; ControlDisabled runs
	// open-loop at baseline settings.
	SplitDispatch   bool `json:"splitDispatch"`
	ControlDisabled bool `json:"controlDisabled"`
	// Interference selects the co-residency model: "pressure" (the
	// contention-aware default over the groups' pressure values) or
	// "uniform" (the oracle-validated time-multiplexing reference).
	Interference string `json:"interference"`
	// Faults is the fault model. Nil injects nothing.
	Faults *Faults `json:"faults"`
	// Caps are timed cluster-budget changes, landed in order of AtS
	// (ties in list order).
	Caps []Cap `json:"caps"`
	// Groups are the workload groups (required, unique names).
	Groups []Group `json:"groups"`
}

// Group is one workload group.
type Group struct {
	// Name is required and unique.
	Name string `json:"name"`
	// App is the workload: synthetic (default) | swaptions | x264 |
	// bodytrack | swish++; Scale is its input scale: small (default) |
	// medium | large. CLI only: a grid always runs the synthetic app.
	App   string `json:"app"`
	Scale string `json:"scale"`
	// BaseCost sizes one baseline iteration of the synthetic app in
	// work units (0 = the 6e6 default; smaller = faster service).
	BaseCost float64 `json:"baseCost"`
	// Instances is the initial instance count (>= 1 unless SLOP95
	// attaches an autoscaler).
	Instances int `json:"instances"`
	// Load is the arrival process: constant (default) | ramp | spike |
	// saturate | none; Rate is its mean arrivals per quantum.
	Load string  `json:"load"`
	Rate float64 `json:"rate"`
	// ReqIters sizes each request in stream iterations (0 = whole
	// stream).
	ReqIters int `json:"reqIters"`
	// Seed seeds the arrival stream (CLI only; 0 = the seed Build
	// derives for the group).
	Seed int64 `json:"seed"`
	// Pressure is the group's co-residency contention pressure.
	Pressure float64 `json:"pressure"`
	// SLOP95 attaches a hysteresis autoscaler provisioning the group for
	// this p95 latency bound in seconds (0 = none); ScaleMax bounds it
	// (0 = total cluster cores).
	SLOP95   float64 `json:"sloP95"`
	ScaleMax int     `json:"scaleMax"`
}

// Cap is one timed budget change: from AtS virtual seconds after the
// run epoch the cluster cap is Watts (<= 0 = unlimited, as for the
// spec's budget).
type Cap struct {
	AtS   float64 `json:"atS"`
	Watts float64 `json:"watts"`
}

// Faults is the fault model: the seeded stochastic model's parameters,
// or an explicit schedule, which replaces the stochastic model when it
// is non-empty.
type Faults struct {
	// Redispatch re-offers a crashed host's in-flight and queued
	// requests within their group; false drops (and counts) them.
	Redispatch bool `json:"redispatch"`
	// Seed seeds the stochastic model (CLI only; default 1).
	Seed int64 `json:"seed"`
	// Racks labels hosts with racks for correlated outages: host i
	// belongs to racks[i % len(racks)].
	Racks []string `json:"racks"`
	// Per-class mean fault counts per round (Poisson; 0 disables).
	CrashRate     float64 `json:"crashRate"`
	RackRate      float64 `json:"rackRate"`
	ThrottleRate  float64 `json:"throttleRate"`
	StragglerRate float64 `json:"stragglerRate"`
	SagRate       float64 `json:"sagRate"`
	// Mean fault durations in seconds (defaults 2 / 3 / 3 / 2).
	MeanOutageS   float64 `json:"meanOutageS"`
	MeanThrottleS float64 `json:"meanThrottleS"`
	MeanSlowS     float64 `json:"meanSlowS"`
	MeanSagS      float64 `json:"meanSagS"`
	// ThrottleFloor is the DVFS clamp state (0 = second-slowest).
	ThrottleFloor int `json:"throttleFloor"`
	// SlowFactor is the straggler slowdown (0 = 2).
	SlowFactor float64 `json:"slowFactor"`
	// SagFactor is the sag budget scale (0 = 0.6).
	SagFactor float64 `json:"sagFactor"`
	// Schedule pins explicit fault events.
	Schedule []FaultEvent `json:"schedule"`
}

// FaultEvent is one explicit fault.
type FaultEvent struct {
	// Kind is crash | throttle | straggler | sag.
	Kind string `json:"kind"`
	// AtS is the landing instant in virtual seconds since the run
	// epoch; DurationS is the fault window length in seconds.
	AtS       float64 `json:"atS"`
	DurationS float64 `json:"durationS"`
	// Host is the target host index (omitted = -1).
	Host *int `json:"host"`
	// Rack is the correlation label for rack-outage crashes.
	Rack string `json:"rack"`
	// State is the throttle clamp (platform.Frequencies index).
	State int `json:"state"`
	// Factor is the straggler slowdown (> 1) or sag scale (in (0,1)).
	Factor float64 `json:"factor"`
	// Instance pins a straggler target id (omitted = -1: lowest-id
	// live resident of Host).
	Instance *int `json:"instance"`
}

var faultKinds = map[string]fleet.FaultKind{
	"crash":     fleet.FaultCrash,
	"throttle":  fleet.FaultThrottle,
	"straggler": fleet.FaultStraggler,
	"sag":       fleet.FaultSag,
}

// Guard rails: a spec is an experiment description, not a
// denial-of-service vector — Validate rejects anything past these
// bounds with an error.
const (
	maxMachines  = 4096
	maxInstances = 4096
	maxRate      = 1e5
	minBaseCost  = 1e4
	maxBaseCost  = 1e10
	maxCaps      = 1024
	maxCapAtS    = 1e6
)

// Decode decodes data, which must hold exactly one JSON object, into v.
// Unknown fields and trailing data are errors, so a misspelled or
// retired key cannot silently run the defaults.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// ReadScenario decodes a cmd/fleet -scenario file and fills in its
// defaults. The caller validates it (Validate(CLI)) once its command-line
// overrides are applied, so the overrides pass the same guard rails.
func ReadScenario(path string) (*Spec, error) {
	var s Spec
	if err := readFile(path, &s); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", path, err)
	}
	s.Defaults()
	return &s, nil
}

// ReadFaults decodes and validates a cmd/fleet -faults file. Unlike an
// inline model, which may sit idle, a -faults file exists to inject
// something: without a schedule, some rate must be positive.
func ReadFaults(path string) (*Faults, error) {
	var f Faults
	err := readFile(path, &f)
	if err == nil {
		err = f.validate(CLI)
	}
	if err == nil && len(f.Schedule) == 0 && f.CrashRate+f.RackRate+f.ThrottleRate+f.StragglerRate+f.SagRate == 0 {
		err = errors.New("no schedule and every rate is zero; nothing would ever fail")
	}
	if err != nil {
		return nil, fmt.Errorf("faults %s: %w", path, err)
	}
	return &f, nil
}

func readFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Decode(data, v)
}

// notAccepted names a field its consumer does not take.
func notAccepted(c Consumer, field string) error {
	return fmt.Errorf("field %q is not accepted in %s", field, c)
}

// Defaults fills in the cluster size a decoded spec omits: 2 machines
// of 2 cores. Validate leaves a zero alone and rejects it, so a caller
// with defaults of its own, such as cmd/fleet's flags, cannot pass a 0
// that silently reads as the default.
func (s *Spec) Defaults() {
	if s.Machines == 0 {
		s.Machines = 2
	}
	if s.Cores == 0 {
		s.Cores = 2
	}
}

// Validate checks s for consumer c. Every error names the offending
// field.
func (s *Spec) Validate(c Consumer) error {
	if c == Grid && s.Rounds != 0 {
		return notAccepted(c, "rounds")
	}
	if s.Machines < 1 || s.Machines > maxMachines {
		return fmt.Errorf("machines %d outside [1, %d]", s.Machines, maxMachines)
	}
	if s.Cores < 1 || s.Cores > 64 {
		return fmt.Errorf("cores %d outside [1, 64]", s.Cores)
	}
	if s.Rounds < 0 {
		return fmt.Errorf("rounds %d < 0", s.Rounds)
	}
	if s.Workers < 0 || s.Workers > 256 {
		return fmt.Errorf("workers %d outside [0, 256]", s.Workers)
	}
	if s.ArbiterIntervalMs < 0 || s.ArbiterIntervalMs > 1000 {
		return fmt.Errorf("arbiterIntervalMs %v outside [0, 1000]", s.ArbiterIntervalMs)
	}
	if s.Fluid < 0 {
		return fmt.Errorf("fluid %d < 0", s.Fluid)
	}
	switch s.Interference {
	case "", "pressure", "uniform":
	default:
		return fmt.Errorf("unknown interference %q (pressure | uniform)", s.Interference)
	}
	if s.Faults != nil {
		if err := s.Faults.validate(c); err != nil {
			return fmt.Errorf("faults: %w", err)
		}
	}
	if len(s.Caps) > maxCaps {
		return fmt.Errorf("%d caps, max %d", len(s.Caps), maxCaps)
	}
	for i, cp := range s.Caps {
		if !(cp.AtS >= 0 && cp.AtS <= maxCapAtS) {
			return fmt.Errorf("caps[%d] atS %v outside [0, %v]", i, cp.AtS, float64(maxCapAtS))
		}
	}
	if len(s.Groups) == 0 {
		return errors.New("spec has no groups")
	}
	names := map[string]bool{}
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Name == "" {
			return fmt.Errorf("group %d has no name", i)
		}
		if names[g.Name] {
			return fmt.Errorf("duplicate group %q", g.Name)
		}
		names[g.Name] = true
		if err := g.validate(c); err != nil {
			return fmt.Errorf("group %q: %w", g.Name, err)
		}
	}
	return nil
}

func (g *Group) validate(c Consumer) error {
	switch {
	case c == Grid && g.App != "":
		return notAccepted(c, "app")
	case c == Grid && g.Scale != "":
		return notAccepted(c, "scale")
	case c == Grid && g.Seed != 0:
		return notAccepted(c, "seed")
	}
	if g.BaseCost != 0 && (g.BaseCost < minBaseCost || g.BaseCost > maxBaseCost) {
		return fmt.Errorf("baseCost %v outside [%v, %v]", g.BaseCost, float64(minBaseCost), float64(maxBaseCost))
	}
	if g.Instances < 0 || g.Instances > maxInstances {
		return fmt.Errorf("instances %d outside [0, %d]", g.Instances, maxInstances)
	}
	if g.Instances == 0 && g.SLOP95 <= 0 {
		return errors.New("no instances and no autoscaler (sloP95)")
	}
	switch g.Load {
	case "", "constant", "ramp", "spike", "saturate", "none":
	default:
		return fmt.Errorf("unknown load %q (constant | ramp | spike | saturate | none)", g.Load)
	}
	if g.Rate < 0 || g.Rate > maxRate {
		return fmt.Errorf("rate %v outside [0, %v]", g.Rate, float64(maxRate))
	}
	if g.ReqIters < 0 || g.ReqIters > 1e6 {
		return fmt.Errorf("reqIters %d outside [0, 1e6]", g.ReqIters)
	}
	if g.Pressure < 0 || g.Pressure > 100 {
		return fmt.Errorf("pressure %v outside [0, 100]", g.Pressure)
	}
	if g.SLOP95 < 0 || g.SLOP95 > 1e6 {
		return fmt.Errorf("sloP95 %v outside [0, 1e6]", g.SLOP95)
	}
	if g.ScaleMax < 0 || g.ScaleMax > maxInstances {
		return fmt.Errorf("scaleMax %d outside [0, %d]", g.ScaleMax, maxInstances)
	}
	return nil
}

func (f *Faults) validate(c Consumer) error {
	if c == Grid && f.Seed != 0 {
		return notAccepted(c, "seed")
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"crashRate", f.CrashRate}, {"rackRate", f.RackRate},
		{"throttleRate", f.ThrottleRate}, {"stragglerRate", f.StragglerRate},
		{"sagRate", f.SagRate},
	} {
		if r.v < 0 || r.v > 100 {
			return fmt.Errorf("%s %v outside [0, 100]", r.name, r.v)
		}
	}
	for _, d := range []struct {
		name string
		v    float64
	}{
		{"meanOutageS", f.MeanOutageS}, {"meanThrottleS", f.MeanThrottleS},
		{"meanSlowS", f.MeanSlowS}, {"meanSagS", f.MeanSagS},
	} {
		if d.v < 0 || d.v > 1e6 {
			return fmt.Errorf("%s %v outside [0, 1e6]", d.name, d.v)
		}
	}
	if len(f.Racks) > 64 {
		return fmt.Errorf("%d racks, max 64", len(f.Racks))
	}
	for i, e := range f.Schedule {
		if _, ok := faultKinds[e.Kind]; !ok {
			return fmt.Errorf("schedule[%d] has unknown kind %q (crash | throttle | straggler | sag)", i, e.Kind)
		}
	}
	return nil
}

// Clone deep-copies s, so the copy's groups, budget, caps and faults
// can be modified without touching s.
func (s Spec) Clone() Spec {
	out := s
	out.Groups = append([]Group(nil), s.Groups...)
	out.Caps = append([]Cap(nil), s.Caps...)
	if s.Budget != nil {
		b := *s.Budget
		out.Budget = &b
	}
	if s.Faults != nil {
		f := *s.Faults
		f.Racks = append([]string(nil), s.Faults.Racks...)
		f.Schedule = append([]FaultEvent(nil), s.Faults.Schedule...)
		out.Faults = &f
	}
	return out
}

// BudgetWatts is the cluster power cap: 400 W when the spec omits it.
func (s *Spec) BudgetWatts() float64 {
	if s.Budget == nil {
		return 400
	}
	return *s.Budget
}

// Resolver supplies a group's per-instance app factory and calibrated
// profile.
type Resolver func(Group) (func() (workload.App, error), *calibrate.Profile, error)

// Scenario resolves a validated spec to the fleet.Scenario it
// describes. resolve supplies each group's app and profile; seed(gi) is
// group gi's arrival seed when the spec leaves the group's seed 0;
// trace records the event-time trace.
func (s *Spec) Scenario(resolve Resolver, seed func(gi int) int64, trace bool) (fleet.Scenario, error) {
	sc := fleet.Scenario{
		Machines:        s.Machines,
		CoresPerMachine: s.Cores,
		Budget:          s.BudgetWatts(),
		Workers:         s.Workers,
		ArbiterInterval: time.Duration(s.ArbiterIntervalMs * float64(time.Millisecond)),
		Fluid:           s.Fluid,
		SplitDispatch:   s.SplitDispatch,
		ControlDisabled: s.ControlDisabled,
		RecordTrace:     trace,
	}
	if s.Interference == "uniform" {
		sc.Interference = fleet.UniformShare{}
	}
	for gi, g := range s.Groups {
		newApp, prof, err := resolve(g)
		if err != nil {
			return fleet.Scenario{}, fmt.Errorf("group %q: %w", g.Name, err)
		}
		gseed := g.Seed
		if gseed == 0 {
			gseed = seed(gi)
		}
		sc.Groups = append(sc.Groups, fleet.WorkloadGroup{
			Name:      g.Name,
			NewApp:    newApp,
			Profile:   prof,
			Instances: g.Instances,
			Load:      g.load(gseed),
			Pressure:  g.Pressure,
			SLO:       fleet.SLO{P95: g.SLOP95},
		})
	}
	if s.Faults != nil {
		opts := s.Faults.Options()
		sc.Faults = &opts
	}
	return sc, nil
}

// Build constructs the fleet sc describes, sc being what Scenario
// resolved s to, schedules the spec's caps, and attaches the autoscaler
// of each group with a scaleMax.
func (s *Spec) Build(sc fleet.Scenario) (*fleet.Supervisor, error) {
	sup, err := fleet.NewScenario(sc)
	if err != nil {
		return nil, err
	}
	for _, cp := range s.Caps {
		sup.SetBudgetAt(At(cp.AtS), cp.Watts)
	}
	// Groups with sloP95 already got the default autoscaler from
	// NewScenario; only an explicit scaleMax needs the override.
	for gi, g := range s.Groups {
		if g.SLOP95 <= 0 || g.ScaleMax <= 0 {
			continue
		}
		scaler, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{
			SLO: fleet.SLO{P95: g.SLOP95},
			Max: g.ScaleMax,
		})
		if err != nil {
			return nil, err
		}
		if err := sup.AutoscaleGroup(gi, scaler, time.Second/2); err != nil {
			return nil, err
		}
	}
	return sup, nil
}

// load is the group's arrival process drawn from seed (nil for "none").
func (g *Group) load(seed int64) *fleet.LoadGen {
	var gen *fleet.LoadGen
	switch g.Load {
	case "", "constant":
		gen = fleet.NewConstantLoad(seed, g.Rate)
	case "ramp":
		gen = fleet.NewRampLoad(seed, 0, g.Rate, 15)
	case "spike":
		gen = fleet.NewSpikeLoad(seed, g.Rate/3, g.Rate*2, 10, 3)
	case "saturate":
		gen = fleet.NewSaturatingLoad(2)
	default: // "none"
		return nil
	}
	return gen.WithRequestIters(g.ReqIters)
}

// At is the virtual instant sec seconds after the run epoch, as caps and
// fault events land it: the duration truncates to whole nanoseconds.
func At(sec float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(sec * float64(time.Second)))
}

// Options is the fault model as fleet.FaultOptions: the explicit
// schedule when there is one, the seeded stochastic model otherwise.
func (f *Faults) Options() fleet.FaultOptions {
	opts := fleet.FaultOptions{Redispatch: f.Redispatch}
	if len(f.Schedule) > 0 {
		fs := make(fleet.FaultSchedule, 0, len(f.Schedule))
		for _, e := range f.Schedule {
			host, instance := -1, -1
			if e.Host != nil {
				host = *e.Host
			}
			if e.Instance != nil {
				instance = *e.Instance
			}
			fs = append(fs, fleet.FaultEvent{
				At:       At(e.AtS),
				Kind:     faultKinds[e.Kind],
				Duration: time.Duration(e.DurationS * float64(time.Second)),
				Host:     host,
				Rack:     e.Rack,
				State:    e.State,
				Factor:   e.Factor,
				Instance: instance,
			})
		}
		opts.Model = fs
		return opts
	}
	opts.Model = fleet.NewSeededFaults(fleet.FaultConfig{
		Seed:          f.Seed,
		Racks:         f.Racks,
		CrashRate:     f.CrashRate,
		RackRate:      f.RackRate,
		ThrottleRate:  f.ThrottleRate,
		StragglerRate: f.StragglerRate,
		SagRate:       f.SagRate,
		MeanOutage:    time.Duration(f.MeanOutageS * float64(time.Second)),
		MeanThrottle:  time.Duration(f.MeanThrottleS * float64(time.Second)),
		MeanSlow:      time.Duration(f.MeanSlowS * float64(time.Second)),
		MeanSag:       time.Duration(f.MeanSagS * float64(time.Second)),
		ThrottleFloor: f.ThrottleFloor,
		SlowFactor:    f.SlowFactor,
		SagFactor:     f.SagFactor,
	})
	return opts
}
