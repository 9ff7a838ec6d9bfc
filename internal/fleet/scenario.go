package fleet

// This file is the scenario construction surface: a fleet composed of
// named, heterogeneous workload groups sharing machines and one power
// budget. The paper's evaluation mixes distinct applications (x264,
// swish++, bodytrack, swaptions) whose dynamic knobs respond
// differently to the same cap; Scenario is how that mix is expressed —
// each WorkloadGroup carries its own app factory, calibrated profile,
// heart-rate target, arrival stream, and SLO, and co-residency between
// groups flows through the pluggable Interference model.

import (
	"fmt"
	"time"

	"repro/internal/calibrate"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/heartbeats"
	"repro/internal/platform"
	"repro/internal/workload"
)

// WorkloadGroup is one named class of application instances in a
// Scenario. Every instance of the group runs the same app under the
// same calibrated profile, target, and policy; load offered to the
// group is dispatched only within the group (join-shortest-queue over
// the group's accepting instances, or a seeded uniform split under
// Scenario.SplitDispatch).
type WorkloadGroup struct {
	// Name identifies the group in reports, traces, and CSVs
	// (required, unique within the scenario).
	Name string
	// NewApp builds one application instance of the group; every
	// instance gets its own copy, since knob actuation rewrites live
	// app state (required). Copies must be deterministic.
	NewApp func() (workload.App, error)
	// Profile is the group's calibrated trade-off space (required).
	Profile *calibrate.Profile
	// Instances is the group's initial instance count (>= 0); they are
	// placed on the least-loaded machines at construction, groups in
	// declaration order. More can join later (StartInstanceIn,
	// StartAtIn, or a per-group autoscaler).
	Instances int
	// Target is the group's per-instance heart-rate goal. Zero means
	// the paper's convention: the baseline heart rate of one instance
	// of this group on an otherwise-unloaded machine at full frequency.
	Target heartbeats.Target
	// Policy selects the group's actuation solution (default MinQoS).
	Policy control.Policy
	// Load is the group's arrival stream (optional; nil offers the
	// group no open-loop load). Each group owns its generator — the
	// streams are independent and their seeds are the groups' own.
	Load *LoadGen
	// SLO is the group's latency objective. A nonzero SLO.P95 attaches
	// the default hysteresis autoscaler to the group at construction —
	// provisioning it independently against this objective, bounded by
	// the cluster's total core count, with placements landing half a
	// quantum after each decision. AutoscaleGroup overrides (or, with a
	// nil policy, detaches) it.
	SLO SLO
	// Pressure is the group's co-residency contention pressure, used by
	// the default PressureShare interference model: how hard the
	// group's instances lean on shared machine resources. Zero (the
	// default) exerts none, making the default model identical to the
	// uniform-share reference.
	Pressure float64
}

// Scenario composes a fleet from named workload groups sharing machines
// and one cluster-wide power budget. It is the fleet's one construction
// surface (NewScenario).
type Scenario struct {
	// Machines is the simulated machine count (required, >= 1).
	Machines int
	// CoresPerMachine defaults to 8 (the paper's dual quad-core R410).
	CoresPerMachine int
	// Groups are the workload groups (required, >= 1, unique names).
	Groups []WorkloadGroup
	// Interference models machine co-residency. Nil selects the
	// contention-aware default: PressureShare over the groups'
	// Pressure values (which, with all-zero pressures, is exactly the
	// uniform-share reference model).
	Interference Interference
	// Power is the machine power model (default platform default).
	Power platform.PowerModel
	// Budget is the cluster-wide power cap in watts (<= 0 = unlimited).
	Budget float64
	// Quantum is the control quantum (default 1s of virtual time).
	Quantum time.Duration
	// QuantumBeats is the per-instance actuator quantum (default 20).
	QuantumBeats int
	// MigrationDowntime is the blackout an instance suffers when moved
	// between machines (default 100ms).
	MigrationDowntime time.Duration
	// Workers bounds the shard worker pool. Each host owns its own
	// event queue and advances independently between global
	// synchronization barriers. A window that holds less work than the
	// engine's inline budget (64 events) runs on the caller's goroutine
	// at any Workers value; a larger one hands its unfinished shards to
	// a pool of up to Workers goroutines. 0 defaults to GOMAXPROCS; 1
	// runs every shard inline (no goroutines are started). Every
	// Workers value is bit-identical for a fixed seed (see
	// docs/ARCHITECTURE.md for the determinism argument); Workers only
	// changes wall-clock speed.
	Workers int
	// ArbiterInterval is the arbiter tick period (default Quantum).
	ArbiterInterval time.Duration
	// ControlDisabled runs every instance open-loop at its baseline
	// setting — the regime where service times stay deterministic and
	// the fleet is validated against the queueing oracles.
	ControlDisabled bool
	// SplitDispatch routes each arrival to a seeded uniformly random
	// accepting instance of its group instead of join-shortest-queue —
	// the independent-station premise of the composed per-group
	// queueing oracle (cluster.Oracle.PredictMix).
	SplitDispatch bool
	// Fluid enables the hybrid fluid/discrete engine: an instance whose
	// queue reaches this depth stops simulating per-beat events and
	// drains as an analytic flow at its measured service rate,
	// re-materializing into discrete events at SLO-relevant boundaries
	// (arbiter state changes, placement and fault landings, round
	// closes) and when its queue shallows again. 0 (the default)
	// disables — every request simulates discretely.
	Fluid int
	// RecordTrace collects the event-time trace (Supervisor.Trace).
	RecordTrace bool
	// Faults wires a fault & degradation model into the fleet: seeded
	// crash/rack-outage/throttle/straggler/sag events landing on the
	// event timeline, with Report.Resilience accounting (fault.go).
	// Nil injects nothing.
	Faults *FaultOptions
}

// group is the supervisor's resolved per-group state: the workload
// definition plus the shared measurement artifacts (probe app, baseline
// outputs) and the per-run accounting that feeds Report.PerGroup.
type group struct {
	index   int
	name    string
	newApp  func() (workload.App, error)
	profile *calibrate.Profile
	policy  control.Policy
	target  heartbeats.Target
	slo     SLO
	gen     *LoadGen

	probe       workload.App
	prodStreams []workload.Stream
	baseOuts    []workload.Output         // baseline outputs per production stream
	baseSliced  map[int][]workload.Output // shared sliced baselines, read-only during a round

	// Per-round arrival counter (open-loop mints at the round seed;
	// self-feed mints drain from instances), zeroed by
	// drainRoundCounters.
	roundArrivals int

	// Per-round shed counter (gateway admission refusals booked via
	// RecordShed), zeroed by drainRoundCounters.
	roundShed int

	// injectIdx cycles InjectArrivalAt requests across the group's
	// production streams.
	injectIdx int

	// Run totals for Report.PerGroup.
	completed int
	aborted   int
	shed      int
	lossSum   float64
	lossN     int
}

// NewScenario builds a fleet supervisor from a scenario of named
// workload groups, starting each group's initial instances on the
// least-loaded machines (groups in declaration order). Drive it with
// Step(nil)/Run(nil, n): every group's own Load generator feeds its
// instances; a non-nil generator passed to Step overrides group 0's
// stream.
func NewScenario(sc Scenario) (*Supervisor, error) {
	if sc.Machines < 1 {
		return nil, fmt.Errorf("fleet: Machines %d < 1", sc.Machines)
	}
	if len(sc.Groups) == 0 {
		return nil, fmt.Errorf("fleet: Scenario requires at least one WorkloadGroup")
	}
	if sc.CoresPerMachine == 0 {
		sc.CoresPerMachine = 8
	}
	if sc.CoresPerMachine < 1 {
		return nil, fmt.Errorf("fleet: CoresPerMachine %d < 1", sc.CoresPerMachine)
	}
	if sc.Power == (platform.PowerModel{}) {
		sc.Power = platform.DefaultPowerModel()
	}
	if sc.Quantum <= 0 {
		sc.Quantum = time.Second
	}
	if sc.ArbiterInterval <= 0 || sc.ArbiterInterval > sc.Quantum {
		sc.ArbiterInterval = sc.Quantum
	}
	if sc.MigrationDowntime == 0 {
		sc.MigrationDowntime = 100 * time.Millisecond
	}
	if sc.Workers <= 0 {
		sc.Workers = defaultWorkers()
	}
	seen := make(map[string]bool, len(sc.Groups))
	for i, wg := range sc.Groups {
		if wg.Name == "" {
			return nil, fmt.Errorf("fleet: group %d has no name", i)
		}
		if seen[wg.Name] {
			return nil, fmt.Errorf("fleet: duplicate group name %q", wg.Name)
		}
		seen[wg.Name] = true
		if wg.NewApp == nil || wg.Profile == nil {
			return nil, fmt.Errorf("fleet: group %q requires NewApp and Profile", wg.Name)
		}
		if wg.Instances < 0 {
			return nil, fmt.Errorf("fleet: group %q Instances %d < 0", wg.Name, wg.Instances)
		}
		if wg.Pressure < 0 {
			return nil, fmt.Errorf("fleet: group %q Pressure %v < 0", wg.Name, wg.Pressure)
		}
	}
	itf := sc.Interference
	if itf == nil {
		pressures := make([]float64, len(sc.Groups))
		for i, wg := range sc.Groups {
			pressures[i] = wg.Pressure
		}
		itf = PressureShare{Pressure: pressures}
	}

	s := &Supervisor{
		cfg:      sc,
		itf:      itf,
		arb:      NewArbiter(sc.Power, sc.Budget),
		splitRng: newSplitRng(),
	}
	epoch := epochTime()
	for i := 0; i < sc.Machines; i++ {
		h := &Host{sup: s, index: i, cores: sc.CoresPerMachine, segStart: epoch}
		h.shard = &shard{sup: s, host: h}
		s.hosts = append(s.hosts, h)
	}
	for i, wg := range sc.Groups {
		g, err := resolveGroup(i, wg)
		if err != nil {
			return nil, err
		}
		s.groups = append(s.groups, g)
	}
	s.scalers = make([]scalerEntry, len(s.groups))
	s.lastDesired = make([]int, len(s.groups))
	// A group declaring a latency objective gets the default hysteresis
	// autoscaler out of the box; AutoscaleGroup overrides or detaches.
	for gi, g := range s.groups {
		if g.slo.P95 <= 0 {
			continue
		}
		scaler, err := NewHysteresisScaler(HysteresisConfig{SLO: g.slo, Max: sc.Machines * sc.CoresPerMachine})
		if err != nil {
			return nil, fmt.Errorf("fleet: group %q SLO: %w", g.name, err)
		}
		s.scalers[gi] = scalerEntry{policy: scaler, delay: sc.Quantum / 2}
	}
	for gi, wg := range sc.Groups {
		for i := 0; i < wg.Instances; i++ {
			if _, err := s.StartInstanceIn(gi, -1); err != nil {
				return nil, err
			}
		}
	}
	if sc.Faults != nil {
		if err := s.SetFaults(*sc.Faults); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// resolveGroup measures one group's shared artifacts: the probe app,
// the resolved heart-rate target, and the baseline-setting outputs of
// its production streams (shared by every instance of the group, since
// app copies are deterministic).
func resolveGroup(index int, wg WorkloadGroup) (*group, error) {
	prof := wg.Profile
	probe, err := wg.NewApp()
	if err != nil {
		return nil, fmt.Errorf("fleet: group %q: %w", wg.Name, err)
	}
	g := &group{
		index:      index,
		name:       wg.Name,
		newApp:     wg.NewApp,
		profile:    prof,
		policy:     wg.Policy,
		target:     wg.Target,
		slo:        wg.SLO,
		gen:        wg.Load,
		probe:      probe,
		baseSliced: make(map[int][]workload.Output),
	}
	if !g.target.Valid() {
		costPerBeat, err := core.BaselineCostPerBeat(probe, workload.Training)
		if err != nil {
			return nil, fmt.Errorf("fleet: group %q: %w", wg.Name, err)
		}
		b := platform.Frequencies[0] * platform.SpeedPerGHz / costPerBeat
		g.target = heartbeats.Target{Min: b, Max: b}
	}
	g.prodStreams = probe.Streams(workload.Production)
	if len(g.prodStreams) == 0 {
		return nil, fmt.Errorf("fleet: group %q: %s has no production streams", wg.Name, probe.Name())
	}
	for _, st := range g.prodStreams {
		_, out := workload.MeasureStream(probe, st, prof.Baseline)
		g.baseOuts = append(g.baseOuts, out)
	}
	return g, nil
}

// GroupNames returns the scenario's group names in Scenario.Groups
// declaration order.
func (s *Supervisor) GroupNames() []string {
	out := make([]string, len(s.groups))
	for i, g := range s.groups {
		out[i] = g.name
	}
	return out
}

// GroupIndex resolves a group name to its index in the scenario's
// declaration order (-1 when unknown).
func (s *Supervisor) GroupIndex(name string) int {
	for i, g := range s.groups {
		if g.name == name {
			return i
		}
	}
	return -1
}
