// Package powerdial is the public API of this PowerDial reproduction
// ("Dynamic Knobs for Responsive Power-Aware Computing", Hoffmann et al.,
// ASPLOS 2011).
//
// PowerDial transforms static configuration parameters into dynamic knobs
// — control variables in the address space of a running application that
// a feedback control system rewrites at runtime to trade quality of
// service for performance and power. The offline pipeline identifies the
// control variables by dynamic influence tracing, records their values
// for every knob setting, and calibrates the speedup/QoS trade-off space
// on training inputs; the online runtime monitors Application Heartbeats
// and actuates the knobs to hold a target heart rate through power caps
// and load spikes.
//
// Quick start:
//
//	app := powerdial.NewSwaptionsBenchmark(powerdial.ScaleSmall)
//	sys, err := powerdial.Prepare(app, powerdial.PrepareOptions{})
//	...
//	mach, err := powerdial.NewMachine(powerdial.MachineConfig{Clock: powerdial.NewVirtualClock()})
//	rt, err := powerdial.NewRuntime(powerdial.RuntimeConfig{System: sys, Machine: mach})
//	summary, err := rt.RunStream(app.Streams(powerdial.Production)[0])
//
// The subpackages under internal/ implement the substrates: Application
// Heartbeats, influence tracing, the knob registry, the controller and
// actuator, the simulated DVFS platform, the cluster model, and the four
// benchmark applications from the paper's evaluation (swaptions, x264,
// bodytrack, swish++).
package powerdial

import (
	"io"
	"time"

	"repro/internal/calibrate"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/heartbeats"
	"repro/internal/influence"
	"repro/internal/knobs"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Application interfaces (see internal/workload).
type (
	// App is a PowerDial-controllable application.
	App = workload.App
	// Traceable apps support dynamic knob identification.
	Traceable = workload.Traceable
	// Bindable apps expose control variables to the knob registry.
	Bindable = workload.Bindable
	// Stream is one application input (a video, a portfolio, a query
	// batch); each iteration is one heartbeat.
	Stream = workload.Stream
	// Run is a stateful pass over a Stream.
	Run = workload.Run
	// Rewinder is an optional Run extension: a run that can rewind to
	// its stream's start and be served again exactly as a fresh NewRun
	// would — the hook the fleet's zero-alloc session chain pools runs
	// through.
	Rewinder = workload.Rewinder
	// Output is an application-specific stream output.
	Output = workload.Output
	// InputSet selects training or production inputs.
	InputSet = workload.InputSet
)

// Input sets.
const (
	Training   = workload.Training
	Production = workload.Production
)

// Knob types (see internal/knobs).
type (
	// Setting is one combination of knob values.
	Setting = knobs.Setting
	// Spec declares a knob: name, values, default.
	Spec = knobs.Spec
	// Space is the cartesian setting space of an app's specs.
	Space = knobs.Space
	// Registry holds control variables and recorded per-setting values.
	Registry = knobs.Registry
)

// Calibration types (see internal/calibrate).
type (
	// Profile is a calibrated trade-off space.
	Profile = calibrate.Profile
	// SettingResult is one calibrated (speedup, QoS loss) point.
	SettingResult = calibrate.SettingResult
	// CalibrateOptions configures a calibration sweep.
	CalibrateOptions = calibrate.Options
	// Correlation is the Table 2 training-vs-production result.
	Correlation = calibrate.Correlation
)

// Core pipeline types (see internal/core).
type (
	// System is a prepared PowerDial deployment.
	System = core.System
	// PrepareOptions configures Prepare.
	PrepareOptions = core.PrepareOptions
	// Runtime drives an application under PowerDial control.
	Runtime = core.Runtime
	// RuntimeConfig assembles a Runtime.
	RuntimeConfig = core.RuntimeConfig
	// RunSummary reports one controlled stream execution.
	RunSummary = core.RunSummary
	// TracePoint is one per-beat runtime observation.
	TracePoint = core.TracePoint
)

// Control types (see internal/control).
type (
	// Policy selects the actuation solution.
	Policy = control.Policy
	// Plan is an actuator schedule for one quantum.
	Plan = control.Plan
)

// Actuation policies (Sec. 2.3.3's two solutions).
const (
	// MinQoS runs at the lowest sufficient speedup (for platforms with
	// high idle power).
	MinQoS = control.MinQoS
	// RaceToIdle runs at maximum speedup then idles (for platforms with
	// low idle power).
	RaceToIdle = control.RaceToIdle
)

// Platform types (see internal/platform).
type (
	// Machine is a simulated DVFS server.
	Machine = platform.Machine
	// MachineConfig configures a Machine.
	MachineConfig = platform.Config
	// PowerModel maps frequency and utilization to watts.
	PowerModel = platform.PowerModel
	// Target is a heart-rate goal range.
	Target = heartbeats.Target
	// Monitor is an Application Heartbeats monitor.
	Monitor = heartbeats.Monitor
	// VirtualClock is a deterministic manual clock.
	VirtualClock = clock.Virtual
)

// Cluster types (see internal/cluster).
type (
	// ClusterConfig describes a provisioned multi-machine system.
	ClusterConfig = cluster.Config
	// Cluster is a provisioned system under evaluation.
	Cluster = cluster.System
	// ClusterPoint is an evaluated load point.
	ClusterPoint = cluster.Point
	// ClusterOracle is the closed-form model the executed fleet is
	// validated against.
	ClusterOracle = cluster.Oracle
	// ClusterPrediction is one oracle steady-state prediction.
	ClusterPrediction = cluster.Prediction
	// MD1 is the closed-form M/D/1 queueing station of the oracle's
	// event-time surface, including the exact waiting-time distribution
	// (WaitCDF) and its quantiles.
	MD1 = cluster.MD1
	// MG1 is the general-service station: the full Pollaczek–Khinchine
	// mean-value forms from the first two service moments (M/D/1 is the
	// zero-variance special case, DeterministicMG1).
	MG1 = cluster.MG1
	// ServiceClass is one deterministic work-item class of a mixed
	// stream, composed into an MG1 station by MixMG1.
	ServiceClass = cluster.ServiceClass
	// QueueingPrediction is the oracle's event-time steady state for an
	// open-loop offered load.
	QueueingPrediction = cluster.QueueingPrediction
	// ClusterGroupStation describes one workload group's offered load
	// for the composed mix oracle (PredictClusterMix).
	ClusterGroupStation = cluster.GroupStation
	// ClusterMixPrediction is the composed per-group M/G/1 steady state
	// of a heterogeneous scenario.
	ClusterMixPrediction = cluster.MixPrediction
	// ClusterWaitDist is the numeric M/G/1 waiting- and sojourn-time
	// distribution for a mixed deterministic stream — the full-CDF
	// companion to the mean-value MG1 forms, built by NewClusterWaitDist.
	ClusterWaitDist = cluster.WaitDist
)

// Fleet types (see internal/fleet): the supervisor that runs many
// Runtime instances across simulated machines under a shared power
// budget, on a deterministic discrete-event timeline (or the legacy
// bulk-synchronous quantum loop).
type (
	// FleetScenario composes a fleet from named, heterogeneous workload
	// groups sharing machines and one power budget — the primary
	// construction surface (NewFleetScenario).
	FleetScenario = fleet.Scenario
	// FleetWorkloadGroup is one named class of application instances in
	// a scenario: its own app factory, profile, target, arrival stream,
	// SLO, and contention pressure.
	FleetWorkloadGroup = fleet.WorkloadGroup
	// FleetInterference models machine co-residency for a scenario.
	FleetInterference = fleet.Interference
	// FleetUniformShare is the oracle-validated reference interference
	// model: pure time-multiplexing, blind to group identity.
	FleetUniformShare = fleet.UniformShare
	// FleetPressureShare is the contention-aware interference model:
	// cross-group pressure degrades effective frequency.
	FleetPressureShare = fleet.PressureShare
	// FleetConfig assembles a single-group fleet. It is the deprecated
	// one-group compatibility shim over FleetScenario — kept working
	// (NewFleet wraps it into a scenario with one group, "default",
	// under uniform-share interference), but new code should compose a
	// FleetScenario of named workload groups instead.
	FleetConfig = fleet.Config
	// Fleet is the fleet supervisor.
	Fleet = fleet.Supervisor
	// FleetInstance is one controlled application instance.
	FleetInstance = fleet.Instance
	// FleetHost is one simulated machine of a fleet.
	FleetHost = fleet.Host
	// FleetRoundStats reports one control quantum.
	FleetRoundStats = fleet.RoundStats
	// FleetGroupRoundStats is one workload group's slice of a quantum.
	FleetGroupRoundStats = fleet.GroupRoundStats
	// FleetInstanceLatency is one instance's latency percentiles.
	FleetInstanceLatency = fleet.InstanceLatency
	// FleetReport summarizes a fleet run.
	FleetReport = fleet.Report
	// FleetGroupReport is one workload group's run summary.
	FleetGroupReport = fleet.GroupReport
	// LoadGen is an arrival process feeding a fleet: open-loop Poisson
	// shapes (constant, ramp, spike, recorded trace) or closed-loop
	// saturation.
	LoadGen = fleet.LoadGen
	// FleetRequest is one unit of offered load.
	FleetRequest = fleet.Request
	// FleetTraceEvent is one entry of the fleet's event-time trace.
	FleetTraceEvent = fleet.TraceEvent
	// SyntheticOptions sizes the analytically exact synthetic workload.
	SyntheticOptions = fleet.SyntheticOptions
	// FleetSLO is the latency objective a fleet autoscaler provisions
	// for.
	FleetSLO = fleet.SLO
	// FleetAutoscaler decides the fleet's accepting-instance count.
	FleetAutoscaler = fleet.Autoscaler
	// FleetScaleObservation is one closed quantum as an autoscaler sees
	// it.
	FleetScaleObservation = fleet.ScaleObservation
	// FleetHysteresisConfig tunes the default autoscaling policy.
	FleetHysteresisConfig = fleet.HysteresisConfig
	// FleetHysteresisScaler is the default hysteresis autoscaler.
	FleetHysteresisScaler = fleet.HysteresisScaler
	// FleetPlannerConfig feeds the M/D/1 provisioning estimate forward
	// into the hysteresis autoscaler (model-informed damping).
	FleetPlannerConfig = fleet.PlannerConfig
	// FleetReplayConfig drives one Fig. 8 consolidation replay.
	FleetReplayConfig = fleet.ReplayConfig
	// FleetReplayPoint is one reporting quantum of a replay (one CSV
	// row).
	FleetReplayPoint = fleet.ReplayPoint
	// FleetGroupReplayPoint is one workload group's slice of a replay
	// quantum.
	FleetGroupReplayPoint = fleet.GroupReplayPoint
	// FleetReplayResult is a finished replay.
	FleetReplayResult = fleet.ReplayResult
	// FleetFaultKind labels one class of injected fault.
	FleetFaultKind = fleet.FaultKind
	// FleetFaultEvent is one scheduled fault on the event timeline.
	FleetFaultEvent = fleet.FaultEvent
	// FleetFaultModel is the pluggable fault source for chaos runs.
	FleetFaultModel = fleet.FaultModel
	// FleetFaultOptions wires a fault model into a fleet.
	FleetFaultOptions = fleet.FaultOptions
	// FleetFaultSchedule is a fixed, fully explicit fault model.
	FleetFaultSchedule = fleet.FaultSchedule
	// FleetFaultConfig parameterizes the seeded stochastic fault model.
	FleetFaultConfig = fleet.FaultConfig
	// FleetSeededFaults is the seeded stochastic fault model.
	FleetSeededFaults = fleet.SeededFaults
	// FleetFaultRecord is one landed fault's resilience accounting.
	FleetFaultRecord = fleet.FaultRecord
	// FleetResilience summarizes a faulted run's recovery behavior.
	FleetResilience = fleet.Resilience
	// FleetReplayFaultPoint is one replay quantum's fault counters.
	FleetReplayFaultPoint = fleet.ReplayFaultPoint
)

// Fault classes injectable by a fleet fault model.
const (
	// FleetFaultCrash takes a host (or a whole rack) offline.
	FleetFaultCrash = fleet.FaultCrash
	// FleetFaultThrottle clamps a host's DVFS below the arbiter grant.
	FleetFaultThrottle = fleet.FaultThrottle
	// FleetFaultStraggler slows one instance's service share.
	FleetFaultStraggler = fleet.FaultStraggler
	// FleetFaultSag scales the global power budget mid-window.
	FleetFaultSag = fleet.FaultSag
)

// Serving types (see internal/serve): the wall-clock serving mode that
// runs the fleet as a live power-capped server — a real-time gateway,
// per-group admission control, a pacer tying the deterministic event
// engine to the wall clock, and a digital twin replaying what-if
// scenarios faster than real time to feed the autoscaler forward.
type (
	// ServeConfig assembles a serving loop.
	ServeConfig = serve.Config
	// Server owns the serving loop: one RunRound per control quantum,
	// paced against the configured clock.
	Server = serve.Server
	// ServeGateway is the concurrency-safe request intake the serving
	// loop drains once per round.
	ServeGateway = serve.Gateway
	// ServeAdmission is the per-group accept-or-shed policy: token
	// bucket, backlog watermark, and p95-breach shedding.
	ServeAdmission = serve.Admission
	// ServeAdmissionConfig tunes one group's admission policy.
	ServeAdmissionConfig = serve.AdmissionConfig
	// ServeGroupSignals is the last closed round's signals admission
	// decides on.
	ServeGroupSignals = serve.GroupSignals
	// ServePacer maps wall instants to virtual ones and paces the
	// engine one quantum behind the wall clock.
	ServePacer = serve.Pacer
	// ServeTwin is the digital twin: snapshot the live fleet, replay
	// what-if provisioning candidates faster than real time, recommend.
	ServeTwin = serve.Twin
	// ServeTwinConfig parameterizes the twin's what-if search.
	ServeTwinConfig = serve.TwinConfig
	// ServeTwinScaler clamps a measurement-driven autoscaler to ±1 of
	// the twin's recommendation (feed-forward damping).
	ServeTwinScaler = serve.TwinScaler
	// ServeStats is the serving loop's counter snapshot (the /stats
	// JSON).
	ServeStats = serve.Stats
	// FleetSnapshot captures a live fleet's serving state for the twin.
	FleetSnapshot = fleet.FleetSnapshot
	// FleetGroupSnapshot is one workload group's slice of a snapshot.
	FleetGroupSnapshot = fleet.GroupSnapshot
	// Clock is a read-only time source (clock.Virtual, RealClock).
	Clock = clock.Clock
	// ClockWaiter is a Clock that can block until a later instant — the
	// injection seam the serving loop paces on.
	ClockWaiter = clock.Waiter
	// RealClock is the system wall clock, the one sanctioned
	// nondeterminism boundary (cmd/fleet -serve binds it).
	RealClock = clock.Real
)

// Admission shed reasons, as recorded per refused request.
const (
	// ServeShedRate is a token-bucket refusal.
	ServeShedRate = serve.ShedRate
	// ServeShedQueue is a backlog-watermark refusal.
	ServeShedQueue = serve.ShedQueue
	// ServeShedP95 is a latency-objective-breach refusal.
	ServeShedP95 = serve.ShedP95
)

// Influence-tracing types (see internal/influence).
type (
	// Tracer observes one instrumented initialization.
	Tracer = influence.Tracer
	// Report is a control-variable report.
	Report = influence.Report
)

// Prepare runs the offline PowerDial pipeline (identification +
// calibration) on an application.
func Prepare(app App, opts PrepareOptions) (*System, error) { return core.Prepare(app, opts) }

// Identify runs dynamic knob identification only.
func Identify(app Traceable, settings []Setting) (*Registry, Report, error) {
	return core.Identify(app, settings)
}

// Calibrate sweeps an application's setting space (Sec. 2.2).
func Calibrate(app App, opts CalibrateOptions) (*Profile, error) { return calibrate.Run(app, opts) }

// Correlate computes Table 2's training-vs-production correlation.
func Correlate(train, prod *Profile) (Correlation, error) { return calibrate.Correlate(train, prod) }

// LoadProfile reads a calibration profile saved with Profile.Save.
func LoadProfile(path string) (*Profile, error) { return calibrate.Load(path) }

// NewRuntime builds the online control runtime.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return core.NewRuntime(cfg) }

// NewMachine builds a simulated server.
func NewMachine(cfg MachineConfig) (*Machine, error) { return platform.NewMachine(cfg) }

// NewVirtualClock returns a deterministic clock starting at the Unix
// epoch.
func NewVirtualClock() *VirtualClock { return clock.NewVirtual(time.Unix(0, 0)) }

// NewCluster builds a provisioned multi-machine system.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewClusterOracle builds the analytic oracle for a fleet-shaped system.
func NewClusterOracle(machines, coresPerMachine int, profile *Profile, power PowerModel, freqGHz float64) (*ClusterOracle, error) {
	return cluster.NewOracle(machines, coresPerMachine, profile, power, freqGHz)
}

// NewFleet builds a fleet supervisor (event-driven by default) from the
// deprecated single-group FleetConfig shim; new code should use
// NewFleetScenario.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// NewFleetScenario builds a fleet supervisor from a scenario of named
// heterogeneous workload groups — each with its own app factory,
// profile, heart-rate target, arrival stream, SLO, and contention
// pressure — sharing machines and one power budget. Drive it with
// Fleet.Run(nil, rounds): every group's own load generator feeds its
// instances.
func NewFleetScenario(sc FleetScenario) (*Fleet, error) { return fleet.NewScenario(sc) }

// WriteFleetTraceCSV writes a fleet event-time trace as CSV, in the
// canonical SortFleetTrace order.
func WriteFleetTraceCSV(w io.Writer, events []FleetTraceEvent) error {
	return fleet.WriteTraceCSV(w, events)
}

// SortFleetTrace sorts trace events into the canonical deterministic
// (instant, kind, host, ...) order, making traces diff cleanly across
// runs and Workers values.
func SortFleetTrace(events []FleetTraceEvent) { fleet.SortTrace(events) }

// NewSyntheticApp builds the analytically exact synthetic workload used
// by fleet tests and demos.
func NewSyntheticApp(opts SyntheticOptions) App { return fleet.NewSynthetic(opts) }

// NewHysteresisScaler builds the default fleet autoscaling policy: a
// two-sided hysteresis controller over queue depth and smoothed p95
// latency against an SLO.
func NewHysteresisScaler(cfg FleetHysteresisConfig) (*FleetHysteresisScaler, error) {
	return fleet.NewHysteresisScaler(cfg)
}

// ReplayFleet feeds a spiky arrival trace through the autoscaled fleet
// on the event timeline — the executed form of the paper's Fig. 8
// consolidation experiment.
func ReplayFleet(sup *Fleet, cfg FleetReplayConfig) (*FleetReplayResult, error) {
	return fleet.Replay(sup, cfg)
}

// WriteFleetReplayCSV writes replay points as the documented
// per-quantum consolidation CSV (docs/TRACE_FORMAT.md).
func WriteFleetReplayCSV(w io.Writer, points []FleetReplayPoint) error {
	return fleet.WriteReplayCSV(w, points)
}

// Fig8Rates synthesizes the paper's Sec. 5.5 spiky consolidation trace
// as an arrival-rate series.
func Fig8Rates(rounds int, peak float64, seed int64) []float64 {
	return fleet.Fig8Rates(rounds, peak, seed)
}

// NewFleetSeededFaults builds the seeded stochastic fault model: per
// round it draws Poisson counts per fault class and exponential
// durations, all from one seed, so chaos runs replay exactly.
func NewFleetSeededFaults(cfg FleetFaultConfig) *FleetSeededFaults {
	return fleet.NewSeededFaults(cfg)
}

// WriteFleetResilienceCSV writes a faulted run's per-fault recovery
// accounting as CSV (docs/TRACE_FORMAT.md).
func WriteFleetResilienceCSV(w io.Writer, res *FleetResilience) error {
	return fleet.WriteResilienceCSV(w, res)
}

// NewServer assembles and validates a serving loop over a fresh fleet.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// NewServeGateway builds the request intake: clk stamps receive
// instants, buf bounds the per-round backlog (default 1024).
func NewServeGateway(clk Clock, buf int) *ServeGateway { return serve.NewGateway(clk, buf) }

// NewServeAdmission builds the per-group admission policy, one config
// per workload group in scenario order.
func NewServeAdmission(cfgs []ServeAdmissionConfig) (*ServeAdmission, error) {
	return serve.NewAdmission(cfgs)
}

// NewServePacer anchors a pacer at clk's current instant: round r's
// wall window is [anchor+r·quantum, anchor+(r+1)·quantum).
func NewServePacer(clk ClockWaiter, quantum time.Duration) *ServePacer {
	return serve.NewPacer(clk, quantum)
}

// NewServeTwin builds the digital twin for a scenario factory.
func NewServeTwin(cfg ServeTwinConfig) (*ServeTwin, error) { return serve.NewTwin(cfg) }

// PlanMD1Instances returns the smallest instance count that keeps every
// independent M/D/1 station's p-quantile sojourn within target seconds
// — the provisioning ground truth the fleet autoscaler is validated
// against.
func PlanMD1Instances(lambda, service, p, target float64, max int) (int, bool) {
	return cluster.PlanInstances(lambda, service, p, target, max)
}

// DeterministicMG1 expresses an M/D/1 station as the zero-variance
// M/G/1 special case.
func DeterministicMG1(lambda, service float64) MG1 {
	return cluster.DeterministicMG1(lambda, service)
}

// MixMG1 composes deterministic work-item classes into the M/G/1
// station serving their superposition — the full Pollaczek–Khinchine
// form over the mixture's first two service moments.
func MixMG1(classes ...ServiceClass) MG1 { return cluster.MixMG1(classes...) }

// NewClusterWaitDist builds the numeric M/G/1 waiting-time distribution
// for a mixed deterministic stream — WaitCDF/SojournCDF and their
// quantiles, where the mean-value MixMG1 forms are not enough (e.g.
// validating fluid-mode sojourn tails against the oracle).
func NewClusterWaitDist(classes ...ServiceClass) (*ClusterWaitDist, error) {
	return cluster.NewWaitDist(classes...)
}

// PredictClusterMix composes per-group M/G/1 stations into the
// cluster-level steady state a heterogeneous scenario is validated
// against (per-group sojourn, aggregate utilization and power).
func PredictClusterMix(oracle *ClusterOracle, groups []ClusterGroupStation) (ClusterMixPrediction, error) {
	return oracle.PredictMix(groups)
}

// NewConstantLoad produces Poisson arrivals at a fixed mean rate.
func NewConstantLoad(seed int64, perRound float64) *LoadGen {
	return fleet.NewConstantLoad(seed, perRound)
}

// NewRampLoad ramps the Poisson mean linearly over a horizon.
func NewRampLoad(seed int64, from, to float64, horizon int) *LoadGen {
	return fleet.NewRampLoad(seed, from, to, horizon)
}

// NewSpikeLoad bursts periodically, the Sec. 5.5 workload shape.
func NewSpikeLoad(seed int64, base, peak float64, period, width int) *LoadGen {
	return fleet.NewSpikeLoad(seed, base, peak, period, width)
}

// NewSaturatingLoad keeps every instance continuously busy.
func NewSaturatingLoad(depth int) *LoadGen {
	return fleet.NewSaturatingLoad(depth)
}

// NewTraceLoad replays a recorded per-round arrival-rate trace as
// Poisson arrivals.
func NewTraceLoad(seed int64, rates []float64) *LoadGen {
	return fleet.NewTraceLoad(seed, rates)
}

// ConsolidateCluster provisions the minimum machines serving the
// original peak under the profile's QoS cap (Eq. 21).
func ConsolidateCluster(orig ClusterConfig, profile *Profile) (*Cluster, error) {
	return cluster.Consolidate(orig, profile)
}

// DVFSFrequencies lists the platform's seven power states in GHz.
func DVFSFrequencies() []float64 {
	out := make([]float64, len(platform.Frequencies))
	copy(out, platform.Frequencies)
	return out
}

// DefaultPowerModel returns the power model fit to the paper's machine.
func DefaultPowerModel() PowerModel { return platform.DefaultPowerModel() }

// SpaceOf returns the validated setting space of an application.
func SpaceOf(app App) (Space, error) { return workload.Space(app) }
