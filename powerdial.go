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
	"repro/internal/workload"
)

// Application interfaces (see internal/workload).
type (
	// App is a PowerDial-controllable application.
	App = workload.App
	// Traceable apps support dynamic knob identification.
	Traceable = workload.Traceable
	// Stream is one application input (a video, a portfolio, a query
	// batch); each iteration is one heartbeat.
	Stream = workload.Stream
	// Run is a stateful pass over a Stream.
	Run = workload.Run
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
	// Space is the cartesian setting space of an app's specs.
	Space = knobs.Space
	// Registry holds control variables and recorded per-setting values.
	Registry = knobs.Registry
)

// Calibration types (see internal/calibrate).
type (
	// Profile is a calibrated trade-off space.
	Profile = calibrate.Profile
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
)

// Policy selects the actuation solution (see internal/control).
type Policy = control.Policy

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
	// VirtualClock is a deterministic manual clock.
	VirtualClock = clock.Virtual
)

// Cluster types (see internal/cluster).
type (
	// ClusterConfig describes a provisioned multi-machine system.
	ClusterConfig = cluster.Config
	// Cluster is a provisioned system under evaluation.
	Cluster = cluster.System
	// ClusterOracle is the closed-form model the executed fleet is
	// validated against.
	ClusterOracle = cluster.Oracle
	// ClusterGroupStation describes one workload group's offered load
	// for the composed mix oracle (PredictClusterMix).
	ClusterGroupStation = cluster.GroupStation
	// ClusterMixPrediction is the composed per-group M/G/1 steady state
	// of a heterogeneous scenario.
	ClusterMixPrediction = cluster.MixPrediction
)

// Fleet types (see internal/fleet): the supervisor that runs many
// Runtime instances across simulated machines under a shared power
// budget, on a deterministic discrete-event timeline.
type (
	// FleetScenario composes a fleet from named, heterogeneous workload
	// groups sharing machines and one power budget — the construction
	// surface (NewFleetScenario).
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
	// Fleet is the fleet supervisor.
	Fleet = fleet.Supervisor
	// FleetReport summarizes a fleet run.
	FleetReport = fleet.Report
	// LoadGen is an arrival process feeding a fleet: open-loop Poisson
	// shapes (constant, ramp, spike, recorded trace) or closed-loop
	// saturation.
	LoadGen = fleet.LoadGen
	// FleetTraceEvent is one entry of the fleet's event-time trace.
	FleetTraceEvent = fleet.TraceEvent
	// SyntheticOptions sizes the analytically exact synthetic workload.
	SyntheticOptions = fleet.SyntheticOptions
	// FleetSLO is the latency objective a fleet autoscaler provisions
	// for.
	FleetSLO = fleet.SLO
	// FleetReplayConfig drives one Fig. 8 consolidation replay.
	FleetReplayConfig = fleet.ReplayConfig
	// FleetReplayPoint is one reporting quantum of a replay (one CSV
	// row).
	FleetReplayPoint = fleet.ReplayPoint
	// FleetReplayResult is a finished replay.
	FleetReplayResult = fleet.ReplayResult
	// FleetResilience summarizes a faulted run's recovery behavior.
	FleetResilience = fleet.Resilience
)

// Report is a control-variable report (see internal/influence).
type Report = influence.Report

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

// NewFleetScenario builds a fleet supervisor from a scenario of named
// heterogeneous workload groups — each with its own app factory,
// profile, heart-rate target, arrival stream, SLO, and contention
// pressure — sharing machines and one power budget. Drive it with
// Fleet.Run(nil, rounds): every group's own load generator feeds its
// instances.
func NewFleetScenario(sc FleetScenario) (*Fleet, error) { return fleet.NewScenario(sc) }

// NewSyntheticApp builds the analytically exact synthetic workload used
// by fleet tests and demos.
func NewSyntheticApp(opts SyntheticOptions) App { return fleet.NewSynthetic(opts) }

// ReplayFleet feeds a spiky arrival trace through the autoscaled fleet
// on the event timeline — the executed form of the paper's Fig. 8
// consolidation experiment.
func ReplayFleet(sup *Fleet, cfg FleetReplayConfig) (*FleetReplayResult, error) {
	return fleet.Replay(sup, cfg)
}

// Fig8Rates synthesizes the paper's Sec. 5.5 spiky consolidation trace
// as an arrival-rate series.
func Fig8Rates(rounds int, peak float64, seed int64) []float64 {
	return fleet.Fig8Rates(rounds, peak, seed)
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
