package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/heartbeats"
	"repro/internal/knobs"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TracePoint is one runtime observation, recorded per heartbeat — the
// data behind Fig. 7's timelines.
type TracePoint struct {
	Time time.Time
	// NormPerf is the sliding-window heart rate normalized to the
	// target (1.0 = on target).
	NormPerf float64
	// Gain is the knob gain: the actuator plan's expected speedup.
	Gain float64
	// Setting is the knob setting used for the beat.
	Setting knobs.Setting
	// Frequency is the machine frequency during the beat (GHz).
	Frequency float64
}

// RuntimeConfig assembles a runtime.
type RuntimeConfig struct {
	System  *System           // prepared PowerDial system (required)
	Machine *platform.Machine // execution platform (required)
	// Target is the heart-rate goal. Zero means "measure": the target
	// is set to the baseline heart rate at the machine's current
	// frequency, the paper's configuration (Sec. 2.3.1).
	Target heartbeats.Target
	// Policy selects the actuation solution (default MinQoS).
	Policy control.Policy
	// QuantumBeats is the actuator quantum (default 20).
	QuantumBeats int
	// Record enables per-beat trace collection.
	Record bool
	// Disabled turns the control system off: the application runs at
	// the baseline setting regardless of feedback (the "without dynamic
	// knobs" lines of Fig. 7).
	Disabled bool
	// BeatHook, when set, is invoked after every completed iteration
	// with the total beat count. Experiments use it to impose and lift
	// power caps mid-run (Sec. 5.4).
	BeatHook func(completedBeats int)
	// CostPerBeat is the application's BaselineCostPerBeat on its
	// training inputs. Zero measures it; a caller building many runtimes
	// over copies of one deterministic app measures once and passes it.
	CostPerBeat float64
}

// Runtime executes application streams on a simulated machine under
// PowerDial control.
//
// One goroutine at a time drives the run (RunStream or Session.Step)
// and owns the beat state; Snapshot, Gain, CurrentPlanLoss and Trace
// may be called concurrently from another goroutine, which is how the
// fleet supervisor observes resident instances.
type Runtime struct {
	sys     *System
	mach    *platform.Machine
	mon     *heartbeats.Monitor
	ctl     *control.Controller
	act     *control.Actuator
	quantum int
	record  bool
	off     bool

	baseline knobs.Setting
	hook     func(int)

	// mu guards trace and the writes of sch. The stepping goroutine
	// reads sch without mu, because it is sch's only writer; current is
	// read and written by the stepping goroutine alone.
	mu      sync.Mutex
	sch     control.Schedule
	current knobs.Setting
	beats   atomic.Int64
	trace   []TracePoint
}

// BaselineCostPerBeat measures the mean work units per iteration of the
// application at its baseline setting over the given input set — the
// quantity from which baseline heart rate b is derived (b = machine
// speed / cost per beat).
func BaselineCostPerBeat(app workload.App, set workload.InputSet) (float64, error) {
	space, err := workload.Space(app)
	if err != nil {
		return 0, err
	}
	streams := app.Streams(set)
	if len(streams) == 0 {
		return 0, fmt.Errorf("core: %s has no %s streams", app.Name(), set)
	}
	var total float64
	var n int
	for _, st := range streams {
		cost, _ := workload.MeasureStream(app, st, space.Default())
		total += cost
		n += st.Len()
	}
	if n == 0 {
		return 0, fmt.Errorf("core: %s %s streams are empty", app.Name(), set)
	}
	return total / float64(n), nil
}

// NewRuntime builds the per-application control runtime. When
// cfg.Target is zero, the baseline heart rate is measured on the
// training inputs at the machine's current frequency and used as both
// minimum and maximum target, as in the paper's experiments.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if cfg.System == nil || cfg.Machine == nil {
		return nil, fmt.Errorf("core: RuntimeConfig requires System and Machine")
	}
	if cfg.QuantumBeats == 0 {
		cfg.QuantumBeats = control.DefaultQuantumBeats
	}
	costPerBeat := cfg.CostPerBeat
	if costPerBeat == 0 {
		var err error
		if costPerBeat, err = BaselineCostPerBeat(cfg.System.App, workload.Training); err != nil {
			return nil, err
		}
	}
	b := cfg.Machine.Speed() / costPerBeat
	target := cfg.Target
	if !target.Valid() {
		target = heartbeats.Target{Min: b, Max: b}
	}
	mon, err := heartbeats.NewMonitor(target,
		heartbeats.WithClock(cfg.Machine.Clock()),
		heartbeats.WithWindow(cfg.QuantumBeats))
	if err != nil {
		return nil, err
	}
	// The band controller honors the Heartbeats min/max interface and
	// degenerates to the paper's point controller when Min == Max (the
	// experimental configuration).
	ctl, err := control.NewBandController(b, target.Min, target.Max, cfg.System.Profile.MaxSpeedup())
	if err != nil {
		return nil, err
	}
	act, err := control.NewActuator(cfg.System.Profile, cfg.Policy)
	if err != nil {
		return nil, err
	}
	space, err := workload.Space(cfg.System.App)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		sys:      cfg.System,
		mach:     cfg.Machine,
		mon:      mon,
		ctl:      ctl,
		act:      act,
		quantum:  cfg.QuantumBeats,
		record:   cfg.Record,
		off:      cfg.Disabled,
		baseline: space.Default(),
		hook:     cfg.BeatHook,
	}
	rt.sch = control.BuildSchedule(act.PlanFor(1), cfg.QuantumBeats)
	return rt, nil
}

// Monitor exposes the heartbeat monitor (for tests and experiments).
func (rt *Runtime) Monitor() *heartbeats.Monitor { return rt.mon }

// Machine returns the execution platform the runtime is bound to.
func (rt *Runtime) Machine() *platform.Machine { return rt.mach }

// Trace returns the recorded per-beat observations.
func (rt *Runtime) Trace() []TracePoint {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]TracePoint, len(rt.trace))
	copy(out, rt.trace)
	return out
}

// Gain returns the current plan's expected speedup (Fig. 7's knob gain).
func (rt *Runtime) Gain() float64 {
	if rt.off {
		return 1
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sch.Plan().ExpectedSpeedup()
}

// Snapshot is a point-in-time observation of a running instance, safe to
// take from another goroutine.
type Snapshot struct {
	Beats    int     // completed iterations
	Gain     float64 // active plan's expected speedup
	PlanLoss float64 // active plan's expected QoS loss
	NormPerf float64 // windowed heart rate / target (1.0 = on target)
}

// Snapshot captures the runtime's observable state. The per-round stats
// sweep reads one per instance per round, so it allocates nothing.
//
//fleetvet:noalloc
func (rt *Runtime) Snapshot() Snapshot {
	s := Snapshot{Beats: int(rt.beats.Load()), Gain: 1}
	if !rt.off {
		rt.mu.Lock()
		s.Gain = rt.sch.Plan().ExpectedSpeedup()
		s.PlanLoss = rt.sch.Plan().ExpectedLoss()
		rt.mu.Unlock()
	}
	s.NormPerf = rt.mon.NormalizedPerformance()
	return s
}

// RunSummary reports one controlled stream execution.
type RunSummary struct {
	Output    workload.Output
	Beats     int
	Elapsed   time.Duration
	MeanPower float64
	// PerfError is |mean rate − target| / target over the run.
	PerfError float64
}

// Session is an in-progress controlled pass over one stream, advanced
// beat by beat. It lets a scheduler (the fleet supervisor) interleave a
// run with other work on a time budget instead of driving the stream to
// completion in one call.
type Session struct {
	rt         *Runtime
	run        workload.Run
	start      time.Time
	startBeats int
	done       bool
}

// NewSession starts a controlled pass over the stream.
func (rt *Runtime) NewSession(st workload.Stream) *Session {
	return rt.StartSession(nil, st.NewRun())
}

// StartSession begins a controlled pass over an already-prepared run,
// reusing the Session allocation when the caller hands a finished one
// back (nil allocates). Schedulers that pool rewindable runs
// (workload.Rewinder) use this to serve steady-state requests without
// allocating.
func (rt *Runtime) StartSession(s *Session, run workload.Run) *Session {
	if s == nil {
		s = &Session{}
	}
	*s = Session{
		rt:         rt,
		run:        run,
		start:      rt.mach.Clock().Now(),
		startBeats: int(rt.beats.Load()),
	}
	return s
}

// Body returns the session's underlying run, so a scheduler can pool it
// for reuse once the session is finished and its output consumed.
func (s *Session) Body() workload.Run { return s.run }

// Step executes one iteration (one beat) of the session's stream. It
// returns done=true when the stream is exhausted; stepping a finished
// session stays done.
func (s *Session) Step() (done bool, err error) {
	if s.done {
		return true, nil
	}
	rt := s.rt
	setting, installed, idleRatio := rt.beginBeat()
	if !installed {
		if err := rt.installSetting(setting); err != nil {
			return false, err
		}
	}
	cost, ok := s.run.Step()
	if !ok {
		// No heartbeat for the loop exit: beats mark completed
		// iterations, so chaining streams never injects
		// zero-interval beats.
		s.done = true
		return true, nil
	}
	d := rt.mach.Execute(cost)
	if idleRatio > 0 {
		rt.mach.Idle(time.Duration(float64(d) * idleRatio))
	}
	beats := rt.finishBeat(setting)
	if rt.hook != nil {
		rt.hook(beats)
	}
	return false, nil
}

// finishBeat emits the heartbeat for the completed iteration, records the
// trace point, and at quantum boundaries runs the controller and actuator
// to produce the next plan. It returns the total beat count. It takes
// rt.mu only to publish a new schedule or a trace point.
func (rt *Runtime) finishBeat(setting knobs.Setting) int {
	rt.mon.Beat()
	beats := int(rt.beats.Add(1))
	if !rt.off && beats%rt.quantum == 0 {
		if h := rt.mon.WindowRate(); h > 0 {
			// A schedule is a pure function of the commanded speedup
			// (the plan records it as Required), so an unchanged
			// command keeps the schedule in place.
			if s := rt.ctl.Update(h); math.Float64bits(s) != math.Float64bits(rt.sch.Plan().Required) {
				rt.mu.Lock()
				rt.sch = control.BuildSchedule(rt.act.PlanFor(s), rt.quantum)
				rt.mu.Unlock()
			}
		}
	}
	if rt.record {
		p := TracePoint{
			Time:      rt.mach.Clock().Now(),
			NormPerf:  rt.mon.NormalizedPerformance(),
			Gain:      rt.Gain(),
			Setting:   setting.Clone(),
			Frequency: rt.mach.Frequency(),
		}
		rt.mu.Lock()
		rt.trace = append(rt.trace, p)
		rt.mu.Unlock()
	}
	return beats
}

// Abort preempts the session at the current beat boundary: it is marked
// done with whatever output has accumulated, without touching the
// runtime — subsequent sessions on the same runtime serve normally. The
// fleet supervisor uses it to abandon an in-flight request when
// hard-stopping an instance or when its host crashes.
func (s *Session) Abort() { s.done = true }

// Done reports whether the session has finished.
func (s *Session) Done() bool { return s.done }

// Output returns the stream output accumulated so far.
func (s *Session) Output() workload.Output { return s.run.Output() }

// Summary reports the session's execution so far. MeanPower reflects the
// machine meter since its last Reset, which RunStream performs at start;
// sessions opened directly inherit whatever metering epoch is active.
func (s *Session) Summary() RunSummary {
	rt := s.rt
	elapsed := rt.mach.Clock().Now().Sub(s.start)
	nbeats := int(rt.beats.Load()) - s.startBeats
	sum := RunSummary{
		Output:    s.run.Output(),
		Beats:     nbeats,
		Elapsed:   elapsed,
		MeanPower: rt.mach.Meter().MeanPower(),
	}
	if elapsed > 0 && nbeats > 0 {
		rate := float64(nbeats) / elapsed.Seconds()
		g := rt.mon.Target().Goal()
		err := (rate - g) / g
		if err < 0 {
			err = -err
		}
		sum.PerfError = err
	}
	return sum
}

// RunStream drives one input stream to completion under control,
// returning its output and summary. The caller may change machine power
// states concurrently with the run (between beats) to model power caps.
func (rt *Runtime) RunStream(st workload.Stream) (RunSummary, error) {
	sess := rt.NewSession(st)
	rt.mach.Meter().Reset()
	for {
		done, err := sess.Step()
		if err != nil {
			return RunSummary{}, err
		}
		if done {
			break
		}
	}
	return sess.Summary(), nil
}

// beginBeat is a beat's prologue. It picks the beat's knob setting from
// the quantum schedule, whether that setting is already installed, and
// the schedule's idle ratio, all without a lock: only the goroutine
// driving the beat writes rt.sch and rt.current.
func (rt *Runtime) beginBeat() (setting knobs.Setting, installed bool, idleRatio float64) {
	setting = rt.baseline
	if !rt.off {
		setting = rt.sch.Setting(int(rt.beats.Load()) % rt.quantum)
		idleRatio = rt.sch.IdleRatio()
	}
	installed = rt.current != nil && rt.current.Equal(setting)
	return setting, installed, idleRatio
}

// installSetting applies a setting that differs from the current one
// and records it as current.
func (rt *Runtime) installSetting(s knobs.Setting) error {
	if err := rt.sys.ApplySetting(s); err != nil {
		return err
	}
	// Reuse the current slice's storage: a time-sliced plan flips the
	// setting nearly every beat, and current never leaves the stepping
	// goroutine, so this is the one assignment that would otherwise
	// allocate once per beat fleet-wide.
	rt.current = append(rt.current[:0], s...)
	return nil
}

// CurrentPlanLoss returns the expected QoS loss of the active plan.
func (rt *Runtime) CurrentPlanLoss() float64 {
	if rt.off {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sch.Plan().ExpectedLoss()
}
