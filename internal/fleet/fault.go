package fleet

// This file is the fault & degradation subsystem: a pluggable FaultModel
// injects seeded, deterministic fault events onto the event timeline —
// host crash + recovery, correlated rack outages, thermal throttling
// that clamps DVFS below the arbiter's grant, straggler instances, and
// power-supply sag landing as mid-window cap scaling. Faults are
// first-class events in the canonical (instant, kind, host, seq) scheme
// (evFault, between caps and placements), so runs stay bit-identical at
// any Workers count; every fault landing and recovery re-arbitrates
// the cluster budget at its exact virtual instant. The
// paper's premise is graceful adaptation when the power envelope moves
// underneath a running system — this is the layer that moves it
// adversarially, and Report.Resilience is how recovery is measured.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/csvcol"
	"repro/internal/platform"
)

// FaultKind labels one class of injected fault.
type FaultKind string

const (
	// FaultCrash takes a host down for the fault's duration: its
	// residents serve nothing, their in-flight and queued requests are
	// redispatched within their group (FaultOptions.Redispatch) or
	// dropped, and the host draws zero power until recovery.
	FaultCrash FaultKind = "crash"
	// FaultThrottle thermally throttles a host: for the duration its
	// DVFS state is clamped at or below State (a platform.Frequencies
	// index; higher = slower) regardless of the arbiter's grant.
	FaultThrottle FaultKind = "throttle"
	// FaultStraggler slows one instance by Factor (> 1) for the
	// duration — its effective co-residency share divides by Factor, the
	// event-time form of a degraded replica.
	FaultStraggler FaultKind = "straggler"
	// FaultSag is a power-supply sag: the cluster budget multiplies by
	// Factor (in (0,1)) at the landing and divides back at recovery — a
	// pair of mid-window cap events. A no-op on unlimited budgets.
	FaultSag FaultKind = "sag"
)

// FaultEvent is one scheduled fault: a kind, a landing instant, a
// duration (recovery lands At+Duration), and kind-specific parameters.
// Events with non-positive durations, out-of-range hosts, or degenerate
// parameters (throttle State <= 0, straggler Factor <= 1, sag Factor
// outside (0,1)) are discarded at scheduling time, so models may emit
// freely from fuzzed or sampled inputs.
type FaultEvent struct {
	// At is the landing instant (virtual time). Instants before the
	// current round clamp to its start, like scheduled caps do.
	At time.Time
	// Kind selects the fault class.
	Kind FaultKind
	// Host is the target host index (crash, throttle; straggler target
	// resolution when Instance < 0). Ignored by sag.
	Host int
	// Rack is an optional correlation label: rack-outage models emit one
	// crash per host of the affected rack, all carrying the rack's name.
	Rack string
	// Duration is how long the fault holds (> 0; recovery lands at
	// At+Duration).
	Duration time.Duration
	// State is the throttle clamp: the slowest DVFS state index the host
	// may exceed (platform.Frequencies index, higher = slower).
	State int
	// Factor is the straggler slowdown (> 1) or the sag budget scale
	// (in (0,1)).
	Factor float64
	// Instance optionally pins a straggler to an instance id; < 0
	// resolves to the lowest-id live resident of Host at landing.
	Instance int
}

// FaultModel is the pluggable fault source: Events is called once per
// round at the round seed and returns the faults to schedule (any
// instant — past instants clamp to the round start, future ones wait in
// the schedule until due). Implementations must be deterministic; hosts
// is the fleet's machine count.
type FaultModel interface {
	Events(round int, start time.Time, quantum time.Duration, hosts int) []FaultEvent
}

// FaultOptions wires a fault model into a fleet (Scenario.Faults or
// Supervisor.SetFaults).
type FaultOptions struct {
	// Model is the fault source (required).
	Model FaultModel
	// Redispatch controls what happens to a crashed host's in-flight and
	// queued requests: true re-offers them within their group from the
	// crash instant; false (the default) drops them — counted per fault
	// in Resilience, never as completions.
	Redispatch bool
}

// FaultSchedule is a static FaultModel: a fixed list of fault events,
// all handed to the scheduler in round 0 (entries for later rounds wait
// until due). The chaos tests and the cmd/fleet -faults explicit
// schedule use it.
type FaultSchedule []FaultEvent

// Events implements FaultModel.
func (fs FaultSchedule) Events(round int, start time.Time, quantum time.Duration, hosts int) []FaultEvent {
	if round != 0 {
		return nil
	}
	return append([]FaultEvent(nil), fs...)
}

// FaultConfig parameterizes the seeded stochastic fault model
// (NewSeededFaults). All rates are mean events per round (Poisson);
// durations are exponential around their means.
type FaultConfig struct {
	// Seed seeds the model's RNG (default 1).
	Seed int64
	// Racks labels hosts with racks for correlated outages: host i
	// belongs to Racks[i % len(Racks)]. Empty disables rack outages.
	Racks []string
	// CrashRate, RackRate, ThrottleRate, StragglerRate, SagRate are mean
	// fault counts per round (<= 0 disables the class).
	CrashRate     float64
	RackRate      float64
	ThrottleRate  float64
	StragglerRate float64
	SagRate       float64
	// MeanOutage, MeanThrottle, MeanSlow, MeanSag are mean fault
	// durations (defaults 2s, 3s, 3s, 2s).
	MeanOutage   time.Duration
	MeanThrottle time.Duration
	MeanSlow     time.Duration
	MeanSag      time.Duration
	// ThrottleFloor is the clamp state throttle faults impose (default
	// the second-slowest DVFS state).
	ThrottleFloor int
	// SlowFactor is the straggler slowdown (default 2).
	SlowFactor float64
	// SagFactor is the sag budget scale (default 0.6).
	SagFactor float64
}

// SeededFaults is the stochastic FaultModel: per-round Poisson fault
// counts per class, uniform landing instants and hosts, exponential
// durations — deterministic for a fixed seed.
type SeededFaults struct {
	cfg   FaultConfig
	rng   *rand.Rand
	racks []string // distinct rack labels, first-appearance order
}

// NewSeededFaults builds the seeded stochastic fault model.
func NewSeededFaults(cfg FaultConfig) *SeededFaults {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MeanOutage <= 0 {
		cfg.MeanOutage = 2 * time.Second
	}
	if cfg.MeanThrottle <= 0 {
		cfg.MeanThrottle = 3 * time.Second
	}
	if cfg.MeanSlow <= 0 {
		cfg.MeanSlow = 3 * time.Second
	}
	if cfg.MeanSag <= 0 {
		cfg.MeanSag = 2 * time.Second
	}
	if cfg.ThrottleFloor <= 0 || cfg.ThrottleFloor >= len(platform.Frequencies) {
		cfg.ThrottleFloor = len(platform.Frequencies) - 2
	}
	if cfg.SlowFactor <= 1 {
		cfg.SlowFactor = 2
	}
	if cfg.SagFactor <= 0 || cfg.SagFactor >= 1 {
		cfg.SagFactor = 0.6
	}
	m := &SeededFaults{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	seen := make(map[string]bool)
	for _, r := range cfg.Racks {
		if r != "" && !seen[r] {
			seen[r] = true
			m.racks = append(m.racks, r)
		}
	}
	return m
}

// duration draws an exponential duration around mean, floored at 50ms
// so recoveries never collapse onto their landings.
func (m *SeededFaults) duration(mean time.Duration) time.Duration {
	d := time.Duration(m.rng.ExpFloat64() * float64(mean))
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// instant draws a uniform landing instant inside the round.
func (m *SeededFaults) instant(start time.Time, quantum time.Duration) time.Time {
	return start.Add(time.Duration(m.rng.Float64() * float64(quantum)))
}

// Events implements FaultModel: one Poisson draw per fault class per
// round, in a fixed class order so the RNG sequence — and therefore the
// schedule — is identical at every Workers count.
func (m *SeededFaults) Events(round int, start time.Time, quantum time.Duration, hosts int) []FaultEvent {
	if hosts < 1 {
		return nil
	}
	var out []FaultEvent
	for i := poisson(m.rng, m.cfg.CrashRate); i > 0; i-- {
		out = append(out, FaultEvent{
			At: m.instant(start, quantum), Kind: FaultCrash,
			Host: m.rng.Intn(hosts), Duration: m.duration(m.cfg.MeanOutage), Instance: -1,
		})
	}
	if len(m.racks) > 0 {
		for i := poisson(m.rng, m.cfg.RackRate); i > 0; i-- {
			rack := m.racks[m.rng.Intn(len(m.racks))]
			at, d := m.instant(start, quantum), m.duration(m.cfg.MeanOutage)
			for h := 0; h < hosts; h++ {
				if m.cfg.Racks[h%len(m.cfg.Racks)] == rack {
					out = append(out, FaultEvent{At: at, Kind: FaultCrash, Host: h, Rack: rack, Duration: d, Instance: -1})
				}
			}
		}
	}
	for i := poisson(m.rng, m.cfg.ThrottleRate); i > 0; i-- {
		out = append(out, FaultEvent{
			At: m.instant(start, quantum), Kind: FaultThrottle,
			Host: m.rng.Intn(hosts), Duration: m.duration(m.cfg.MeanThrottle),
			State: m.cfg.ThrottleFloor, Instance: -1,
		})
	}
	for i := poisson(m.rng, m.cfg.StragglerRate); i > 0; i-- {
		out = append(out, FaultEvent{
			At: m.instant(start, quantum), Kind: FaultStraggler,
			Host: m.rng.Intn(hosts), Duration: m.duration(m.cfg.MeanSlow),
			Factor: m.cfg.SlowFactor, Instance: -1,
		})
	}
	for i := poisson(m.rng, m.cfg.SagRate); i > 0; i-- {
		out = append(out, FaultEvent{
			At: m.instant(start, quantum), Kind: FaultSag,
			Host: -1, Duration: m.duration(m.cfg.MeanSag),
			Factor: m.cfg.SagFactor, Instance: -1,
		})
	}
	return out
}

// faultChange is one scheduled fault landing or recovery, drained from
// the supervisor's schedule by the round seed exactly like cap and
// placement changes (dueBefore: stable virtual-time order, past-due
// instants clamp to the round start).
type faultChange struct {
	id      int
	at      time.Time
	recover bool
	ev      FaultEvent
}

// FaultRecord is one landed fault's resilience accounting.
type FaultRecord struct {
	// Kind, Host, Rack, Instance identify the fault (Host -1 for sag;
	// Instance is the resolved straggler target, -1 otherwise).
	Kind     FaultKind
	Host     int
	Rack     string
	Instance int
	// At and Until bound the fault window.
	At    time.Time
	Until time.Time
	// Redispatched and Dropped count the crashed host's in-flight and
	// queued requests re-offered within their group vs dropped
	// (FaultOptions.Redispatch).
	Redispatched int
	Dropped      int
	// RecoverySeconds is the time from the landing to the end of the
	// first round, at or after the fault window, whose completions
	// returned to the pre-fault p95 — -1 when the run ends first.
	// Computed by Report.
	RecoverySeconds float64
	// ViolationRounds counts rounds from the landing through recovery
	// (or the run end) in which any group with a latency SLO broke its
	// p95, or starved with a standing backlog. Computed by Report.
	ViolationRounds int

	sagApplied bool // the sag multiplied a finite budget (restore divides)
}

// Resilience summarizes a faulted run (Report.Resilience; nil unless a
// fault model is wired).
type Resilience struct {
	// Faults are the landed faults in landing order.
	Faults []FaultRecord
	// Crashes, Throttles, Stragglers, Sags count landed faults per kind
	// (each host of a rack outage counts as one crash).
	Crashes    int
	Throttles  int
	Stragglers int
	Sags       int
	// Redispatched and Dropped total the crashed hosts' displaced
	// requests across every fault.
	Redispatched int
	Dropped      int
	// Recovered counts faults whose recovery round was observed;
	// MeanRecoverySeconds averages RecoverySeconds over them.
	Recovered           int
	MeanRecoverySeconds float64
}

// SetFaults wires a fault model into the fleet before the first step —
// the programmatic form of Scenario.Faults, for callers that build the
// supervisor before loading the fault spec.
func (s *Supervisor) SetFaults(opts FaultOptions) error {
	if opts.Model == nil {
		return errors.New("fleet: FaultOptions requires a Model")
	}
	if s.round != 0 {
		return fmt.Errorf("fleet: SetFaults requires an unstepped supervisor (already at round %d)", s.round)
	}
	o := opts
	s.faultOpts = &o
	if s.recByID == nil {
		s.recByID = make(map[int]int)
	}
	return nil
}

// scheduleFault validates and schedules one fault event: a landing and
// a recovery entry sharing an id. Degenerate events are discarded, so
// models may emit from fuzzed or sampled inputs without pre-validating.
func (s *Supervisor) scheduleFault(fe FaultEvent) {
	if fe.Duration <= 0 {
		return
	}
	switch fe.Kind {
	case FaultCrash:
		if fe.Host < 0 || fe.Host >= len(s.hosts) {
			return
		}
		fe.Instance = -1
	case FaultThrottle:
		if fe.Host < 0 || fe.Host >= len(s.hosts) || fe.State <= 0 {
			return
		}
		if fe.State >= len(platform.Frequencies) {
			fe.State = len(platform.Frequencies) - 1
		}
		fe.Instance = -1
	case FaultStraggler:
		if fe.Factor <= 1 {
			return
		}
		if fe.Instance < 0 && (fe.Host < 0 || fe.Host >= len(s.hosts)) {
			return
		}
	case FaultSag:
		if fe.Factor <= 0 || fe.Factor >= 1 {
			return
		}
		fe.Host, fe.Instance = -1, -1
	default:
		return
	}
	id := s.nextFault
	s.nextFault++
	s.faults = append(s.faults, faultChange{id: id, at: fe.At, ev: fe})
	s.faults = append(s.faults, faultChange{id: id, at: fe.At.Add(fe.Duration), recover: true, ev: fe})
}

// dueFaults removes and returns the scheduled fault changes landing
// before cutoff, in stable virtual-time order (shared dueBefore policy
// with caps and placements).
func (s *Supervisor) dueFaults(cutoff time.Time) []faultChange {
	due, later := dueBefore(s.faults, func(f faultChange) time.Time { return f.at }, cutoff)
	s.faults = later
	return due
}

// resolveStraggler maps a straggler event to its target instance: the
// pinned id when set, otherwise the lowest-id live resident of the
// event's host. Nil when no target exists.
func (s *Supervisor) resolveStraggler(fe FaultEvent) *Instance {
	if fe.Instance >= 0 {
		for _, inst := range s.insts {
			if inst.id == fe.Instance && !inst.retired && inst.host != nil {
				return inst
			}
		}
		return nil
	}
	var best *Instance
	for _, inst := range s.hosts[fe.Host].residents {
		if !inst.retired && (best == nil || inst.id < best.id) {
			best = inst
		}
	}
	return best
}

// landFault applies one fault landing or recovery at virtual time at.
// The caller (the round loop's evFault case) re-arbitrates, refreshes
// accepting sets, and re-offers backlog immediately after, exactly like
// placement landings — so the same-instant same-kind commutation
// argument holds and results stay bit-identical.
func (s *Supervisor) landFault(at time.Time, f faultChange) {
	if f.recover {
		s.recoverFault(at, f)
		return
	}
	rec := FaultRecord{
		Kind: f.ev.Kind, Host: f.ev.Host, Rack: f.ev.Rack, Instance: -1,
		At: at, Until: at.Add(f.ev.Duration), RecoverySeconds: -1,
	}
	switch f.ev.Kind {
	case FaultCrash:
		h := s.hosts[f.ev.Host]
		s.closeSegment(h, at)
		until := rec.Until
		if h.down && h.downUntil.After(until) {
			until = h.downUntil
		}
		h.down, h.downUntil = true, until
		// Displace the host's work: the in-flight session aborts (its
		// partial work is lost; a redispatched request restarts from
		// scratch with its original arrival, so its latency carries the
		// crash), queued requests follow, and a draining resident whose
		// queue the crash emptied retires on the spot.
		residents := append([]*Instance(nil), h.residents...)
		for _, inst := range residents {
			// A fluid resident leaves the fluid timeline before its
			// backlog is displaced (no reactivation — the host is down;
			// recovery re-dispatch revives it).
			s.forceExitFluid(inst, at, false)
			if inst.sess != nil {
				inst.sess.Abort()
				inst.endSession(inst.cur)
				if s.faultOpts.Redispatch {
					s.pending = append(s.pending, inst.cur)
					rec.Redispatched++
				} else {
					rec.Dropped++
				}
				inst.sess, inst.cur = nil, nil
			}
			if n := len(inst.queue); n > 0 {
				if s.faultOpts.Redispatch {
					s.pending = append(s.pending, inst.queue...)
					rec.Redispatched += n
				} else {
					rec.Dropped += n
				}
				inst.queue = nil
			}
			if inst.draining {
				s.retireAt(inst, at)
			}
		}
		s.record(TraceEvent{At: at, Kind: TraceFault, Instance: -1, Host: h.index, State: -1, Value: f.ev.Duration.Seconds(), Group: f.ev.Rack})
	case FaultThrottle:
		h := s.hosts[f.ev.Host]
		if at.Before(h.throttleUntil) {
			// Overlapping throttles compose conservatively: the deeper
			// clamp and the later recovery both hold.
			if f.ev.State > h.throttleState {
				h.throttleState = f.ev.State
			}
			if rec.Until.After(h.throttleUntil) {
				h.throttleUntil = rec.Until
			}
		} else {
			h.throttleState, h.throttleUntil = f.ev.State, rec.Until
		}
		s.record(TraceEvent{At: at, Kind: TraceThrottle, Instance: -1, Host: h.index, State: h.throttleState, Value: platform.Frequencies[h.throttleState]})
	case FaultStraggler:
		inst := s.resolveStraggler(f.ev)
		if inst == nil {
			return // no live target: the fault fizzles, no record
		}
		rec.Instance, rec.Host = inst.id, inst.HostIndex()
		// The straggler's effective speed is about to change under its
		// frozen fluid estimate: render and re-materialize first.
		s.forceExitFluid(inst, at, true)
		if at.Before(inst.slowUntil) {
			if f.ev.Factor > inst.slowFactor {
				inst.slowFactor = f.ev.Factor
			}
			if rec.Until.After(inst.slowUntil) {
				inst.slowUntil = rec.Until
			}
		} else {
			inst.slowFactor, inst.slowUntil = f.ev.Factor, rec.Until
		}
		s.record(TraceEvent{At: at, Kind: TraceFault, Instance: inst.id, Host: rec.Host, State: -1, Value: f.ev.Factor, Group: inst.grp.name})
	case FaultSag:
		if b := s.arb.Budget(); b > 0 {
			s.arb.SetBudget(b * f.ev.Factor)
			rec.sagApplied = true
		}
		s.record(TraceEvent{At: at, Kind: TraceFault, Instance: -1, Host: -1, State: -1, Value: s.arb.Budget()})
	}
	s.recByID[f.id] = len(s.faultRecs)
	s.faultRecs = append(s.faultRecs, rec)
	if rec.Until.After(s.faultActiveUntil) {
		s.faultActiveUntil = rec.Until
	}
	s.roundFaults++
	s.roundRedispatched += rec.Redispatched
	s.roundDropped += rec.Dropped
	s.dropped += rec.Dropped
	s.redispatched += rec.Redispatched
}

// recoverFault applies one fault recovery at virtual time at. The
// arbitration that follows restores the host's grant (throttle), the
// instance's share (straggler), or redistributes the restored budget
// (sag); a crashed host rejoins the dispatch domain through the
// accepting-set refresh.
func (s *Supervisor) recoverFault(at time.Time, f faultChange) {
	idx, ok := s.recByID[f.id]
	if !ok {
		return // the landing fizzled (no live target) or never happened
	}
	rec := &s.faultRecs[idx]
	switch f.ev.Kind {
	case FaultCrash:
		h := s.hosts[f.ev.Host]
		if !h.down || h.downUntil.After(at) {
			return // an overlapping crash extended the outage
		}
		s.closeSegment(h, at) // books the outage tail at zero power
		h.down, h.downUntil = false, time.Time{}
	case FaultThrottle:
		h := s.hosts[f.ev.Host]
		if !h.throttleUntil.After(at) {
			h.throttleState, h.throttleUntil = 0, time.Time{}
		}
	case FaultStraggler:
		for _, inst := range s.insts {
			if inst.id == rec.Instance && !inst.slowUntil.After(at) {
				// Speed is about to snap back: exit any fluid flow built
				// on the slowed estimate.
				s.forceExitFluid(inst, at, true)
				inst.slowFactor, inst.slowUntil = 0, time.Time{}
			}
		}
	case FaultSag:
		if rec.sagApplied {
			if b := s.arb.Budget(); b > 0 {
				s.arb.SetBudget(b / f.ev.Factor)
			}
		}
	}
	s.record(TraceEvent{At: at, Kind: TraceRecover, Instance: rec.Instance, Host: rec.Host, State: -1, Group: rec.Rack})
}

// resilience assembles Report.Resilience from the landed fault records
// and the closed rounds: recovery time to the pre-fault p95 and the SLO
// violations attributable to each fault window. Records are copied, so
// Report stays idempotent.
func (s *Supervisor) resilience() *Resilience {
	res := &Resilience{Redispatched: s.redispatched, Dropped: s.dropped}
	quantum := s.cfg.Quantum
	epoch := epochTime()
	var recSum float64
	for _, rec := range s.faultRecs {
		switch rec.Kind {
		case FaultCrash:
			res.Crashes++
		case FaultThrottle:
			res.Throttles++
		case FaultStraggler:
			res.Stragglers++
		case FaultSag:
			res.Sags++
		}
		landRound := int(rec.At.Sub(epoch) / quantum)
		if landRound >= len(s.rounds) {
			res.Faults = append(res.Faults, rec)
			continue
		}
		// Baseline: the nearest preceding round that completed anything.
		var baseline float64
		for r := landRound - 1; r >= 0; r-- {
			if s.rounds[r].Completions > 0 {
				baseline = s.rounds[r].LatencyP95
				break
			}
		}
		// Recovery: the first round ending at or after the fault window
		// whose completions returned to the pre-fault p95 (any
		// completing round when there was no baseline).
		lastRound := len(s.rounds) - 1
		for r := landRound; r < len(s.rounds); r++ {
			roundEnd := epoch.Add(time.Duration(r+1) * quantum)
			if roundEnd.Before(rec.Until) || s.rounds[r].Completions == 0 {
				continue
			}
			if baseline == 0 || s.rounds[r].LatencyP95 <= baseline {
				rec.RecoverySeconds = roundEnd.Sub(rec.At).Seconds()
				res.Recovered++
				recSum += rec.RecoverySeconds
				lastRound = r
				break
			}
		}
		// Violations attributable to the window: rounds from the landing
		// through recovery (or the run end) in which any group with a
		// latency SLO broke its p95 or starved with a standing backlog.
		for r := landRound; r <= lastRound; r++ {
			violated := false
			for gi, g := range s.groups {
				if g.slo.P95 <= 0 {
					continue
				}
				gs := s.rounds[r].Groups[gi]
				if gs.LatencyP95 > g.slo.P95 || (gs.Completions == 0 && gs.QueueDepth > 0) {
					violated = true
				}
			}
			if violated {
				rec.ViolationRounds++
			}
		}
		res.Faults = append(res.Faults, rec)
	}
	if res.Recovered > 0 {
		res.MeanRecoverySeconds = recSum / float64(res.Recovered)
	}
	return res
}

// resilienceCols is the resilience CSV schema, documented in
// docs/TRACE_FORMAT.md.
var resilienceCols = []csvcol.Col[FaultRecord]{
	{Name: "kind", Cell: func(rec *FaultRecord) string { return string(rec.Kind) }},
	csvcol.Int("host", func(rec *FaultRecord) int { return rec.Host }),
	csvcol.Int("instance", func(rec *FaultRecord) int { return rec.Instance }),
	{Name: "rack", Cell: func(rec *FaultRecord) string { return rec.Rack }},
	csvcol.Float("t_start_s", 'f', 6, func(rec *FaultRecord) float64 { return rec.At.Sub(epochTime()).Seconds() }),
	csvcol.Float("t_end_s", 'f', 6, func(rec *FaultRecord) float64 { return rec.Until.Sub(epochTime()).Seconds() }),
	csvcol.Int("redispatched", func(rec *FaultRecord) int { return rec.Redispatched }),
	csvcol.Int("dropped", func(rec *FaultRecord) int { return rec.Dropped }),
	csvcol.Float("recovery_s", 'f', 6, func(rec *FaultRecord) float64 { return rec.RecoverySeconds }),
	csvcol.Int("violation_rounds", func(rec *FaultRecord) int { return rec.ViolationRounds }),
}

// WriteResilienceCSV writes one row per landed fault, in landing order
// (the CI chaos artifact); a nil res writes the header alone. The
// columns are documented in docs/TRACE_FORMAT.md.
func WriteResilienceCSV(w io.Writer, res *Resilience) error {
	var faults []FaultRecord
	if res != nil {
		faults = res.Faults
	}
	return csvcol.Write(w, resilienceCols, faults)
}
