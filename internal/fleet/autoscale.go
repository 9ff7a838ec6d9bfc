package fleet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cluster"
)

// SLO is the latency service-level objective an autoscaler provisions
// for.
type SLO struct {
	// P95 is the p95 request-latency bound in seconds (required, > 0).
	P95 float64
	// QueuePerInstance is the backlog watermark per accepting instance
	// above which the fleet counts as overloaded even before completed-
	// request latency degrades — queues signal a spike one quantum
	// before percentiles do (default 8).
	QueuePerInstance float64
}

// ScaleObservation is one closed reporting quantum as an autoscaler
// sees it. All counts and latencies are scoped to the workload group
// the policy is attached to — for a single-group fleet that is the
// whole fleet.
type ScaleObservation struct {
	// Round is the closed round's index.
	Round int
	// Group is the observed workload group's name.
	Group string
	// Now is the quantum's end — the virtual instant the decision is
	// made at.
	Now time.Time
	// Active counts accepting instances, including placements already
	// scheduled but not yet landed (so slow actuation cannot
	// double-provision).
	Active int
	// Draining counts instances still working off their queues on the
	// way out.
	Draining int
	// QueueDepth is queued + in-flight + undispatched requests at the
	// quantum end.
	QueueDepth int
	// Arrivals and Completions are this quantum's request counts.
	Arrivals    int
	Completions int
	// LatencyP95/P99 are this quantum's request-latency percentiles in
	// seconds (0 when nothing completed).
	LatencyP95 float64
	LatencyP99 float64
}

// Autoscaler decides the fleet's accepting-instance count. The
// supervisor consults it after every reporting quantum and schedules
// the placement events (StartAt/DrainAt) that move the fleet toward the
// returned count.
type Autoscaler interface {
	// Scale returns the desired accepting-instance count after the
	// observed round; returning obs.Active is a no-op.
	Scale(obs ScaleObservation) int
}

// HysteresisConfig tunes the default autoscaling policy.
type HysteresisConfig struct {
	// SLO is the objective (SLO.P95 required).
	SLO SLO
	// Min and Max bound the accepting-instance count (Min defaults to
	// 1; Max is required and must be >= Min).
	Min, Max int
	// DownFraction widens the hysteresis band: the controller only
	// consolidates while the smoothed p95 sits below
	// DownFraction·SLO.P95 (default 0.5). Between the band edges it
	// holds, which is what keeps the instance count from flapping on
	// measurement noise.
	DownFraction float64
	// Cooldown is how many rounds a consolidation must wait after any
	// scaling action (default 2). Scale-ups are never delayed — spikes
	// must be absorbed at event speed.
	Cooldown int
	// Smoothing is the EWMA weight of the newest p95 sample in the
	// smoothed latency signal (default 0.5). The EWMA is seeded with
	// the first round that completes requests — starting it at zero
	// dragged early samples toward zero and delayed the first scale-up
	// under an immediate overload by several rounds.
	Smoothing float64
	// Planner optionally feeds the M/D/1 provisioning estimate forward:
	// proposals are clamped to within ±1 of cluster.PlanInstances at
	// the smoothed arrival rate, which damps the ±1–2 instance
	// oscillation the pure measurement-driven policy shows under
	// sustained peak load (the measured p95 sits in its dead band).
	Planner *PlannerConfig
}

// PlannerConfig parameterizes the model-informed feed-forward term of
// the hysteresis policy: the smallest instance count whose per-station
// p-quantile M/D/1 sojourn meets the SLO, at an EWMA estimate λ̂ of the
// observed arrival rate.
type PlannerConfig struct {
	// Service is the deterministic per-request service time in seconds
	// at the target heart rate (required, > 0) — e.g. request iterations
	// divided by Supervisor.Target().Goal().
	Service float64
	// Quantum converts per-round arrival counts into per-second rates
	// (required, > 0; the fleet's Scenario.Quantum).
	Quantum time.Duration
	// Quantile is the sojourn quantile planned for (default 0.95).
	Quantile float64
	// RateSmoothing is the EWMA weight of the newest arrival-rate
	// sample in λ̂ (default 0.3; seeded with the first observation).
	// The EWMA is asymmetric: a sample above λ̂ replaces it outright —
	// provisioning must track a rising load at event speed, mirroring
	// the scaler's own up-fast/down-slow asymmetry — while samples
	// below it decay smoothly, so a single quiet round cannot drag the
	// plan down mid-peak.
	RateSmoothing float64
}

func (c *HysteresisConfig) fill() error {
	if c.SLO.P95 <= 0 {
		return fmt.Errorf("fleet: hysteresis autoscaler requires SLO.P95 > 0")
	}
	if c.SLO.QueuePerInstance == 0 {
		c.SLO.QueuePerInstance = 8
	}
	if c.Min == 0 {
		c.Min = 1
	}
	if c.Min < 1 || c.Max < c.Min {
		return fmt.Errorf("fleet: hysteresis bounds [%d,%d] invalid", c.Min, c.Max)
	}
	if c.DownFraction == 0 {
		c.DownFraction = 0.5
	}
	if c.DownFraction <= 0 || c.DownFraction >= 1 {
		return fmt.Errorf("fleet: DownFraction %v outside (0,1)", c.DownFraction)
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2
	}
	if c.Smoothing == 0 {
		c.Smoothing = 0.5
	}
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		return fmt.Errorf("fleet: Smoothing %v outside (0,1]", c.Smoothing)
	}
	if p := c.Planner; p != nil {
		if p.Service <= 0 || p.Quantum <= 0 {
			return fmt.Errorf("fleet: PlannerConfig requires Service and Quantum > 0")
		}
		if p.Quantile == 0 {
			p.Quantile = 0.95
		}
		if p.Quantile <= 0 || p.Quantile >= 1 {
			return fmt.Errorf("fleet: PlannerConfig.Quantile %v outside (0,1)", p.Quantile)
		}
		if p.RateSmoothing == 0 {
			p.RateSmoothing = 0.3
		}
		if p.RateSmoothing <= 0 || p.RateSmoothing > 1 {
			return fmt.Errorf("fleet: PlannerConfig.RateSmoothing %v outside (0,1]", p.RateSmoothing)
		}
	}
	return nil
}

// HysteresisScaler is the default Autoscaler: a two-sided hysteresis
// controller over the measured queue depth and smoothed p95 latency.
// It scales up immediately — and proportionally to the backlog — the
// round the SLO is threatened, and consolidates one instance at a time
// during troughs, only after the smoothed p95 has fallen deep below the
// objective and a cooldown has passed. The asymmetric shape is the
// paper's Fig. 8 story: spikes are absorbed fast, consolidation is
// cautious.
type HysteresisScaler struct {
	cfg      HysteresisConfig
	ewma     float64
	seeded   bool // ewma holds at least one completing round's p95
	lastMove int  // round of the last scaling action

	// Planner feed-forward state: λ̂, the arrival-rate EWMA.
	rateEwma   float64
	rateSeeded bool
}

// NewHysteresisScaler builds the default autoscaling policy.
func NewHysteresisScaler(cfg HysteresisConfig) (*HysteresisScaler, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &HysteresisScaler{cfg: cfg, lastMove: -1 << 30}, nil
}

// SLO returns the objective the scaler provisions for.
func (h *HysteresisScaler) SLO() SLO { return h.cfg.SLO }

// Scale implements Autoscaler.
func (h *HysteresisScaler) Scale(obs ScaleObservation) int {
	// Seed the EWMA with the first observed completing round: an EWMA
	// started at zero drags early p95 samples toward zero, so a round-1
	// SLO breach would take several rounds to cross the threshold.
	if !h.seeded {
		if obs.LatencyP95 > 0 {
			h.ewma = obs.LatencyP95
			h.seeded = true
		}
	} else {
		h.ewma = h.cfg.Smoothing*obs.LatencyP95 + (1-h.cfg.Smoothing)*h.ewma
	}
	desired := h.measured(obs)
	if h.cfg.Planner != nil {
		desired = h.clampToPlan(desired, obs)
	}
	if desired != obs.Active {
		h.lastMove = obs.Round
	}
	return desired
}

// measured is the pure measurement-driven hysteresis rule.
func (h *HysteresisScaler) measured(obs ScaleObservation) int {
	active := obs.Active
	if active < 1 {
		active = 1
	}
	queueHigh := float64(obs.QueueDepth) > h.cfg.SLO.QueuePerInstance*float64(active)
	latencyHigh := h.ewma > h.cfg.SLO.P95
	if queueHigh || latencyHigh {
		// Overloaded: jump to the instance count the backlog itself
		// implies, at least one step up.
		need := int(math.Ceil(float64(obs.QueueDepth) / h.cfg.SLO.QueuePerInstance))
		return h.clamp(max(obs.Active+1, need))
	}
	queueLow := float64(obs.QueueDepth) <= h.cfg.SLO.QueuePerInstance*float64(active)/4
	// Consolidation additionally requires a seeded latency signal: an
	// unmeasured EWMA sits at zero, which would read as a deep trough.
	latencyLow := h.seeded && h.ewma < h.cfg.DownFraction*h.cfg.SLO.P95
	cooled := obs.Round-h.lastMove >= h.cfg.Cooldown
	if queueLow && latencyLow && cooled && obs.Draining == 0 && obs.Active > h.cfg.Min {
		return h.clamp(obs.Active - 1)
	}
	return h.clamp(obs.Active)
}

func (h *HysteresisScaler) clamp(n int) int {
	if n < h.cfg.Min {
		n = h.cfg.Min
	}
	if n > h.cfg.Max {
		n = h.cfg.Max
	}
	return n
}

// clampToPlan is the model-informed feed-forward term: the measured
// proposal is clamped to within ±1 of the M/D/1 planner's count at the
// smoothed arrival rate λ̂. The measurement stays in charge inside that
// band (queue spikes still scale up, troughs still consolidate), but
// transient overshoots past plan+1 and dead-band drift below plan−1 —
// the oscillation under sustained peak load — are cut off at the model.
func (h *HysteresisScaler) clampToPlan(desired int, obs ScaleObservation) int {
	p := h.cfg.Planner
	rate := float64(obs.Arrivals) / p.Quantum.Seconds()
	if !h.rateSeeded || rate > h.rateEwma {
		h.rateEwma = rate
		h.rateSeeded = true
	} else {
		h.rateEwma = p.RateSmoothing*rate + (1-p.RateSmoothing)*h.rateEwma
	}
	plan, _ := cluster.PlanInstances(h.rateEwma, p.Service, p.Quantile, h.cfg.SLO.P95, h.cfg.Max)
	if desired > plan+1 {
		desired = plan + 1
	}
	if desired < plan-1 {
		desired = plan - 1
	}
	return h.clamp(desired)
}

// scalerEntry is one group's attached autoscaling policy.
type scalerEntry struct {
	policy Autoscaler
	delay  time.Duration
}

// Autoscale attaches an autoscaling policy to the first workload group
// (the whole fleet when it has one group): after every
// reporting quantum the policy sees that round's observations and the
// supervisor schedules the placement events that move the group's
// accepting-instance count toward the desired one, landing delay into
// the following quantum — on the event timeline that is an arbitrary
// mid-quantum instant, with re-arbitration and backlog re-dispatch the
// moment each event lands. A nil policy detaches autoscaling. Other
// groups attach their own policies with AutoscaleGroup — each group
// scales independently against its own SLO while every group draws on
// the one shared power budget.
func (s *Supervisor) Autoscale(policy Autoscaler, delay time.Duration) error {
	return s.AutoscaleGroup(0, policy, delay)
}

// AutoscaleGroup attaches an autoscaling policy to the given workload
// group (an index into the scenario's declaration order), with
// Autoscale's semantics scoped to that group's instances, queues, and
// latency percentiles.
func (s *Supervisor) AutoscaleGroup(group int, policy Autoscaler, delay time.Duration) error {
	if group < 0 || group >= len(s.groups) {
		return fmt.Errorf("fleet: group %d out of range [0,%d]", group, len(s.groups)-1)
	}
	if delay < 0 {
		return fmt.Errorf("fleet: negative autoscale delay %v", delay)
	}
	s.scalers[group] = scalerEntry{policy: policy, delay: delay}
	return nil
}

// anyScaler reports whether any group has an autoscaling policy.
func (s *Supervisor) anyScaler() bool {
	for _, e := range s.scalers {
		if e.policy != nil {
			return true
		}
	}
	return false
}

// ScaleMoves returns how many placement actions the attached
// autoscalers have issued so far, across all groups.
func (s *Supervisor) ScaleMoves() int { return s.scaleMoves }

// DesiredInstances returns the autoscalers' most recent desired
// accepting-instance count summed over groups (0 before the first
// decision; groups without a policy contribute 0).
func (s *Supervisor) DesiredInstances() int {
	total := 0
	for _, d := range s.lastDesired {
		total += d
	}
	return total
}

// applyAutoscale feeds one closed round to each group's attached policy
// and schedules the resulting placement events, groups in declaration
// order.
func (s *Supervisor) applyAutoscale(rs RoundStats) error {
	for gi := range s.groups {
		entry := s.scalers[gi]
		if entry.policy == nil {
			continue
		}
		if err := s.applyGroupAutoscale(rs, gi, entry); err != nil {
			return err
		}
	}
	return nil
}

// applyGroupAutoscale runs one group's policy over the closed round's
// per-group statistics.
func (s *Supervisor) applyGroupAutoscale(rs RoundStats, gi int, entry scalerEntry) error {
	g := s.groups[gi]
	accepting := s.acceptingOf(gi)
	active := len(accepting)
	draining := 0
	for _, inst := range s.insts {
		if inst.grp == g && !inst.retired && inst.draining {
			draining++
		}
	}
	// Fold in scheduled-but-unlanded placements so an actuation delay
	// of a quantum or more cannot double-provision.
	outbound := make(map[*Instance]bool)
	for _, p := range s.places {
		if p.inst.grp != g {
			continue
		}
		switch p.op {
		case placeStart:
			if !p.inst.retired {
				active++
			}
		case placeDrain, placeStop:
			if p.inst.accepting {
				active--
				outbound[p.inst] = true
			}
		}
	}
	grs := rs.Groups[gi]
	obs := ScaleObservation{
		Round:       rs.Round,
		Group:       g.name,
		Now:         s.Now(),
		Active:      active,
		Draining:    draining,
		QueueDepth:  grs.QueueDepth,
		Arrivals:    grs.Arrivals,
		Completions: grs.Completions,
		LatencyP95:  grs.LatencyP95,
		LatencyP99:  grs.LatencyP99,
	}
	desired := entry.policy.Scale(obs)
	if desired < 0 {
		desired = 0
	}
	s.lastDesired[gi] = desired
	s.record(TraceEvent{At: s.Now(), Kind: TraceScale, Instance: -1, Host: -1, State: -1, Value: float64(desired), Group: g.name})
	at := s.Now().Add(entry.delay)
	for i := active; i < desired; i++ {
		if _, err := s.StartAt(at, gi, -1); err != nil {
			return err
		}
		s.scaleMoves++
	}
	if desired < active {
		// Consolidate the shallowest queues first (newest instance on
		// ties), skipping instances already on their way out.
		victims := append([]*Instance(nil), accepting...)
		sort.SliceStable(victims, func(i, j int) bool {
			if di, dj := victims[i].QueueDepth(), victims[j].QueueDepth(); di != dj {
				return di < dj
			}
			return victims[i].id > victims[j].id
		})
		n := active - desired
		for _, v := range victims {
			if n == 0 {
				break
			}
			if outbound[v] {
				continue
			}
			s.DrainAt(at, v)
			s.scaleMoves++
			n--
		}
	}
	return nil
}
