package fleet

// This file is the replay harness for the paper's Fig. 8 consolidation
// experiment: a spiky arrival trace — recorded or synthesized — is fed
// through the autoscaled fleet on the event timeline, and every
// reporting quantum is emitted as one CSV row (instances, power, cap,
// p95, ...) from which the consolidation figure is reconstructed. See
// docs/ARCHITECTURE.md for a worked walkthrough.

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// ReplayConfig drives one Fig. 8 replay.
type ReplayConfig struct {
	// Rates is the arrival trace: mean requests per quantum, one entry
	// per round (required). Fig8Rates synthesizes the paper's shape.
	Rates []float64
	// Seed seeds the Poisson realization of the trace (default 1).
	Seed int64
	// ReqIters sizes each request in stream iterations (0 = whole
	// stream).
	ReqIters int
	// SLO is the latency objective the autoscaler provisions for
	// (required unless Scaler is set).
	SLO SLO
	// Scaler overrides the default hysteresis policy (optional; the
	// default is NewHysteresisScaler with this SLO and Max = total
	// cluster cores).
	Scaler Autoscaler
	// Delay is how far into the following quantum autoscaling
	// placements land (default Quantum/2 — deliberately mid-quantum, so
	// the replay exercises event-time placement).
	Delay time.Duration
	// SettleRounds shapes the blackout windows — the documented rounds
	// where the SLO may be violated while capacity changes work
	// through. A window opens at a placement action and closes
	// SettleRounds rounds after the first subsequent round whose
	// backlog has returned to at most one request per accepting
	// instance: a burst's stragglers complete with their queueing delay
	// already incurred, so the window must outlive the queue itself
	// (default 2).
	SettleRounds int
	// StopAtViolation ends the replay after the first round that counts
	// toward ReplayResult.Violations, for a caller that wants a verdict
	// rather than the timeline. The result is an exact prefix of the full
	// replay — the same Points up to and including that round, Violations
	// == 1, MeanPower averaged over the rounds run; a trace with no
	// violation runs to its end and the result is the full one.
	StopAtViolation bool
}

// ReplayPoint is one reporting quantum of a replay — one CSV row.
type ReplayPoint struct {
	Round    int
	TSeconds float64 // quantum end, virtual seconds since the epoch
	Rate     float64 // offered mean arrivals per quantum
	Arrivals int
	// Completions is requests served to completion this quantum.
	Completions int
	// Instances counts placed instances (accepting + draining) at the
	// quantum end; Accepting excludes draining ones; Desired is the
	// autoscaler's latest target.
	Instances int
	Accepting int
	Desired   int
	// Budget and PowerWatts are the cluster cap and measured power.
	Budget     float64
	PowerWatts float64
	// P95 is this quantum's p95 request latency in seconds (0 when
	// nothing completed).
	P95        float64
	QueueDepth int
	// Scaled reports whether the autoscaler issued placement actions at
	// this quantum's close; Blackout whether the round falls in a
	// settle window following an action (SLO excursions are documented
	// there); SLOViolated whether the measured p95 exceeded the SLO —
	// or the round was starved (nothing completed while a backlog
	// beyond the SLO's queue watermark stood): a starved round cannot
	// attest the SLO and counting it compliant would hide exactly the
	// worst overloads.
	Scaled      bool
	Blackout    bool
	SLOViolated bool
	// Groups attributes the quantum to workload groups, in scenario
	// declaration order (one entry mirroring the totals for a
	// single-group fleet). WriteReplayCSV appends per-group columns
	// when the scenario has more than one group.
	Groups []GroupReplayPoint
	// Fault carries the quantum's fault-window accounting when a fault
	// model is wired (nil otherwise — WriteReplayCSV appends the fault
	// columns only when present, so unfaulted replays keep their schema
	// byte for byte).
	Fault *ReplayFaultPoint
}

// ReplayFaultPoint is one replay quantum's fault-window slice.
type ReplayFaultPoint struct {
	// Landed counts fault landings this quantum; Active reports whether
	// any fault window overlapped it.
	Landed int
	Active bool
	// Redispatched and Dropped count the requests crashes displaced this
	// quantum.
	Redispatched int
	Dropped      int
}

// GroupReplayPoint is one workload group's slice of a replay quantum.
type GroupReplayPoint struct {
	Group       string
	Accepting   int
	Arrivals    int
	Completions int
	P95         float64
	QueueDepth  int
}

// ReplayResult is a finished replay.
type ReplayResult struct {
	Points []ReplayPoint
	SLO    SLO
	// Violations counts rounds whose p95 broke the SLO outside blackout
	// windows — the replay's acceptance number, 0 when the autoscaler
	// kept the objective everywhere it was accountable for it.
	Violations int
	// BlackoutRounds counts rounds inside settle windows.
	BlackoutRounds int
	// MinInstances / MaxInstances bound the placed-instance count over
	// the run — the consolidation range.
	MinInstances, MaxInstances int
	MeanPower                  float64
	Completions                int
}

// Replay feeds the configured arrival trace through the supervisor with
// the autoscaler attached, one Step per trace entry, and collects the
// per-quantum consolidation timeline. The supervisor must not have
// stepped yet (the trace is indexed by the supervisor's round counter);
// pre-started instances are simply the initial provisioning (none is
// fine — the autoscaler bootstraps from its Min). Budget schedules
// installed via SetBudgetAt replay alongside the trace, so power-cap
// events and consolidation interact like they do in Fig. 8.
func Replay(sup *Supervisor, cfg ReplayConfig) (*ReplayResult, error) {
	if len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("fleet: replay requires a rate trace")
	}
	if sup.Round() != 0 {
		return nil, fmt.Errorf("fleet: replay requires an unstepped supervisor (already at round %d)", sup.Round())
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SettleRounds == 0 {
		cfg.SettleRounds = 2
	}
	if cfg.Delay == 0 {
		cfg.Delay = sup.cfg.Quantum / 2
	}
	scaler := cfg.Scaler
	slo := cfg.SLO
	if scaler == nil {
		cores := sup.cfg.Machines * sup.cfg.CoresPerMachine
		h, err := NewHysteresisScaler(HysteresisConfig{SLO: cfg.SLO, Max: cores})
		if err != nil {
			return nil, err
		}
		scaler = h
	} else if h, ok := scaler.(*HysteresisScaler); ok && slo.P95 == 0 {
		slo = h.SLO()
	}
	if slo.P95 <= 0 {
		return nil, fmt.Errorf("fleet: replay requires SLO.P95 > 0 (or a HysteresisScaler carrying one)")
	}
	if slo.QueuePerInstance == 0 {
		slo.QueuePerInstance = 8
	}
	if err := sup.Autoscale(scaler, cfg.Delay); err != nil {
		return nil, err
	}
	gen := NewTraceLoad(cfg.Seed, cfg.Rates).WithRequestIters(cfg.ReqIters)

	res := &ReplayResult{SLO: slo, MinInstances: math.MaxInt}
	windowOpen := false
	clearRound, lastAction := -1, -1
	epoch := time.Unix(0, 0)
	for r := range cfg.Rates {
		moves := sup.ScaleMoves()
		rs, err := sup.Step(gen)
		if err != nil {
			return nil, err
		}
		placed := len(sup.Active())
		pt := ReplayPoint{
			Round:       rs.Round,
			TSeconds:    sup.Now().Sub(epoch).Seconds(),
			Rate:        cfg.Rates[r],
			Arrivals:    rs.Arrivals,
			Completions: rs.Completions,
			Instances:   placed,
			Accepting:   len(sup.acceptingInstances()),
			Desired:     sup.DesiredInstances(),
			Budget:      rs.Budget,
			PowerWatts:  rs.PowerWatts,
			P95:         rs.LatencyP95,
			QueueDepth:  rs.QueueDepth,
			Scaled:      sup.ScaleMoves() > moves,
		}
		if sup.faultOpts != nil {
			pt.Fault = &ReplayFaultPoint{
				Landed:       rs.FaultsLanded,
				Active:       rs.FaultActive,
				Redispatched: rs.FaultRedispatched,
				Dropped:      rs.FaultDropped,
			}
		}
		for _, gs := range rs.Groups {
			pt.Groups = append(pt.Groups, GroupReplayPoint{
				Group:       gs.Group,
				Accepting:   gs.Accepting,
				Arrivals:    gs.Arrivals,
				Completions: gs.Completions,
				P95:         gs.LatencyP95,
				QueueDepth:  gs.QueueDepth,
			})
		}
		starveDepth := slo.QueuePerInstance * float64(max(pt.Accepting, 1))
		pt.SLOViolated = rs.LatencyP95 > slo.P95 ||
			(rs.Completions == 0 && float64(rs.QueueDepth) > starveDepth)
		if pt.Scaled {
			windowOpen = true
			clearRound = -1
			lastAction = r
		}
		// A settle window opens at the action and covers the rounds its
		// placements land and the backlog they answer works through —
		// stragglers book their queueing delay after the queue clears,
		// so the window closes SettleRounds past the clearing round.
		// But a window must not excuse sustained overload: once the
		// controller has finished actuating (it sits at its own desired
		// count) and the backlog still stands SettleRounds past the
		// action, the standing queue is under-provisioning, not an
		// actuation transient, and the window closes uncleared.
		if windowOpen && clearRound < 0 {
			if pt.QueueDepth <= pt.Accepting {
				clearRound = r
			} else if r-lastAction > cfg.SettleRounds && pt.Accepting == pt.Desired {
				windowOpen = false
			}
		}
		if windowOpen {
			pt.Blackout = true
			if clearRound >= 0 && r >= clearRound+cfg.SettleRounds {
				windowOpen = false
			}
		}
		if pt.Blackout {
			res.BlackoutRounds++
		}
		if pt.SLOViolated && !pt.Blackout {
			res.Violations++
		}
		if placed < res.MinInstances {
			res.MinInstances = placed
		}
		if placed > res.MaxInstances {
			res.MaxInstances = placed
		}
		res.MeanPower += rs.PowerWatts
		res.Completions += rs.Completions
		res.Points = append(res.Points, pt)
		if cfg.StopAtViolation && res.Violations > 0 {
			break
		}
	}
	res.MeanPower /= float64(len(res.Points))
	if res.MinInstances == math.MaxInt {
		res.MinInstances = 0
	}
	return res, nil
}

// WriteReplayCSV writes replay points as CSV with a header row. Columns
// (see docs/TRACE_FORMAT.md for the full schema):
//
//	round        — reporting quantum index
//	t_seconds    — quantum end, virtual seconds since the run epoch
//	rate         — offered mean arrivals per quantum
//	arrivals     — realized arrivals this quantum
//	completions  — requests completed this quantum
//	instances    — placed instances (accepting + draining) at quantum end
//	accepting    — instances accepting new work
//	desired      — the autoscaler's latest target count
//	budget_w     — cluster power cap in watts (<= 0 = unlimited)
//	power_w      — measured mean cluster power this quantum
//	p95_s        — p95 request latency in seconds (0 = none completed)
//	queue        — queued + in-flight + undispatched requests
//	scaled       — 1 when the autoscaler acted at this quantum's close
//	blackout     — 1 inside a settle window following an action
//	slo_violated — 1 when p95_s exceeded the SLO
//
// For a heterogeneous scenario (more than one workload group) five
// per-group columns are appended for each group, in declaration order:
// g_<name>_accepting, g_<name>_arrivals, g_<name>_completions,
// g_<name>_p95_s, g_<name>_queue. A single-group replay keeps the
// original fifteen-column schema byte for byte.
//
// When the replayed fleet carries a fault model (ReplayPoint.Fault set),
// four fault columns are appended after any group columns:
// faults_landed, fault_active, redispatched, dropped. An unfaulted
// replay emits none of them, keeping its schema byte for byte.
func WriteReplayCSV(w io.Writer, points []ReplayPoint) error {
	cw := csv.NewWriter(w)
	header := []string{"round", "t_seconds", "rate", "arrivals", "completions",
		"instances", "accepting", "desired", "budget_w", "power_w", "p95_s",
		"queue", "scaled", "blackout", "slo_violated"}
	groupCols := len(points) > 0 && len(points[0].Groups) > 1
	if groupCols {
		for _, g := range points[0].Groups {
			header = append(header,
				"g_"+g.Group+"_accepting",
				"g_"+g.Group+"_arrivals",
				"g_"+g.Group+"_completions",
				"g_"+g.Group+"_p95_s",
				"g_"+g.Group+"_queue")
		}
	}
	faultCols := len(points) > 0 && points[0].Fault != nil
	if faultCols {
		header = append(header, "faults_landed", "fault_active", "redispatched", "dropped")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	b := func(v bool) string {
		if v {
			return "1"
		}
		return "0"
	}
	for _, pt := range points {
		rec := []string{
			strconv.Itoa(pt.Round),
			strconv.FormatFloat(pt.TSeconds, 'f', 6, 64),
			strconv.FormatFloat(pt.Rate, 'g', -1, 64),
			strconv.Itoa(pt.Arrivals),
			strconv.Itoa(pt.Completions),
			strconv.Itoa(pt.Instances),
			strconv.Itoa(pt.Accepting),
			strconv.Itoa(pt.Desired),
			strconv.FormatFloat(pt.Budget, 'g', -1, 64),
			strconv.FormatFloat(pt.PowerWatts, 'f', 3, 64),
			strconv.FormatFloat(pt.P95, 'f', 6, 64),
			strconv.Itoa(pt.QueueDepth),
			b(pt.Scaled),
			b(pt.Blackout),
			b(pt.SLOViolated),
		}
		if groupCols {
			for _, g := range pt.Groups {
				rec = append(rec,
					strconv.Itoa(g.Accepting),
					strconv.Itoa(g.Arrivals),
					strconv.Itoa(g.Completions),
					strconv.FormatFloat(g.P95, 'f', 6, 64),
					strconv.Itoa(g.QueueDepth))
			}
		}
		if faultCols {
			fp := pt.Fault
			if fp == nil {
				fp = &ReplayFaultPoint{}
			}
			rec = append(rec,
				strconv.Itoa(fp.Landed),
				b(fp.Active),
				strconv.Itoa(fp.Redispatched),
				strconv.Itoa(fp.Dropped))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("fleet: replay csv: %w", err)
	}
	return nil
}

// Fig8Rates synthesizes the paper's Sec. 5.5 spiky consolidation trace
// (after Barroso & Hölzle) as an arrival-rate series: a slow random
// walk between 5% and 45% of peak, with a 5% chance per round of a
// burst — the trigger round plus 1–4 further rounds, so 2–5
// consecutive rounds at peak. Deterministic for a fixed seed.
func Fig8Rates(rounds int, peak float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, rounds)
	level := 0.2
	burst := 0
	for i := range out {
		if burst > 0 {
			burst--
			out[i] = peak
			continue
		}
		if rng.Float64() < 0.05 {
			burst = 1 + rng.Intn(4)
			out[i] = peak
			continue
		}
		level += (rng.Float64() - 0.5) * 0.08
		if level < 0.05 {
			level = 0.05
		}
		if level > 0.45 {
			level = 0.45
		}
		out[i] = level * peak
	}
	return out
}

// ReadRatesCSV reads a recorded arrival trace: one mean-arrivals-per-
// quantum value per line. The file must be single-column (a
// multi-column file — e.g. a replay or trace CSV passed by mistake —
// is an error, not a silent garbage trace); a non-numeric first line
// is skipped as a header.
func ReadRatesCSV(r io.Reader) ([]float64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var out []float64
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: rates csv: %w", err)
		}
		line++
		if len(rec) != 1 {
			return nil, fmt.Errorf("fleet: rates csv: want one rate per line, line %d has %d columns", line, len(rec))
		}
		if rec[0] == "" {
			continue
		}
		v, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			if line == 1 {
				continue // header line
			}
			return nil, fmt.Errorf("fleet: rates csv: %w", err)
		}
		out = append(out, v)
	}
}
