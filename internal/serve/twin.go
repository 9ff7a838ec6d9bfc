package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fleet"
)

// TwinConfig configures the digital twin: a virtual replica of the
// live fleet that replays what-if scenarios faster than real time.
type TwinConfig struct {
	// Scenario builds a fresh replica scenario — the same machines,
	// groups, and knobs as the live fleet (required; a factory, because
	// each what-if needs its own instances). The twin overrides group
	// 0's Instances per candidate and fleet.NewFromSnapshot overrides
	// Budget from the snapshot.
	Scenario func() fleet.Scenario
	// ReqIters sizes the replica's requests in stream iterations,
	// matching what the gateway serves (0 = whole streams).
	ReqIters int
	// SLO is the latency objective candidates are judged against
	// (SLO.P95 > 0 required).
	SLO fleet.SLO
	// MaxInstances bounds the candidate search (required, >= 1).
	MaxInstances int
	// Horizon is how many rounds each what-if projects forward
	// (default 8).
	Horizon int
	// Seed seeds the what-if arrival realizations (default 1).
	Seed int64
}

// Twin is the serving mode's faster-than-real-time what-if engine. It
// takes a snapshot of the live fleet — provisioning, budget, standing
// backlog, recent arrival trace — and replays candidate instance
// counts against a sustained-peak projection of the recent load on the
// virtual engine, which simulates a full quantum in well under the
// quantum's wall time. The smallest candidate that holds the SLO with
// a bounded backlog becomes the feed-forward recommendation a
// TwinScaler clamps the measurement-driven policy to.
type Twin struct {
	cfg TwinConfig

	advises    atomic.Int64
	candidates atomic.Int64
	rounds     atomic.Int64
}

// NewTwin validates cfg and builds a twin.
func NewTwin(cfg TwinConfig) (*Twin, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("serve: twin requires a scenario factory")
	}
	if cfg.SLO.P95 <= 0 {
		return nil, fmt.Errorf("serve: twin requires SLO.P95 > 0")
	}
	if cfg.MaxInstances < 1 {
		return nil, fmt.Errorf("serve: twin requires MaxInstances >= 1")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SLO.QueuePerInstance == 0 {
		cfg.SLO.QueuePerInstance = 8
	}
	return &Twin{cfg: cfg}, nil
}

// fixedScaler holds group 0 at a constant accepting count — the twin's
// candidate under test.
type fixedScaler int

func (f fixedScaler) Scale(fleet.ScaleObservation) int { return int(f) }

// Advise runs the what-if search for the snapshot: project the recent
// peak arrival rate forward over the horizon, replay each candidate
// count from the snapshot's exact state (backlog included), and return
// the smallest count that ends the horizon with zero accountable SLO
// violations and a backlog inside the SLO's queue watermark. If no
// candidate manages that, MaxInstances is returned — the twin asks for
// everything it may.
func (t *Twin) Advise(snap fleet.FleetSnapshot) (int, error) {
	if len(snap.Groups) == 0 {
		return 0, fmt.Errorf("serve: snapshot has no groups")
	}
	t.advises.Add(1)
	rates := t.projection(snap)
	for n := 1; n <= t.cfg.MaxInstances; n++ {
		ok, err := t.holds(snap, rates, n)
		if err != nil {
			return 0, err
		}
		if ok {
			return n, nil
		}
	}
	return t.cfg.MaxInstances, nil
}

// projection is the what-if arrival trace: the snapshot's recent peak
// rate sustained over the horizon.
func (t *Twin) projection(snap fleet.FleetSnapshot) []float64 {
	peak := 1.0
	for _, v := range snap.Groups[0].RecentArrivals {
		if v > peak {
			peak = v
		}
	}
	rates := make([]float64, t.cfg.Horizon)
	for i := range rates {
		rates[i] = peak
	}
	return rates
}

// holds replays candidate count n from the snapshot against rates and
// reports whether it keeps the SLO: no accountable violation over the
// horizon and an end-of-horizon backlog inside the queue watermark.
// One counted violation already rejects the candidate and the count
// never falls, so the replay stops there: a failing candidate costs
// its rounds to the first violation, only a holding one the horizon.
func (t *Twin) holds(snap fleet.FleetSnapshot, rates []float64, n int) (bool, error) {
	sc := t.cfg.Scenario()
	if len(sc.Groups) == 0 {
		return false, fmt.Errorf("serve: twin scenario factory built no groups")
	}
	sc.Groups[0].Instances = n
	sup, err := fleet.NewFromSnapshot(sc, snap)
	if err != nil {
		return false, err
	}
	res, err := fleet.Replay(sup, fleet.ReplayConfig{
		Rates:           rates,
		Seed:            t.cfg.Seed,
		ReqIters:        t.cfg.ReqIters,
		SLO:             t.cfg.SLO,
		Scaler:          fixedScaler(n),
		StopAtViolation: true,
	})
	if err != nil {
		return false, err
	}
	t.candidates.Add(1)
	t.rounds.Add(int64(len(res.Points)))
	last := res.Points[len(res.Points)-1]
	return res.Violations == 0 && float64(last.QueueDepth) <= float64(n)*t.cfg.SLO.QueuePerInstance, nil
}

// Advises returns how many snapshots the twin has searched.
func (t *Twin) Advises() int64 { return t.advises.Load() }

// Candidates returns how many candidate counts it has replayed.
func (t *Twin) Candidates() int64 { return t.candidates.Load() }

// Rounds returns how many replica rounds those replays simulated — at
// most Candidates × Horizon, less by every round an early verdict
// saved.
func (t *Twin) Rounds() int64 { return t.rounds.Load() }

// TwinScaler feeds the twin's recommendation forward into a
// measurement-driven autoscaling policy: the inner policy's proposal
// is clamped to within ±1 of the latest advice, exactly the damping
// band the planner feed-forward uses (fleet.HysteresisScaler's
// clamp-to-plan). With no advice yet it is transparent. SetAdvice is
// safe to call from the twin's goroutine while the serving loop
// scales.
type TwinScaler struct {
	// Inner is the measurement-driven policy being damped (required).
	Inner fleet.Autoscaler

	mu  sync.Mutex
	rec int
}

// SetAdvice installs the twin's latest recommended accepting count
// (<= 0 clears the advice).
func (ts *TwinScaler) SetAdvice(n int) {
	ts.mu.Lock()
	ts.rec = n
	ts.mu.Unlock()
}

// Advice returns the current recommendation (0 = none).
func (ts *TwinScaler) Advice() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.rec
}

// Scale implements fleet.Autoscaler.
func (ts *TwinScaler) Scale(obs fleet.ScaleObservation) int {
	n := ts.Inner.Scale(obs)
	rec := ts.Advice()
	if rec <= 0 {
		return n
	}
	if n < rec-1 {
		n = rec - 1
	}
	if n > rec+1 {
		n = rec + 1
	}
	if n < 1 {
		n = 1
	}
	return n
}
