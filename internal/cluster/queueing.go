package cluster

import (
	"fmt"
	"math"
)

// This file re-derives the oracle for event-time semantics. The
// steady-state oracle (oracle.go) predicts what a saturated fleet
// converges to; under the event-driven fleet timeline requests arrive
// at Poisson-spaced virtual instants and queue at beat granularity, so
// the ground truth additionally includes *queueing*: each instance is
// an M/D/1 station — Poisson arrivals, deterministic service (a work
// item is a fixed number of beats at a fixed setting and frequency),
// one server — with the Pollaczek–Khinchine closed forms. The
// event-driven fleet's end-to-end tests validate measured per-request
// latency and partial-utilization power against these predictions; any
// drift between the executable system and this model is a bug in one
// of them.

// MD1 is an M/D/1 queueing station: Poisson arrivals at Lambda requests
// per second into a single server with deterministic service time
// Service seconds.
type MD1 struct {
	Lambda  float64 // arrivals per second
	Service float64 // seconds per request
}

// Rho returns the offered load (server utilization) λ·S.
func (q MD1) Rho() float64 { return q.Lambda * q.Service }

// Stable reports whether the queue has a steady state (ρ < 1).
func (q MD1) Stable() bool { return q.Rho() < 1 }

// MeanWait returns the mean queueing delay before service begins,
// Wq = ρ·S / (2·(1−ρ)) — the Pollaczek–Khinchine mean wait with zero
// service-time variance. It is +Inf for an unstable queue.
func (q MD1) MeanWait() float64 {
	rho := q.Rho()
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho * q.Service / (2 * (1 - rho))
}

// MeanSojourn returns the mean time in system (wait plus service).
func (q MD1) MeanSojourn() float64 { return q.MeanWait() + q.Service }

// MeanQueue returns the mean number of requests waiting (Little's law,
// Lq = λ·Wq).
func (q MD1) MeanQueue() float64 { return q.Lambda * q.MeanWait() }

// waitCDFExactLimit bounds the domain of the exact Erlang series: its
// j=0 term is e^{λt}, so past λt ≈ 18 the alternating sum's float64
// cancellation noise (~e^{λt}·ε) approaches the surviving tail mass and
// WaitCDF switches to the exponential tail asymptote instead.
const waitCDFExactLimit = 18.0

// WaitCDF returns P(W ≤ t), the M/D/1 waiting-time distribution. For
// λt ≤ 18 it evaluates the exact classical series (Erlang; see Franx,
// "A simple proof for the waiting time distribution of the M/D/1
// queue"): with D = Service and k = ⌊t/D⌋,
//
//	P(W ≤ t) = (1−ρ) · Σ_{j=0}^{k} (λ(jD−t))^j / j! · e^{−λ(jD−t)}
//
// Beyond that the series cancels catastrophically in float64, so the
// tail is extrapolated with the asymptotically exact exponential decay
// P(W > t) ≈ C·e^{−ηt}, with C and η fit to the last two exactly
// computable points. It returns 0 for an unstable queue (no stationary
// waiting time exists).
func (q MD1) WaitCDF(t float64) float64 {
	if t < 0 || !q.Stable() {
		return 0
	}
	if q.Lambda*t > waitCDFExactLimit {
		// Anchor the exponential tail at two in-domain points one
		// service time apart and extend its log-linear survival slope.
		t1 := waitCDFExactLimit/q.Lambda - q.Service
		if t1 < 0 {
			t1 = 0
		}
		t2 := t1 + q.Service
		s1, s2 := 1-q.waitCDFExact(t1), 1-q.waitCDFExact(t2)
		if s2 <= 0 || s1 <= s2 {
			return 1
		}
		eta := math.Log(s1/s2) / q.Service
		s := s2 * math.Exp(-eta*(t-t2))
		return clamp01(1 - s)
	}
	return q.waitCDFExact(t)
}

// waitCDFExact evaluates the Erlang series termwise in log space; each
// term is (−u_j)^j/j!·e^{u_j} with u_j = λ(t−jD) ≥ 0.
func (q MD1) waitCDFExact(t float64) float64 {
	sum := 0.0
	for j := 0; float64(j)*q.Service <= t; j++ {
		u := q.Lambda * (t - float64(j)*q.Service)
		var mag float64
		if u <= 0 {
			if j == 0 {
				mag = 1
			}
		} else {
			lg, _ := math.Lgamma(float64(j + 1))
			mag = math.Exp(float64(j)*math.Log(u) + u - lg)
		}
		if j%2 == 1 {
			mag = -mag
		}
		sum += mag
	}
	return clamp01((1 - q.Rho()) * sum)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// WaitQuantile returns the p-quantile of the waiting time (the smallest
// t with P(W ≤ t) ≥ p), found by bisection over the exact CDF. It is
// +Inf for an unstable queue or p ≥ 1.
func (q MD1) WaitQuantile(p float64) float64 {
	if !q.Stable() || p >= 1 {
		return math.Inf(1)
	}
	if p <= q.WaitCDF(0) {
		return 0
	}
	lo, hi := 0.0, q.Service
	for q.WaitCDF(hi) < p {
		lo, hi = hi, hi*2
		if hi > 1e9*q.Service {
			return math.Inf(1)
		}
	}
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if q.WaitCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// SojournQuantile returns the p-quantile of the sojourn time (wait plus
// the deterministic service time).
func (q MD1) SojournQuantile(p float64) float64 {
	return q.WaitQuantile(p) + q.Service
}

// PlanInstances returns the smallest instance count n ≤ max such that
// splitting the offered load evenly across n independent M/D/1 stations
// (λ/n each, deterministic service) keeps every station stable with its
// p-quantile sojourn time within target seconds. ok is false when even
// max instances cannot meet the objective (the count returned is then
// max). This is the steady-state provisioning ground truth the fleet
// autoscaler is validated against: a latency-SLO controller observing a
// stationary arrival rate must converge to this count (±1 for queue-
// discipline effects — the fleet dispatches join-shortest-queue, which
// strictly improves on the independent-split bound).
func PlanInstances(lambda, service, p, target float64, max int) (n int, ok bool) {
	if max < 1 || lambda < 0 || service <= 0 || p <= 0 || p >= 1 || target <= 0 {
		return max, false
	}
	for n := 1; n <= max; n++ {
		q := MD1{Lambda: lambda / float64(n), Service: service}
		if !q.Stable() {
			continue
		}
		if q.SojournQuantile(p) <= target {
			return n, true
		}
	}
	return max, false
}

// QueueingPrediction is the oracle's event-time steady state for an
// open-loop offered load: per-instance M/D/1 queueing plus the
// partial-utilization cluster power at that load.
type QueueingPrediction struct {
	// Queue is the per-instance M/D/1 station.
	Queue MD1
	// Rho is the per-instance server utilization λ·S.
	Rho float64
	// MeanWait / MeanSojourn are the per-request queueing delay and
	// total latency in seconds.
	MeanWait    float64
	MeanSojourn float64
	// MeanQueue is the mean number of requests waiting per instance.
	MeanQueue float64
	// Util is per-machine utilization in [0, 1] at the offered load.
	Util float64
	// PowerWatts is total cluster power (idle machines included).
	PowerWatts float64
	// Stable reports whether every instance's queue has a steady state.
	Stable bool
}

// PredictQueueing computes the event-time steady state for instances
// balanced across the cluster, each fed Poisson arrivals at lambda
// requests per second of service time service seconds (busy seconds at
// the oracle's frequency). It requires the load to fit the cores
// without knob actuation (ρ per instance below 1 and instances within
// capacity) — the regime where service times are deterministic; beyond
// it the saturating Predict is the right oracle.
func (o *Oracle) PredictQueueing(instances int, lambda, service float64) (QueueingPrediction, error) {
	if instances < 1 {
		return QueueingPrediction{}, fmt.Errorf("cluster: instances %d < 1", instances)
	}
	if lambda < 0 || service <= 0 {
		return QueueingPrediction{}, fmt.Errorf("cluster: need lambda >= 0 and service > 0 (lambda=%v service=%v)", lambda, service)
	}
	q := MD1{Lambda: lambda, Service: service}
	p := QueueingPrediction{
		Queue:       q,
		Rho:         q.Rho(),
		MeanWait:    q.MeanWait(),
		MeanSojourn: q.MeanSojourn(),
		MeanQueue:   q.MeanQueue(),
		Stable:      q.Stable(),
	}
	// Each instance keeps one core busy for a ρ fraction of time;
	// machines share instances evenly.
	perMachine := float64(instances) / float64(o.sys.cfg.Machines)
	util := perMachine * p.Rho / float64(o.sys.cfg.CoresPerMachine)
	if util > 1 {
		util = 1
		p.Stable = false
	}
	p.Util = util
	p.PowerWatts = float64(o.sys.cfg.Machines) * o.sys.cfg.Power.Power(o.sys.cfg.Frequency, util)
	return p, nil
}
