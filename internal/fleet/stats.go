package fleet

import (
	"sort"
	"time"
)

// HostStats is one machine's state over one quantum.
type HostStats struct {
	Index      int
	State      int
	FreqGHz    float64
	Util       float64
	PowerWatts float64
	Residents  int
}

// GroupRoundStats is one workload group's slice of a reporting quantum
// — the per-group attribution of RoundStats, in scenario declaration
// order (a single-group fleet reports one entry mirroring the totals).
type GroupRoundStats struct {
	// Group is the workload group's name.
	Group string
	// Accepting counts the group's instances accepting new work at the
	// quantum end.
	Accepting int
	// Arrivals and Completions are the group's request counts this
	// quantum.
	Arrivals    int
	Completions int
	// QueueDepth is the group's queued + in-flight + undispatched
	// requests at the quantum end.
	QueueDepth int
	// MeanNormPerf is the mean normalized performance over the group's
	// measuring instances.
	MeanNormPerf float64
	// RequestLoss is the mean realized QoS loss of the group's requests
	// completed this quantum.
	RequestLoss float64
	// LatencyMean is the group's mean request latency in seconds this
	// quantum (0 when none completed). Per-round means compose exactly
	// (weighted by Completions), so warmup-excluded run summaries — the
	// sweep engine's Stat rows — can be rebuilt from round stats alone.
	LatencyMean float64
	// LatencyP50/P95/P99 are the group's request-latency percentiles in
	// seconds this quantum (0 when none completed).
	LatencyP50 float64
	LatencyP95 float64
	LatencyP99 float64
	// Shed counts the group's requests refused by serving-mode
	// admission control this quantum (zero outside serving mode).
	Shed int
}

// RoundStats reports one control quantum of the fleet.
type RoundStats struct {
	Round        int
	Budget       float64 // watts (<= 0 = unlimited)
	PowerWatts   float64 // total cluster power this quantum
	Hosts        []HostStats
	Arrivals     int
	Completions  int
	QueueDepth   int     // queued + in-flight + undispatched at quantum end
	Beats        int     // iterations completed this quantum
	MeanNormPerf float64 // mean normalized performance over measuring instances
	MeanPlanLoss float64 // mean expected QoS loss of active plans
	// RequestLoss is the mean realized QoS loss of requests completed
	// this quantum (served output vs the baseline-setting output).
	RequestLoss float64
	// LatencyMean is the mean request latency in seconds over the
	// requests completed this quantum (0 when none completed).
	LatencyMean float64
	// LatencyP50/P95/P99 are request-latency percentiles in seconds
	// over the requests completed this quantum (0 when none completed).
	// On the event timeline these reflect true queueing delay at beat
	// granularity: arrivals land mid-quantum and completions are booked
	// at their exact virtual instant.
	LatencyP50 float64
	LatencyP95 float64
	LatencyP99 float64
	// Groups attributes the quantum to workload groups, in scenario
	// declaration order.
	Groups []GroupRoundStats
	// FaultsLanded counts fault landings this quantum; FaultRedispatched
	// and FaultDropped count the requests crashes displaced this quantum
	// (re-offered within their group vs dropped); FaultActive reports
	// whether any fault window overlapped the quantum. All zero unless a
	// fault model is wired (fault.go).
	FaultsLanded      int
	FaultRedispatched int
	FaultDropped      int
	// Shed counts requests refused by serving-mode admission control
	// this quantum (zero outside serving mode). Sits before the tail
	// bool so FaultActive's padding stays coalesced (sizes_test.go).
	Shed        int
	FaultActive bool
}

// InstanceLatency is one instance's request-latency summary over a run.
type InstanceLatency struct {
	ID int
	// Group is the instance's workload group name.
	Group       string
	Completions int
	P50         float64 // seconds
	P95         float64 // seconds
	P99         float64 // seconds
}

// GroupReport is one workload group's summary over a fleet run.
type GroupReport struct {
	// Group is the workload group's name.
	Group       string
	Completions int
	Aborted     int
	MeanLatency float64 // seconds
	P50Latency  float64 // seconds
	P95Latency  float64 // seconds
	P99Latency  float64 // seconds
	// MeanRequestLoss is the group's realized QoS loss averaged over
	// its completed requests.
	MeanRequestLoss float64
	// Shed counts the group's requests refused by serving-mode
	// admission control over the run (zero outside serving mode).
	Shed int
}

// Report summarizes a fleet run.
type Report struct {
	Rounds       []RoundStats
	TotalEnergyJ float64
	MeanPower    float64
	Completions  int
	Aborted      int
	MeanLatency  float64 // seconds
	P50Latency   float64 // seconds
	P95Latency   float64 // seconds
	P99Latency   float64 // seconds
	// PerInstance summarizes request latency per instance (every
	// instance ever started, in id order).
	PerInstance []InstanceLatency
	// PerGroup summarizes each workload group, in scenario declaration
	// order (one entry mirroring the totals for a single-group fleet).
	PerGroup []GroupReport
	// MeanRequestLoss is the realized QoS loss averaged over every
	// completed request.
	MeanRequestLoss float64
	// Resilience summarizes the run's landed faults — recovery time to
	// the pre-fault p95, violations per fault window, displaced-request
	// counts. Nil unless a fault model is wired (fault.go), so unfaulted
	// reports are byte-identical to pre-fault builds.
	Resilience *Resilience
	// Shed counts requests refused by serving-mode admission control
	// over the run (zero outside serving mode).
	Shed int
}

// percentile returns the nearest-rank p-th percentile of a sorted,
// non-empty slice, with the ceil-based rank ⌈p·n/100⌉ (1-indexed). The
// floor form used previously biased small samples low — with 10
// completions P99 returned the 9th-smallest sample instead of the max,
// and P95 collapsed toward P50 — which understated tail latency on
// exactly the small per-round samples the autoscaler acts on.
func percentile(sorted []float64, p int) float64 {
	rank := (p*len(sorted) + 99) / 100 // ⌈p·n/100⌉ in integer arithmetic
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// meanOf averages a non-empty slice. Summation runs in slice order, so
// the result is deterministic for a deterministic sample order.
func meanOf(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// roundAgg is drainRoundCounters' per-group aggregation scratch,
// reused round over round (the lat slices live beside it in
// Supervisor.groupLats, also reused).
type roundAgg struct {
	arrivals, completions, queue, perfN, accepting int
	perfSum, planLossSum, reqLossSum               float64
}

// reqFreeFloor is how many recycled Requests stay on each instance's
// local free list across the round-close sweep, so self-feeding
// instances (which mint and recycle locally) never touch the shared
// pool; the surplus — open-loop requests that completed here but will
// be re-minted by the supervisor — migrates back to the shared pool.
const reqFreeFloor = 4

// drainRoundCounters moves the per-round instance counters (requests,
// losses, latencies, beats) into the round's stats — totals and the
// per-group attribution — and the run totals. All aggregation runs on
// supervisor-owned scratch buffers: a steady-state round sorts and
// summarizes thousands of latency samples without allocating.
//
//fleetvet:noalloc
func (s *Supervisor) drainRoundCounters(rs *RoundStats) {
	if len(s.aggScratch) < len(s.groups) {
		s.aggScratch = make([]roundAgg, len(s.groups))
		s.groupLats = make([][]float64, len(s.groups))
	}
	aggs := s.aggScratch[:len(s.groups)]
	for i := range aggs {
		aggs[i] = roundAgg{}
		s.groupLats[i] = s.groupLats[i][:0]
	}
	// Open-loop and boundary arrivals were counted per group as they
	// were minted; self-feed mints drain from the instances below.
	for gi, g := range s.groups {
		aggs[gi].arrivals = g.roundArrivals
		g.roundArrivals = 0
	}
	for _, inst := range s.insts {
		rs.Arrivals += inst.minted
		aggs[inst.grp.index].arrivals += inst.minted
		inst.minted = 0
	}
	roundLats := s.roundLats[:0]
	for _, inst := range s.insts {
		// Beat deltas count for retired instances too: an instance
		// retiring mid-round (event timeline) still served beats this
		// round. Performance and queue depth only aggregate over the
		// instances still placed.
		a := &aggs[inst.grp.index]
		g := inst.grp
		snap := inst.rt.Snapshot()
		rs.Beats += snap.Beats - inst.prevBeats
		inst.prevBeats = snap.Beats
		if !inst.retired {
			if inst.eligible() {
				a.accepting++
			}
			depth := inst.QueueDepth()
			rs.QueueDepth += depth
			a.queue += depth
			if snap.NormPerf > 0 {
				a.perfSum += snap.NormPerf
				a.planLossSum += snap.PlanLoss
				a.perfN++
			}
		}
		rs.Completions += inst.completed
		a.completions += inst.completed
		a.reqLossSum += inst.lossSum
		s.completed += inst.completed
		s.aborted += inst.aborted
		s.lossSum += inst.lossSum
		s.lossN += inst.completed
		g.completed += inst.completed
		g.aborted += inst.aborted
		g.lossSum += inst.lossSum
		g.lossN += inst.completed
		inst.completed, inst.aborted, inst.lossSum = 0, 0, 0
		s.groupLats[inst.grp.index] = append(s.groupLats[inst.grp.index], inst.latencies...)
		roundLats = append(roundLats, inst.latencies...)
		inst.latencies = inst.latencies[:0]
		// Sweep surplus recycled requests back to the shared pool the
		// next round's open-loop mints draw from (this runs at the
		// single-threaded round close, so no shard races the append).
		if n := len(inst.reqFree); n > reqFreeFloor {
			s.reqFree = append(s.reqFree, inst.reqFree[reqFreeFloor:]...)
			for i := reqFreeFloor; i < n; i++ {
				inst.reqFree[i] = nil
			}
			inst.reqFree = inst.reqFree[:reqFreeFloor]
		}
	}
	s.roundLats = roundLats
	// Backlog no instance accepts yet still counts as queued work, for
	// the fleet and for the group it belongs to.
	for _, req := range s.pending {
		aggs[req.Group].queue++
	}
	rs.QueueDepth += len(s.pending)

	var perfSum, planLossSum, reqLossSum float64
	var perfN int
	rs.Groups = make([]GroupRoundStats, len(s.groups))
	for gi, g := range s.groups {
		a := &aggs[gi]
		perfSum += a.perfSum
		planLossSum += a.planLossSum
		perfN += a.perfN
		reqLossSum += a.reqLossSum
		gs := GroupRoundStats{
			Group:       g.name,
			Accepting:   a.accepting,
			Arrivals:    a.arrivals,
			Completions: a.completions,
			QueueDepth:  a.queue,
			Shed:        g.roundShed,
		}
		rs.Shed += g.roundShed
		g.roundShed = 0
		if a.perfN > 0 {
			gs.MeanNormPerf = a.perfSum / float64(a.perfN)
		}
		if a.completions > 0 {
			gs.RequestLoss = a.reqLossSum / float64(a.completions)
		}
		if lats := s.groupLats[gi]; len(lats) > 0 {
			sort.Float64s(lats)
			gs.LatencyMean = meanOf(lats)
			gs.LatencyP50 = percentile(lats, 50)
			gs.LatencyP95 = percentile(lats, 95)
			gs.LatencyP99 = percentile(lats, 99)
		}
		rs.Groups[gi] = gs
	}
	if perfN > 0 {
		rs.MeanNormPerf = perfSum / float64(perfN)
		rs.MeanPlanLoss = planLossSum / float64(perfN)
	}
	if rs.Completions > 0 {
		rs.RequestLoss = reqLossSum / float64(rs.Completions)
	}
	if len(roundLats) > 0 {
		sort.Float64s(roundLats)
		rs.LatencyMean = meanOf(roundLats)
		rs.LatencyP50 = percentile(roundLats, 50)
		rs.LatencyP95 = percentile(roundLats, 95)
		rs.LatencyP99 = percentile(roundLats, 99)
	}
	rs.FaultsLanded = s.roundFaults
	rs.FaultRedispatched = s.roundRedispatched
	rs.FaultDropped = s.roundDropped
	s.roundFaults, s.roundRedispatched, s.roundDropped = 0, 0, 0
	roundStart := epochTime().Add(time.Duration(s.round) * s.cfg.Quantum)
	rs.FaultActive = rs.FaultsLanded > 0 || s.faultActiveUntil.After(roundStart)
}

// Report summarizes the run so far.
func (s *Supervisor) Report() Report {
	rep := Report{
		Rounds:       append([]RoundStats(nil), s.rounds...),
		TotalEnergyJ: s.energy,
		Completions:  s.completed,
		Aborted:      s.aborted,
	}
	if s.faultOpts != nil {
		rep.Resilience = s.resilience()
	}
	if s.lossN > 0 {
		rep.MeanRequestLoss = s.lossSum / float64(s.lossN)
	}
	if elapsed := float64(s.round) * s.cfg.Quantum.Seconds(); elapsed > 0 {
		rep.MeanPower = s.energy / elapsed
	}
	var sorted []float64
	for _, inst := range s.insts {
		sorted = append(sorted, inst.allLats...)
	}
	if len(sorted) > 0 {
		sort.Float64s(sorted)
		var sum float64
		for _, l := range sorted {
			sum += l
		}
		rep.MeanLatency = sum / float64(len(sorted))
		rep.P50Latency = percentile(sorted, 50)
		rep.P95Latency = percentile(sorted, 95)
		rep.P99Latency = percentile(sorted, 99)
	}
	for _, inst := range s.insts {
		il := InstanceLatency{ID: inst.id, Group: inst.grp.name, Completions: len(inst.allLats)}
		if len(inst.allLats) > 0 {
			sorted := append([]float64(nil), inst.allLats...)
			sort.Float64s(sorted)
			il.P50 = percentile(sorted, 50)
			il.P95 = percentile(sorted, 95)
			il.P99 = percentile(sorted, 99)
		}
		rep.PerInstance = append(rep.PerInstance, il)
	}
	latsBy := make([][]float64, len(s.groups))
	for _, inst := range s.insts {
		latsBy[inst.grp.index] = append(latsBy[inst.grp.index], inst.allLats...)
	}
	for gi, g := range s.groups {
		gr := GroupReport{Group: g.name, Completions: g.completed, Aborted: g.aborted, Shed: g.shed}
		rep.Shed += g.shed
		if g.lossN > 0 {
			gr.MeanRequestLoss = g.lossSum / float64(g.lossN)
		}
		lats := latsBy[gi]
		if len(lats) > 0 {
			sort.Float64s(lats)
			var sum float64
			for _, l := range lats {
				sum += l
			}
			gr.MeanLatency = sum / float64(len(lats))
			gr.P50Latency = percentile(lats, 50)
			gr.P95Latency = percentile(lats, 95)
			gr.P99Latency = percentile(lats, 99)
		}
		rep.PerGroup = append(rep.PerGroup, gr)
	}
	return rep
}
