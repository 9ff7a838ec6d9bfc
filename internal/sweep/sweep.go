package sweep

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/calibrate"
	"repro/internal/fleet"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Stat is one replication's measured row: what a single seeded run of
// one grid cell produced. Slices of Stats aggregate into the per-cell
// mean / stddev / CI summary (Aggregate).
type Stat struct {
	Cell int   // cell index in canonical grid order
	Rep  int   // replication index within the cell
	Seed int64 // the derived replication seed (DeriveSeed)

	// Request conservation counters over the whole run.
	Arrivals    int
	Completions int
	Aborted     int
	Dropped     int // fault-displaced requests dropped (0 without faults)
	QueueDepth  int // backlog still in the system at the final round close

	// MeanSojourn is the mean request latency in seconds over rounds
	// past the warmup (completion-weighted across rounds); P50/P95/P99
	// are full-run percentiles.
	MeanSojourn float64
	P50, P95    float64
	P99         float64

	// MeanPower (W) averages rounds past the warmup; EnergyJ is the
	// whole run's integral.
	MeanPower float64
	EnergyJ   float64

	// SLOViolations counts group-rounds past the warmup whose p95
	// exceeded the group's sloP95 (0 when no group declares one).
	SLOViolations int
	// ScaleActions counts autoscaler placement actions; KnobSwitches
	// counts host DVFS transitions (the arbiter's knob churn).
	ScaleActions int
	KnobSwitches int

	// FaultsLanded / Redispatched mirror the resilience accounting
	// (all zero without a fault model).
	FaultsLanded int
	Redispatched int

	// CapResponseS is the seconds from the mid-quantum budget drop
	// until the close of the first round whose p95 returned to the
	// pre-drop mean p95; rounds-after-drop (censored) when it never
	// recovers, -1 when the cell schedules no drop.
	CapResponseS float64

	// Groups are the per-group slices, in cell declaration order.
	Groups []GroupStat
}

// GroupStat is one workload group's slice of a replication.
type GroupStat struct {
	Name        string
	Completions int
	// MeanSojourn is the group's completion-weighted mean latency over
	// rounds past the warmup; P95 is the group's full-run percentile.
	MeanSojourn float64
	P95         float64
}

// Options tunes a Run.
type Options struct {
	// Procs bounds the worker pool (0 = runtime.NumCPU()).
	Procs int
	// Replications / Rounds override the grid's values when > 0 (the
	// CLI's -reps/-rounds, and the fuzz harness's clamp).
	Replications int
	Rounds       int
	// Progress, when non-nil, is called after every finished
	// replication with (done, total). Calls are serialized.
	Progress func(done, total int)
}

// Result is a completed sweep: the grid, every replication's Stat in
// [cell][rep] order, and the per-cell aggregates.
type Result struct {
	Grid         *Grid
	Replications int
	Rounds       int
	Warmup       int
	Stats        [][]Stat
	Aggregates   []Aggregate
}

// Run executes the grid: Replications seeded runs of every cell on a
// Procs-bounded worker pool. The result is independent of the worker
// count and interleaving — each replication derives its own seed and
// writes its own preassigned slot, and aggregation runs afterwards in
// canonical order.
func Run(g *Grid, opt Options) (*Result, error) {
	reps := g.Replications
	if opt.Replications > 0 {
		reps = opt.Replications
	}
	rounds, warmup := g.Rounds, g.Warmup
	if opt.Rounds > 0 {
		rounds = opt.Rounds
		if warmup >= rounds {
			warmup = rounds / 2
		}
	}
	procs := opt.Procs
	if procs <= 0 {
		procs = runtime.NumCPU()
	}
	cells := g.CellCount()
	// Materialize and re-validate every cell up front: workers only see
	// constructible configurations, and a spec error surfaces before
	// any replication runs.
	cellCfgs := make([]Cell, cells)
	for ci := 0; ci < cells; ci++ {
		cell, _, err := g.CellAt(ci)
		if err != nil {
			return nil, err
		}
		if err := cell.validate(); err != nil {
			return nil, fmt.Errorf("sweep: cell %d (%s): %w", ci, g.CellLabel(ci), err)
		}
		cellCfgs[ci] = cell
	}

	res := &Result{Grid: g, Replications: reps, Rounds: rounds, Warmup: warmup}
	res.Stats = make([][]Stat, cells)
	for ci := range res.Stats {
		res.Stats[ci] = make([]Stat, reps)
	}

	profiles := &profileCache{entries: map[float64]*calibrate.Profile{}}
	total := cells * reps
	type job struct{ cell, rep int }
	jobs := make(chan job)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		done     int
	)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				st, err := runReplication(g, cellCfgs[j.cell], j.cell, j.rep, rounds, warmup, profiles)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("sweep: cell %d (%s) rep %d: %w", j.cell, g.CellLabel(j.cell), j.rep, err)
				}
				res.Stats[j.cell][j.rep] = st
				done++
				if opt.Progress != nil {
					opt.Progress(done, total)
				}
				mu.Unlock()
			}
		}()
	}
	for ci := 0; ci < cells; ci++ {
		for r := 0; r < reps; r++ {
			jobs <- job{ci, r}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.Aggregates = aggregate(res)
	return res, nil
}

// profileCache shares calibrated synthetic profiles across
// replications: calibration is deterministic per BaseCost and profiles
// are read-only once built, so thousands of replications pay for each
// distinct cost exactly once.
type profileCache struct {
	mu      sync.Mutex
	entries map[float64]*calibrate.Profile
}

func (p *profileCache) get(baseCost float64) (*calibrate.Profile, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if prof, ok := p.entries[baseCost]; ok {
		return prof, nil
	}
	probe := fleet.NewSynthetic(fleet.SyntheticOptions{BaseCost: baseCost})
	prof, err := calibrate.Run(probe, calibrate.Options{})
	if err != nil {
		return nil, err
	}
	p.entries[baseCost] = prof
	return prof, nil
}

// seed roles for deriveSubSeed: groups use their index, the fault model
// a role past any plausible group count.
const faultSeedRole = 1 << 20

// buildSupervisor materializes one replication's fleet: the cell's spec
// with its rates scaled and every stochastic stream seeded from the
// replication seed. Cells are shared across workers, so the rates and
// fault seed land on a copy.
func buildSupervisor(cell Cell, seed int64, profiles *profileCache) (*fleet.Supervisor, error) {
	s := cell.Spec
	if cell.RateScale != 0 {
		s.Groups = append([]spec.Group(nil), s.Groups...)
		for i := range s.Groups {
			s.Groups[i].Rate *= cell.RateScale
		}
	}
	if s.Faults != nil {
		f := *s.Faults
		f.Seed = cell.FaultSeed
		if f.Seed == 0 {
			f.Seed = deriveSubSeed(seed, faultSeedRole)
		}
		s.Faults = &f
	}
	resolve := func(g spec.Group) (func() (workload.App, error), *calibrate.Profile, error) {
		prof, err := profiles.get(g.BaseCost)
		if err != nil {
			return nil, nil, err
		}
		opts := fleet.SyntheticOptions{BaseCost: g.BaseCost}
		return func() (workload.App, error) { return fleet.NewSynthetic(opts), nil }, prof, nil
	}
	sc, err := s.Scenario(resolve, func(gi int) int64 { return deriveSubSeed(seed, gi) }, false)
	if err != nil {
		return nil, err
	}
	return s.Build(sc)
}

// runReplication executes one seeded run of one cell and extracts its
// Stat row.
func runReplication(g *Grid, cell Cell, ci, rep, rounds, warmup int, profiles *profileCache) (Stat, error) {
	seed := DeriveSeed(g.BaseSeed, ci, rep)
	sup, err := buildSupervisor(cell, seed, profiles)
	if err != nil {
		return Stat{}, err
	}
	const quantum = time.Second
	dropRound := -1
	if cell.BudgetDropTo > 0 {
		dropRound = cell.BudgetDropRound
		at := time.Unix(0, 0).
			Add(time.Duration(dropRound) * quantum).
			Add(quantum / 2)
		sup.SetBudgetAt(at, cell.BudgetDropTo)
	}
	if err := sup.Run(nil, rounds); err != nil {
		return Stat{}, err
	}
	rep2 := sup.Report()
	st := extractStat(cell, rep2, warmup, dropRound)
	st.Cell, st.Rep, st.Seed = ci, rep, seed
	st.MeanPower = sup.MeanPowerOver(warmup, rounds)
	st.ScaleActions = sup.ScaleMoves()
	st.KnobSwitches = sup.KnobSwitches()
	return st, nil
}

// extractStat reduces a fleet report to the replication's Stat row.
func extractStat(cell Cell, rep fleet.Report, warmup, dropRound int) Stat {
	st := Stat{
		Completions:  rep.Completions,
		Aborted:      rep.Aborted,
		EnergyJ:      rep.TotalEnergyJ,
		P50:          rep.P50Latency,
		P95:          rep.P95Latency,
		P99:          rep.P99Latency,
		CapResponseS: -1,
	}
	if rep.Resilience != nil {
		st.Dropped = rep.Resilience.Dropped
		st.Redispatched = rep.Resilience.Redispatched
		st.FaultsLanded = len(rep.Resilience.Faults)
	}
	var latSum float64
	var latN int
	groupLatSum := make([]float64, len(cell.Groups))
	groupLatN := make([]int, len(cell.Groups))
	for r, rs := range rep.Rounds {
		st.Arrivals += rs.Arrivals
		if r < warmup {
			continue
		}
		latSum += rs.LatencyMean * float64(rs.Completions)
		latN += rs.Completions
		for gi, gs := range rs.Groups {
			if gi >= len(cell.Groups) {
				break
			}
			groupLatSum[gi] += gs.LatencyMean * float64(gs.Completions)
			groupLatN[gi] += gs.Completions
			if slo := cell.Groups[gi].SLOP95; slo > 0 && gs.LatencyP95 > slo {
				st.SLOViolations++
			}
		}
	}
	if n := len(rep.Rounds); n > 0 {
		st.QueueDepth = rep.Rounds[n-1].QueueDepth
	}
	if latN > 0 {
		st.MeanSojourn = latSum / float64(latN)
	}
	for gi, gr := range cell.Groups {
		gs := GroupStat{Name: gr.Name}
		if gi < len(rep.PerGroup) {
			gs.Completions = rep.PerGroup[gi].Completions
			gs.P95 = rep.PerGroup[gi].P95Latency
		}
		if groupLatN[gi] > 0 {
			gs.MeanSojourn = groupLatSum[gi] / float64(groupLatN[gi])
		}
		st.Groups = append(st.Groups, gs)
	}
	if dropRound >= 0 && dropRound < len(rep.Rounds) {
		st.CapResponseS = capResponse(rep.Rounds, warmup, dropRound)
	}
	return st
}

// capResponse measures how long the fleet's tail latency took to return
// to its pre-drop level after the mid-quantum budget drop: seconds from
// the drop instant (halfway into dropRound) to the close of the first
// subsequent round whose p95 is back at or below the pre-drop mean p95.
// Censored at the run end when it never recovers.
func capResponse(rounds []fleet.RoundStats, warmup, dropRound int) float64 {
	var pre float64
	n := 0
	for r := warmup; r < dropRound && r < len(rounds); r++ {
		pre += rounds[r].LatencyP95
		n++
	}
	if n == 0 {
		// No pre-drop window to compare against; fall back to the first
		// round's p95.
		pre, n = rounds[0].LatencyP95, 1
	}
	pre /= float64(n)
	for r := dropRound; r < len(rounds); r++ {
		if rounds[r].LatencyP95 <= pre {
			return float64(r-dropRound) + 0.5
		}
	}
	return float64(len(rounds)-dropRound) - 0.5
}

// Metric is one aggregated column: a name and its per-replication
// extractor. The metric list is canonical per grid (metricsFor), so the
// CSV schema is a pure function of the spec.
type Metric struct {
	Name string
	Get  func(*Stat) float64
}

// metricsFor returns the grid's metric columns: the fleet-level set
// plus mean sojourn / p95 / completions per workload group of the base
// cell (group axes never add or remove groups, so the set is constant
// across cells).
func metricsFor(g *Grid) []Metric {
	ms := []Metric{
		{"mean_sojourn_s", func(s *Stat) float64 { return s.MeanSojourn }},
		{"p50_s", func(s *Stat) float64 { return s.P50 }},
		{"p95_s", func(s *Stat) float64 { return s.P95 }},
		{"p99_s", func(s *Stat) float64 { return s.P99 }},
		{"mean_power_w", func(s *Stat) float64 { return s.MeanPower }},
		{"energy_j", func(s *Stat) float64 { return s.EnergyJ }},
		{"completions", func(s *Stat) float64 { return float64(s.Completions) }},
		{"aborted", func(s *Stat) float64 { return float64(s.Aborted) }},
		{"dropped", func(s *Stat) float64 { return float64(s.Dropped) }},
		{"queue_depth", func(s *Stat) float64 { return float64(s.QueueDepth) }},
		{"slo_violations", func(s *Stat) float64 { return float64(s.SLOViolations) }},
		{"scale_actions", func(s *Stat) float64 { return float64(s.ScaleActions) }},
		{"knob_switches", func(s *Stat) float64 { return float64(s.KnobSwitches) }},
		{"faults_landed", func(s *Stat) float64 { return float64(s.FaultsLanded) }},
		{"cap_response_s", func(s *Stat) float64 { return s.CapResponseS }},
	}
	for gi, gr := range g.Base.Groups {
		gi := gi
		ms = append(ms,
			Metric{"g_" + gr.Name + "_mean_sojourn_s", func(s *Stat) float64 { return s.Groups[gi].MeanSojourn }},
			Metric{"g_" + gr.Name + "_p95_s", func(s *Stat) float64 { return s.Groups[gi].P95 }},
			Metric{"g_" + gr.Name + "_completions", func(s *Stat) float64 { return float64(s.Groups[gi].Completions) }},
		)
	}
	return ms
}

// Aggregate is one cell's summary: per metric (in metricsFor order) the
// replication mean, sample standard deviation, and the 95% confidence
// half-width 1.96·s/√n.
type Aggregate struct {
	Cell   int
	Label  string
	Values []float64 // the cell's axis coordinates, in axis order
	N      int
	Mean   []float64
	Std    []float64
	CI95   []float64
}

// aggregate folds every cell's Stat rows in replication order — fixed
// iteration order keeps the floating-point sums, and therefore the CSV
// bytes, identical at any worker count.
func aggregate(res *Result) []Aggregate {
	ms := metricsFor(res.Grid)
	out := make([]Aggregate, len(res.Stats))
	for ci, stats := range res.Stats {
		agg := Aggregate{
			Cell:   ci,
			Label:  res.Grid.CellLabel(ci),
			Values: res.Grid.CellValues(ci),
			N:      len(stats),
			Mean:   make([]float64, len(ms)),
			Std:    make([]float64, len(ms)),
			CI95:   make([]float64, len(ms)),
		}
		n := float64(len(stats))
		for mi, m := range ms {
			var sum float64
			for ri := range stats {
				sum += m.Get(&stats[ri])
			}
			mean := sum / n
			var sq float64
			for ri := range stats {
				d := m.Get(&stats[ri]) - mean
				sq += d * d
			}
			std := 0.0
			if len(stats) > 1 {
				std = math.Sqrt(sq / (n - 1))
			}
			agg.Mean[mi] = mean
			agg.Std[mi] = std
			agg.CI95[mi] = 1.96 * std / math.Sqrt(n)
		}
		out[ci] = agg
	}
	return out
}
