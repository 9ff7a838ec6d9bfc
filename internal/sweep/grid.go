// Package sweep is the Monte Carlo experiment harness: it runs
// thousands of seeded replications of a fleet.Scenario across a
// cartesian parameter grid on a NumCPU-bounded worker pool, collects
// one Stat row per replication, and aggregates each grid cell to
// mean / stddev / 95% confidence interval rows in a CSV with a fixed
// schema header — so every performance and SLO claim the repo makes
// carries error bars instead of a single seed.
//
// The output is byte-deterministic for a fixed base seed: replication
// seeds derive from (baseSeed, cell, replication) by splitmix64 mixing
// (DeriveSeed), every replication writes into its own preassigned slot,
// and aggregation and CSV rows run in canonical cell order — so the CSV
// is identical at any worker count and across runs.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Grid is the parameter-grid spec (JSON via ParseGrid): a base cell
// configuration plus sweep axes whose cartesian product defines the
// cells, and the replication/seeding policy shared by every cell.
type Grid struct {
	// Name labels the sweep in figures and logs.
	Name string `json:"name"`
	// BaseSeed roots every replication seed (DeriveSeed; default 1).
	BaseSeed int64 `json:"baseSeed"`
	// Replications is the seeded runs per cell (default 1).
	Replications int `json:"replications"`
	// Rounds is the control quanta each replication simulates
	// (required, >= 1); Warmup rounds are excluded from the mean
	// sojourn, mean power, and SLO-violation stats (0 <= Warmup <
	// Rounds).
	Rounds int `json:"rounds"`
	Warmup int `json:"warmup"`
	// Base is the cell configuration the axes perturb.
	Base Cell `json:"base"`
	// Axes are the sweep dimensions, outermost first; cells enumerate
	// in canonical cartesian order (the last axis varies fastest).
	Axes []Axis `json:"axes"`
}

// Axis is one sweep dimension: a parameter name and the values it
// takes. Integer-valued parameters reject fractional values.
//
// Fleet-level parameters: machines, cores, workers, fluid, budget,
// arbiterIntervalMs, rateScale, budgetDropTo, budgetDropRound,
// faultSeed. Group-scoped parameters are "<group>.<field>" with field
// one of rate, instances, reqIters, pressure, sloP95, scaleMax,
// baseCost (e.g. "web.rate").
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// Cell is one grid cell's fleet configuration — the sweepable subset of
// fleet.Scenario plus the mid-run budget-drop stimulus the arbitration
// study measures cap response against.
type Cell struct {
	// Machines / Cores / Budget size the cluster (defaults 2 / 2 /
	// 400 W; an explicit budget <= 0 means unlimited).
	Machines int      `json:"machines"`
	Cores    int      `json:"cores"`
	Budget   *float64 `json:"budget"`
	// Workers selects the engine worker pool (0 = GOMAXPROCS; results
	// are bit-identical at every value).
	Workers int `json:"workers"`
	// ArbiterIntervalMs is the arbiter tick period in milliseconds
	// (0 = the control quantum, i.e. 1000).
	ArbiterIntervalMs float64 `json:"arbiterIntervalMs"`
	// Fluid is the hybrid fluid/discrete queue-depth threshold
	// (0 = pure discrete).
	Fluid int `json:"fluid"`
	// SplitDispatch / ControlDisabled mirror the same-named
	// fleet.Scenario fields.
	SplitDispatch   bool `json:"splitDispatch"`
	ControlDisabled bool `json:"controlDisabled"`
	// Interference is "pressure" (default) or "uniform".
	Interference string `json:"interference"`
	// RateScale multiplies every open-loop group's arrival rate
	// (0 = 1) — the arrival-mix axis.
	RateScale float64 `json:"rateScale"`
	// BudgetDropTo, when > 0, schedules a budget change to that many
	// watts landing halfway into round BudgetDropRound — the cap
	// stimulus whose response latency Stat.CapResponseS measures.
	BudgetDropTo    float64 `json:"budgetDropTo"`
	BudgetDropRound int     `json:"budgetDropRound"`
	// Faults parameterizes the seeded stochastic fault model; nil
	// injects nothing. FaultSeed pins the model seed for every
	// replication of the cell (0 derives a fresh fault seed per
	// replication from the replication seed).
	Faults    *Faults `json:"faults"`
	FaultSeed int64   `json:"faultSeed"`
	// Groups are the workload groups (required, >= 1, unique names).
	Groups []Group `json:"groups"`
}

// Faults mirrors fleet.FaultConfig in JSON form (rates are mean faults
// per round; durations in seconds).
type Faults struct {
	Redispatch    bool     `json:"redispatch"`
	Racks         []string `json:"racks"`
	CrashRate     float64  `json:"crashRate"`
	RackRate      float64  `json:"rackRate"`
	ThrottleRate  float64  `json:"throttleRate"`
	StragglerRate float64  `json:"stragglerRate"`
	SagRate       float64  `json:"sagRate"`
	MeanOutageS   float64  `json:"meanOutageS"`
	MeanThrottleS float64  `json:"meanThrottleS"`
	MeanSlowS     float64  `json:"meanSlowS"`
	MeanSagS      float64  `json:"meanSagS"`
	ThrottleFloor int      `json:"throttleFloor"`
	SlowFactor    float64  `json:"slowFactor"`
	SagFactor     float64  `json:"sagFactor"`
}

// Group is one workload group of a cell: always the analytically exact
// synthetic app (sweeps are thousands of runs; real benchmark apps
// belong in single-shot -scenario runs), sized by BaseCost.
type Group struct {
	// Name is required and unique within the cell.
	Name string `json:"name"`
	// BaseCost sizes one baseline iteration in work units (0 = the
	// 6e6 default; smaller = faster service).
	BaseCost float64 `json:"baseCost"`
	// Instances is the group's initial instance count (>= 1 unless an
	// autoscaler is attached).
	Instances int `json:"instances"`
	// Load is constant | ramp | spike | saturate | none (default
	// constant); Rate is mean arrivals per quantum for open-loop loads.
	Load string  `json:"load"`
	Rate float64 `json:"rate"`
	// ReqIters sizes each request in stream iterations (0 = whole
	// stream).
	ReqIters int `json:"reqIters"`
	// Pressure is the group's co-residency contention pressure.
	Pressure float64 `json:"pressure"`
	// SLOP95 attaches the default hysteresis autoscaler provisioning
	// for this p95 bound in seconds (0 = no autoscaler); ScaleMax
	// bounds it (0 = total cluster cores).
	SLOP95   float64 `json:"sloP95"`
	ScaleMax int     `json:"scaleMax"`
}

// Guard rails: a grid is an experiment spec, not a denial-of-service
// vector — ParseGrid rejects anything past these bounds with an error
// (FuzzSweepGrid holds the never-panic contract over arbitrary bytes).
const (
	maxCells        = 4096
	maxReplications = 1 << 20
	maxRounds       = 100000
	maxMachines     = 4096
	maxInstances    = 4096
	maxRate         = 1e5
	minBaseCost     = 1e4
	maxBaseCost     = 1e10
)

// ParseGrid decodes and validates a grid spec. Unknown JSON fields are
// errors, so a typoed parameter cannot silently sweep nothing.
func ParseGrid(data []byte) (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("sweep: grid spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sweep: grid spec: trailing data after the JSON object")
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

func (g *Grid) validate() error {
	if g.BaseSeed == 0 {
		g.BaseSeed = 1
	}
	if g.Replications == 0 {
		g.Replications = 1
	}
	if g.Replications < 1 || g.Replications > maxReplications {
		return fmt.Errorf("sweep: replications %d outside [1, %d]", g.Replications, maxReplications)
	}
	if g.Rounds < 1 || g.Rounds > maxRounds {
		return fmt.Errorf("sweep: rounds %d outside [1, %d]", g.Rounds, maxRounds)
	}
	if g.Warmup < 0 || g.Warmup >= g.Rounds {
		return fmt.Errorf("sweep: warmup %d outside [0, rounds %d)", g.Warmup, g.Rounds)
	}
	seen := map[string]bool{}
	cellCount := 1
	for i, ax := range g.Axes {
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %d (%q) has no values", i, ax.Param)
		}
		if seen[ax.Param] {
			return fmt.Errorf("sweep: duplicate axis %q", ax.Param)
		}
		seen[ax.Param] = true
		// Every axis value must apply cleanly to the base cell — a bad
		// value list fails at parse time, not mid-pool.
		for _, v := range ax.Values {
			probe := g.Base.clone()
			if err := applyParam(&probe, ax.Param, v); err != nil {
				return err
			}
		}
		if cellCount > maxCells/len(ax.Values) {
			return fmt.Errorf("sweep: grid exceeds %d cells", maxCells)
		}
		cellCount *= len(ax.Values)
	}
	// Validate every concrete cell: axis interactions (say, machines
	// from one axis and instances from another) must compose into a
	// constructible scenario.
	for ci := 0; ci < cellCount; ci++ {
		cell, _, err := g.CellAt(ci)
		if err != nil {
			return err
		}
		if err := cell.validate(); err != nil {
			return fmt.Errorf("sweep: cell %d (%s): %w", ci, g.CellLabel(ci), err)
		}
	}
	return nil
}

func (c *Cell) validate() error {
	if c.Machines == 0 {
		c.Machines = 2
	}
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.Machines < 1 || c.Machines > maxMachines {
		return fmt.Errorf("machines %d outside [1, %d]", c.Machines, maxMachines)
	}
	if c.Cores < 1 || c.Cores > 64 {
		return fmt.Errorf("cores %d outside [1, 64]", c.Cores)
	}
	if c.Workers < 0 || c.Workers > 256 {
		return fmt.Errorf("workers %d outside [0, 256]", c.Workers)
	}
	if c.ArbiterIntervalMs < 0 || c.ArbiterIntervalMs > 1000 {
		return fmt.Errorf("arbiterIntervalMs %v outside [0, 1000]", c.ArbiterIntervalMs)
	}
	if c.Fluid < 0 {
		return fmt.Errorf("fluid %d < 0", c.Fluid)
	}
	switch c.Interference {
	case "", "pressure", "uniform":
	default:
		return fmt.Errorf("unknown interference %q (pressure | uniform)", c.Interference)
	}
	if c.RateScale < 0 || c.RateScale > 1e3 {
		return fmt.Errorf("rateScale %v outside [0, 1000]", c.RateScale)
	}
	if c.BudgetDropTo < 0 {
		return fmt.Errorf("budgetDropTo %v < 0", c.BudgetDropTo)
	}
	if c.BudgetDropTo > 0 && (c.BudgetDropRound < 0 || c.BudgetDropRound > maxRounds) {
		return fmt.Errorf("budgetDropRound %d outside [0, %d]", c.BudgetDropRound, maxRounds)
	}
	if c.Faults != nil {
		f := c.Faults
		for _, r := range []struct {
			name string
			v    float64
		}{
			{"crashRate", f.CrashRate}, {"rackRate", f.RackRate},
			{"throttleRate", f.ThrottleRate}, {"stragglerRate", f.StragglerRate},
			{"sagRate", f.SagRate},
		} {
			if r.v < 0 || r.v > 100 {
				return fmt.Errorf("faults %s %v outside [0, 100]", r.name, r.v)
			}
		}
		for _, d := range []struct {
			name string
			v    float64
		}{
			{"meanOutageS", f.MeanOutageS}, {"meanThrottleS", f.MeanThrottleS},
			{"meanSlowS", f.MeanSlowS}, {"meanSagS", f.MeanSagS},
		} {
			if d.v < 0 || d.v > 1e6 {
				return fmt.Errorf("faults %s %v outside [0, 1e6]", d.name, d.v)
			}
		}
		if len(f.Racks) > 64 {
			return fmt.Errorf("faults has %d racks, max 64", len(f.Racks))
		}
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("cell has no groups")
	}
	names := map[string]bool{}
	for i, gr := range c.Groups {
		if gr.Name == "" {
			return fmt.Errorf("group %d has no name", i)
		}
		if names[gr.Name] {
			return fmt.Errorf("duplicate group %q", gr.Name)
		}
		names[gr.Name] = true
		if gr.BaseCost != 0 && (gr.BaseCost < minBaseCost || gr.BaseCost > maxBaseCost) {
			return fmt.Errorf("group %q baseCost %v outside [%v, %v]", gr.Name, gr.BaseCost, float64(minBaseCost), float64(maxBaseCost))
		}
		if gr.Instances < 0 || gr.Instances > maxInstances {
			return fmt.Errorf("group %q instances %d outside [0, %d]", gr.Name, gr.Instances, maxInstances)
		}
		if gr.Instances == 0 && gr.SLOP95 <= 0 {
			return fmt.Errorf("group %q has no instances and no autoscaler", gr.Name)
		}
		switch gr.Load {
		case "", "constant", "ramp", "spike", "saturate", "none":
		default:
			return fmt.Errorf("group %q unknown load %q (constant | ramp | spike | saturate | none)", gr.Name, gr.Load)
		}
		if gr.Rate < 0 || gr.Rate > maxRate {
			return fmt.Errorf("group %q rate %v outside [0, %v]", gr.Name, gr.Rate, float64(maxRate))
		}
		if gr.ReqIters < 0 || gr.ReqIters > 1e6 {
			return fmt.Errorf("group %q reqIters %d outside [0, 1e6]", gr.Name, gr.ReqIters)
		}
		if gr.Pressure < 0 || gr.Pressure > 100 {
			return fmt.Errorf("group %q pressure %v outside [0, 100]", gr.Name, gr.Pressure)
		}
		if gr.SLOP95 < 0 || gr.SLOP95 > 1e6 {
			return fmt.Errorf("group %q sloP95 %v outside [0, 1e6]", gr.Name, gr.SLOP95)
		}
		if gr.ScaleMax < 0 || gr.ScaleMax > maxInstances {
			return fmt.Errorf("group %q scaleMax %d outside [0, %d]", gr.Name, gr.ScaleMax, maxInstances)
		}
	}
	return nil
}

// clone deep-copies the cell so axis application never aliases the base.
func (c Cell) clone() Cell {
	out := c
	out.Groups = append([]Group(nil), c.Groups...)
	if c.Budget != nil {
		b := *c.Budget
		out.Budget = &b
	}
	if c.Faults != nil {
		f := *c.Faults
		f.Racks = append([]string(nil), c.Faults.Racks...)
		out.Faults = &f
	}
	return out
}

// asInt rejects fractional axis values for integer parameters.
func asInt(param string, v float64) (int, error) {
	if v != math.Trunc(v) || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("sweep: axis %q value %v is not an integer", param, v)
	}
	return int(v), nil
}

// applyParam overrides one cell parameter with an axis value.
func applyParam(c *Cell, param string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("sweep: axis %q value %v is not finite", param, v)
	}
	if group, field, ok := strings.Cut(param, "."); ok {
		for i := range c.Groups {
			if c.Groups[i].Name != group {
				continue
			}
			return applyGroupParam(&c.Groups[i], param, field, v)
		}
		return fmt.Errorf("sweep: axis %q names unknown group %q", param, group)
	}
	switch param {
	case "machines":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		c.Machines = n
	case "cores":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		c.Cores = n
	case "workers":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		c.Workers = n
	case "fluid":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		c.Fluid = n
	case "budget":
		b := v
		c.Budget = &b
	case "arbiterIntervalMs":
		c.ArbiterIntervalMs = v
	case "rateScale":
		c.RateScale = v
	case "budgetDropTo":
		c.BudgetDropTo = v
	case "budgetDropRound":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		c.BudgetDropRound = n
	case "faultSeed":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		c.FaultSeed = int64(n)
	default:
		return fmt.Errorf("sweep: unknown axis parameter %q", param)
	}
	return nil
}

func applyGroupParam(g *Group, param, field string, v float64) error {
	switch field {
	case "rate":
		g.Rate = v
	case "baseCost":
		g.BaseCost = v
	case "pressure":
		g.Pressure = v
	case "sloP95":
		g.SLOP95 = v
	case "instances":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		g.Instances = n
	case "reqIters":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		g.ReqIters = n
	case "scaleMax":
		n, err := asInt(param, v)
		if err != nil {
			return err
		}
		g.ScaleMax = n
	default:
		return fmt.Errorf("sweep: unknown group axis field %q in %q", field, param)
	}
	return nil
}

// CellCount is the cartesian size of the grid (1 with no axes).
func (g *Grid) CellCount() int {
	n := 1
	for _, ax := range g.Axes {
		n *= len(ax.Values)
	}
	return n
}

// CellValues returns cell i's axis coordinates in axis order (the last
// axis varies fastest across consecutive cells).
func (g *Grid) CellValues(i int) []float64 {
	vals := make([]float64, len(g.Axes))
	for a := len(g.Axes) - 1; a >= 0; a-- {
		n := len(g.Axes[a].Values)
		vals[a] = g.Axes[a].Values[i%n]
		i /= n
	}
	return vals
}

// CellAt materializes cell i: the base configuration with the cell's
// axis values applied.
func (g *Grid) CellAt(i int) (Cell, []float64, error) {
	vals := g.CellValues(i)
	cell := g.Base.clone()
	for a, ax := range g.Axes {
		if err := applyParam(&cell, ax.Param, vals[a]); err != nil {
			return Cell{}, nil, err
		}
	}
	return cell, vals, nil
}

// CellLabel renders cell i's axis coordinates, e.g.
// "arbiterIntervalMs=250,workers=4" ("base" with no axes).
func (g *Grid) CellLabel(i int) string {
	if len(g.Axes) == 0 {
		return "base"
	}
	vals := g.CellValues(i)
	parts := make([]string, len(g.Axes))
	for a, ax := range g.Axes {
		parts[a] = ax.Param + "=" + strconv.FormatFloat(vals[a], 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// splitmix64 is the SplitMix64 mixing function — one invertible,
// full-avalanche round. Replication seeds derive from it so that
// neighboring (cell, replication) pairs land on statistically unrelated
// streams, and so seed derivation is a frozen, documented function of
// the spec alone (the byte-determinism contract).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed is the replication seed for (baseSeed, cell, rep):
// three chained splitmix64 rounds folding in the cell and replication
// indices. It is non-negative and never zero, so it can seed APIs that
// treat 0 as "pick a default".
func DeriveSeed(base int64, cell, rep int) int64 {
	h := splitmix64(uint64(base))
	h = splitmix64(h ^ uint64(cell+1))
	h = splitmix64(h ^ uint64(rep+1))
	s := int64(h &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// deriveSubSeed splits one replication seed into independent per-role
// streams (group arrival processes, the fault model).
func deriveSubSeed(seed int64, role int) int64 {
	s := int64(splitmix64(uint64(seed)^uint64(role+1)*0xD1B54A32D192ED03) &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}
