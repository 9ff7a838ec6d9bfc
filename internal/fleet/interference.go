package fleet

// This file is the co-residency interference surface. The fleet couples
// instances on one machine through the share of a core each resident
// effectively receives; how that share is computed is a pluggable model
// so heterogeneous workload groups (Scenario) can contend for shared
// resources the way real co-located applications do — x264 next to
// swish++ on one machine does not behave like two x264s — while the
// original uniform core-multiplexing share survives as the
// oracle-validated reference model.

// Interference models machine co-residency: given a host's core count
// and its per-group resident counts, it returns the fraction of one
// core a resident of the given group effectively receives. The
// supervisor pushes 1 − share to each resident's machine view as
// platform interference, so the instance's effective frequency scales
// by the share.
//
// Implementations must be pure, deterministic functions of their
// arguments: the supervisor re-evaluates shares at every arbitration on
// every engine, and the fleet's bit-identity across Workers values (and
// across runs) holds only if equal inputs always produce equal shares.
// Share values must lie in (0, 1].
type Interference interface {
	// Share returns the effective per-core fraction for one resident of
	// group (an index into the scenario's group list) on a host with
	// the given cores and per-group resident counts (counts[g] is the
	// number of residents of group g; the host's total residency is the
	// sum). It is only called with counts[group] >= 1.
	Share(cores int, counts []int, group int) float64
}

// UniformShare is the reference interference model (select it with
// Scenario.Interference): pure time-multiplexing, blind to group
// identity. A machine with C cores and I residents gives every resident
// min(1, C/I) of a core — exactly the Sec. 5.5 sharing arithmetic the
// cluster oracle (cluster.Oracle) predicts, which is why every
// oracle-validation test runs under this model.
type UniformShare struct{}

// Share implements Interference.
func (UniformShare) Share(cores int, counts []int, group int) float64 {
	return uniformShare(cores, totalResidents(counts))
}

func totalResidents(counts []int) int {
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

func uniformShare(cores, residents int) float64 {
	if residents <= cores {
		return 1
	}
	return float64(cores) / float64(residents)
}

// PressureShare is the contention-aware model and the default for
// heterogeneous scenarios (NewScenario): on top of the uniform
// multiplexing share, co-resident *other-group* instances degrade a
// resident's effective frequency in proportion to the contention
// pressure their group exerts on shared resources (memory bandwidth,
// last-level cache):
//
//	share(g) = uniform(C, I) / (1 + Alpha/C · Σ_{j≠g} counts[j]·Pressure[j])
//
// Same-group co-residents add no pressure beyond time-multiplexing —
// a homogeneous fleet under PressureShare is bit-identical to
// UniformShare, which is what keeps single-group fleets and every
// oracle validation exact — and the cross-group penalty is
// diluted by the core count (more cores, more shared-resource
// headroom). All-zero pressures reduce the model to UniformShare for
// any mix.
type PressureShare struct {
	// Pressure[g] is group g's contention pressure in [0, ∞): how hard
	// the group leans on shared machine resources. Zero (the default)
	// exerts none. Missing entries (a short slice) read as zero.
	Pressure []float64
	// Alpha scales the cross-group degradation (default 1 when <= 0).
	Alpha float64
}

// Share implements Interference.
func (p PressureShare) Share(cores int, counts []int, group int) float64 {
	share := uniformShare(cores, totalResidents(counts))
	var cross float64
	for j, n := range counts {
		if j == group || n == 0 || j >= len(p.Pressure) {
			continue
		}
		cross += float64(n) * p.Pressure[j]
	}
	if cross <= 0 {
		return share
	}
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	return share / (1 + alpha*cross/float64(cores))
}
