package sweep

import (
	"math"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/platform"
	"repro/internal/spec"
)

// TestSweepOracleContainment is the statistical upgrade of the
// single-seed TestScenarioMatchesMixOracle (internal/fleet): a
// 200-replication Monte Carlo sweep of the two-group open-loop scenario
// asserts the 95% confidence interval of the measured per-group mean
// sojourn and fleet mean power contains the composed M/G/1 oracle
// prediction — tolerance-free, because the error bars come from the
// experiment itself. The fast-path 10%/2% single-seed checks stay in
// internal/fleet; this test is the one with error bars.
//
// The replication horizon matters: per-replication means carry a
// finite-horizon bias of order 1/rounds, so rounds must be large enough
// that the residual bias sits well inside the CI that 200 replications
// produce. The whole sweep is byte-deterministic for the fixed base
// seed, so a pass is a pass forever — this cannot flake, only detect
// genuine behavior drift.
func TestSweepOracleContainment(t *testing.T) {
	if testing.Short() {
		t.Skip("200-replication Monte Carlo sweep")
	}
	const (
		reps       = 200
		rounds     = 1200
		warmup     = 50
		iters      = 20
		fastLambda = 2.4
		slowLambda = 1.2
		fastCost   = 3e6
		slowCost   = 6e6
		// Deterministic baseline service times at the full 2.4 GHz.
		fastService = iters * fastCost / (2.4 * platform.SpeedPerGHz) // 0.25 s
		slowService = iters * slowCost / (2.4 * platform.SpeedPerGHz) // 0.5 s
	)
	unlimited := 0.0
	g := &Grid{
		Name:         "oracle-mix",
		BaseSeed:     7,
		Replications: reps,
		Rounds:       rounds,
		Warmup:       warmup,
		Base: Cell{Spec: spec.Spec{
			Machines: 2,
			Cores:    2,
			Budget:   &unlimited,
			// The oracle's regime: open-loop baseline service, random
			// split dispatch, uniform interference.
			ControlDisabled: true,
			SplitDispatch:   true,
			Interference:    "uniform",
			Groups: []spec.Group{
				{Name: "fast", BaseCost: fastCost, Instances: 2, Rate: fastLambda, ReqIters: iters},
				{Name: "slow", BaseCost: slowCost, Instances: 2, Rate: slowLambda, ReqIters: iters},
			},
		}},
	}
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}

	prof, err := calibrate.Run(fleet.NewSynthetic(fleet.SyntheticOptions{BaseCost: slowCost}), calibrate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := cluster.NewOracle(2, 2, prof, platform.DefaultPowerModel(), platform.Frequencies[0])
	if err != nil {
		t.Fatal(err)
	}
	pred, err := oracle.PredictMix([]cluster.GroupStation{
		{Name: "fast", Instances: 2, Lambda: fastLambda, Service: fastService},
		{Name: "slow", Instances: 2, Lambda: slowLambda, Service: slowService},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Stable {
		t.Fatalf("oracle says mix unstable; test scenario is broken: %+v", pred)
	}

	// ci95 computes the replication mean and 95% CI half-width of one
	// metric over the single cell.
	stats := res.Stats[0]
	ci95 := func(get func(*Stat) float64) (mean, half float64) {
		var sum float64
		for i := range stats {
			sum += get(&stats[i])
		}
		mean = sum / float64(len(stats))
		var sq float64
		for i := range stats {
			d := get(&stats[i]) - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(len(stats)-1))
		return mean, 1.96 * std / math.Sqrt(float64(len(stats)))
	}

	for gi, want := range []float64{pred.Groups[0].MeanSojourn, pred.Groups[1].MeanSojourn} {
		gi := gi
		name := g.Base.Groups[gi].Name
		mean, half := ci95(func(s *Stat) float64 { return s.Groups[gi].MeanSojourn })
		t.Logf("group %s: measured %.5f s ± %.5f (95%% CI over %d reps), oracle %.5f s",
			name, mean, half, reps, want)
		if math.Abs(mean-want) > half {
			t.Errorf("group %s mean sojourn CI [%.5f, %.5f] does not contain oracle prediction %.5f s",
				name, mean-half, mean+half, want)
		}
	}
	mean, half := ci95(func(s *Stat) float64 { return s.MeanPower })
	t.Logf("power: measured %.3f W ± %.3f (95%% CI over %d reps), oracle %.3f W", mean, half, reps, pred.PowerWatts)
	if math.Abs(mean-pred.PowerWatts) > half {
		t.Errorf("mean power CI [%.3f, %.3f] does not contain oracle prediction %.3f W",
			mean-half, mean+half, pred.PowerWatts)
	}
}
