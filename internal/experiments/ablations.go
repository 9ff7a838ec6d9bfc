package experiments

import (
	"fmt"
	"io"

	powerdial "repro"
	"repro/internal/calibrate"
	"repro/internal/control"
	"repro/internal/core"
)

// Ablations benchmarks the reproduction's design choices: actuation
// policy, quantum length, Pareto pruning, and the controller's tolerance
// of plant-gain mismatch.
func Ablations(w io.Writer, s *Suite) error {
	if err := ablatePolicy(w, s); err != nil {
		return err
	}
	if err := ablateQuantum(w, s); err != nil {
		return err
	}
	if err := ablateParetoPruning(w, s); err != nil {
		return err
	}
	return ablateGainMismatch(w)
}

// ablateGainMismatch probes the integral controller's robustness to
// plant-gain error: the paper's model assumes the baseline speed b is
// known; deadbeat integral control tolerates b_true up to 2x the
// estimate before oscillating. The table shows settling behaviour across
// the mismatch range (failure injection for the model-error case).
func ablateGainMismatch(w io.Writer) error {
	header(w, "ablation: controller gain mismatch (b_true = k x b_est)")
	fmt.Fprintf(w, "%5s | %14s | %s\n", "k", "settling steps", "behaviour")
	for _, k := range []float64{0.5, 1.0, 1.5, 1.9, 2.2} {
		bEst := 10.0
		bTrue := bEst * k
		g := bTrue * 2 // reachable demand
		ctl, err := control.NewController(bEst, g, 8)
		if err != nil {
			return err
		}
		h := bTrue
		settled := -1
		for i := 0; i < 400; i++ {
			s := ctl.Update(h)
			h = bTrue * s
			if settled < 0 && h > g*0.98 && h < g*1.02 {
				settled = i
			}
			if settled >= 0 && (h < g*0.98 || h > g*1.02) {
				settled = -1 // left the band again: not settled
			}
		}
		behaviour := "converges"
		if settled < 0 {
			behaviour = "oscillates (beyond stability bound)"
		}
		fmt.Fprintf(w, "%5.1f | %14d | %s\n", k, settled, behaviour)
	}
	return nil
}

// ablatePolicy compares the two Sec. 2.3.3 solutions under a permanent
// power cap: race-to-idle touches the highest-loss setting but idles;
// min-QoS runs continuously at the gentlest sufficient setting.
func ablatePolicy(w io.Writer, s *Suite) error {
	header(w, "ablation: actuation policy under a power cap (swaptions)")
	sys, err := s.System("swaptions")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s | %8s | %8s | %8s | %8s\n", "policy", "power W", "util", "plan q%", "perf err")
	for _, pol := range []powerdial.Policy{powerdial.MinQoS, powerdial.RaceToIdle} {
		mach, err := powerdial.NewMachine(powerdial.MachineConfig{Clock: powerdial.NewVirtualClock()})
		if err != nil {
			return err
		}
		costPerBeat, err := core.BaselineCostPerBeat(sys.App, powerdial.Production)
		if err != nil {
			return err
		}
		goal := mach.Speed() / costPerBeat
		rt, err := powerdial.NewRuntime(powerdial.RuntimeConfig{
			System: sys, Machine: mach, Policy: pol,
			Target: powerdial.Target{Min: goal, Max: goal},
		})
		if err != nil {
			return err
		}
		mach.ImposePowerCap()
		streams := sys.App.Streams(powerdial.Production)
		// Converge, then measure one long pass.
		if _, err := rt.RunStream(newLoopStream(streams, 6*control.DefaultQuantumBeats)); err != nil {
			return err
		}
		sum, err := rt.RunStream(newLoopStream(streams, 4*control.DefaultQuantumBeats))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s | %8.1f | %8.2f | %8.3f | %7.1f%%\n",
			pol, sum.MeanPower, mach.Utilization(), rt.CurrentPlanLoss()*100, sum.PerfError*100)
	}
	return nil
}

// ablateQuantum sweeps the actuator quantum (the paper fixes it at 20
// heartbeats): shorter quanta converge faster after a cap but chatter;
// longer quanta react sluggishly.
func ablateQuantum(w io.Writer, s *Suite) error {
	header(w, "ablation: actuator quantum length (swaptions, cap at beat 40)")
	sys, err := s.System("swaptions")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%7s | %14s | %8s\n", "quantum", "recovery beats", "perf err")
	for _, q := range []int{5, 20, 80} {
		mach, err := powerdial.NewMachine(powerdial.MachineConfig{Clock: powerdial.NewVirtualClock()})
		if err != nil {
			return err
		}
		costPerBeat, err := core.BaselineCostPerBeat(sys.App, powerdial.Production)
		if err != nil {
			return err
		}
		goal := mach.Speed() / costPerBeat
		capAt := 40
		cfg := powerdial.RuntimeConfig{
			System: sys, Machine: mach,
			Target:       powerdial.Target{Min: goal, Max: goal},
			QuantumBeats: q,
			Record:       true,
			BeatHook: func(beats int) {
				if beats == capAt {
					mach.ImposePowerCap()
				}
			},
		}
		rt, err := powerdial.NewRuntime(cfg)
		if err != nil {
			return err
		}
		total := 320
		loop := newLoopStream(sys.App.Streams(powerdial.Production), total)
		sum, err := rt.RunStream(loop)
		if err != nil {
			return err
		}
		// Recovery: beats from the deepest post-cap dip until the
		// sliding-window performance is back within 5% of target.
		trace := rt.Trace()
		minIdx, minPerf := capAt, 2.0
		for i := capAt; i < len(trace); i++ {
			if p := trace[i].NormPerf; p < minPerf {
				minPerf, minIdx = p, i
			}
		}
		recovery := -1
		for i := minIdx; i < len(trace); i++ {
			if trace[i].NormPerf >= 0.95 {
				recovery = i - capAt
				break
			}
		}
		fmt.Fprintf(w, "%7d | %14d | %7.1f%%\n", q, recovery, sum.PerfError*100)
	}
	return nil
}

// ablateParetoPruning quantifies what the training exploration buys: the
// blended QoS loss of actuating over the Pareto frontier versus over the
// raw setting list (dominated settings included). The paper argues "the
// exploration of the trade-off space during training is therefore
// required to find good points" (Sec. 5.3).
func ablateParetoPruning(w io.Writer, s *Suite) error {
	header(w, "ablation: Pareto pruning (x264 plan loss at fixed demands)")
	sys, err := s.System("x264")
	if err != nil {
		return err
	}
	pruned := sys.Profile
	unpruned := allowAllSettings(pruned)
	actP, err := control.NewActuator(pruned, control.MinQoS)
	if err != nil {
		return err
	}
	actU, err := control.NewActuator(unpruned, control.MinQoS)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%7s | %12s | %12s\n", "demand", "pareto q%", "unpruned q%")
	worse := 0
	for _, demand := range []float64{1.2, 1.5, 2, 2.5, 3} {
		if demand > pruned.MaxSpeedup() {
			continue
		}
		lp := actP.PlanFor(demand).ExpectedLoss()
		lu := actU.PlanFor(demand).ExpectedLoss()
		if lu > lp {
			worse++
		}
		fmt.Fprintf(w, "%7.2f | %12.3f | %12.3f\n", demand, lp*100, lu*100)
	}
	fmt.Fprintf(w, "unpruned plans were worse at %d demand levels\n", worse)
	return nil
}

// allowAllSettings clones a profile marking every setting admissible —
// the "no training exploration" strawman. SettingFor then picks the
// smallest sufficient speedup among all settings, including dominated
// ones with needlessly high loss.
func allowAllSettings(p *calibrate.Profile) *calibrate.Profile {
	q := p.WithCap(0)
	for i := range q.Results {
		q.Results[i].Pareto = true
	}
	return q
}
