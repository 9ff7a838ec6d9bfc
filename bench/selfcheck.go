package main

// -selfcheck shows, from outside the program, that the benchmark can
// tell a slowdown from a rerun: every workload runs twice unchanged and
// once with a delay planted in workload.Run.Step. The planted run must
// be flagged on every timing metric and the rerun on none. The bounds
// are BENCHMARK.json's.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// plantPct is the planted slowdown, as a share of the op time: the
// widest timing bound plus the 10 % a run has been seen to move by on
// its own when the box is busy.
const plantPct = 35

// mustFlag are the metrics a slower Run.Step has to show in: the op
// itself, the tail, the throughput, and set-up, which is mostly warm-up
// ops.
var mustFlag = []string{"setup_s", "op_ms_p50", "op_ms_p90", "beats_per_s"}

// bounds is how far each end-to-end metric may worsen before a change
// counts as a regression; TestBenchmarkJSON holds BENCHMARK.json to it.
var bounds = map[string]struct {
	bound  float64
	higher bool
}{
	"setup_s":         {0.25, false},
	"op_ms_p50":       {0.20, false},
	"op_ms_p90":       {0.25, false},
	"beats_per_s":     {0.20, true},
	"allocs_per_op":   {0.03, false},
	"alloc_kb_per_op": {0.05, false},
	"peak_rss_mb":     {0.08, false},
}

// plantedSpin sizes the planted delay: a short traced pass counts the
// Run.Step calls per op (replica fleets included) and the op time, and
// the spin per call is pct % of the op time spread over those calls.
func plantedSpin(w workloadDef, e env, pct float64) (int, error) {
	const ops = 100
	tr := newTracer()
	e.tr, e.ops, e.sched = tr, ops, nil
	s := newSeries(ops)
	if _, err := runRep(w, e, ops, 0, s); err != nil {
		return 0, err
	}
	_, count := tr.floors(ops)
	calls := sum(count[spanWorkloadStep])
	if calls == 0 {
		return 0, fmt.Errorf("%s: no Run.Step call seen, nothing to plant a delay in", w.name)
	}
	perCallNs := pct / 100 * float64(sum(s.timed.op)) / float64(calls)
	return max(int(perCallNs/spinCost()), 1), nil
}

// regressions lists the end-to-end metrics on which b is worse than a
// by more than the metric's bound.
func regressions(a, b map[string]float64) []string {
	var out []string
	for _, m := range endToEndSchema {
		bd := bounds[m.name]
		worse := (b[m.name] - a[m.name]) / a[m.name]
		if bd.higher {
			worse = -worse
		}
		if worse > bd.bound {
			out = append(out, fmt.Sprintf("%s %+.1f%%", m.name, 100*worse))
		}
	}
	return out
}

func selfCheck(o options, stdout, stderr io.Writer) int {
	run := func(workload string, plant float64) (map[string]float64, error) {
		o := o
		o.plantPct, o.trace, o.spans = plant, false, ""
		cmd, err := child(o, workload)
		if err != nil {
			return nil, err
		}
		cmd.Args = append(cmd.Args, "-json")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s (planted %v %%): %w", workload, plant, err)
		}
		var line struct {
			Metrics map[string]jsonMetric `json:"metrics"`
		}
		if err := json.Unmarshal(out, &line); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", workload, err)
		}
		vals := make(map[string]float64, len(line.Metrics))
		for name, m := range line.Metrics {
			vals[name] = m.Value
		}
		return vals, nil
	}
	code := 0
	for _, w := range workloads {
		var runs [3]map[string]float64
		for i, plant := range []float64{0, 0, plantPct} {
			vals, err := run(w.name, plant)
			if err != nil {
				fmt.Fprintf(stderr, "bench: selfcheck: %v\n", err)
				return 1
			}
			runs[i] = vals
		}
		rerun, planted := regressions(runs[0], runs[1]), regressions(runs[0], runs[2])
		verdict := "ok"
		if len(rerun) > 0 {
			verdict, code = "FAILED", 1
		}
		for _, name := range mustFlag {
			if !flagged(planted, name) {
				verdict, code = "FAILED", 1
			}
		}
		fmt.Fprintf(stdout, "selfcheck %-16s %-6s rerun flagged: [%s]  planted %d%% flagged: [%s]  (op_ms_p50 %.4f / %.4f / %.4f)\n",
			w.name, verdict, strings.Join(rerun, ", "), plantPct, strings.Join(planted, ", "),
			runs[0]["op_ms_p50"], runs[1]["op_ms_p50"], runs[2]["op_ms_p50"])
	}
	return code
}

// flagged reports whether regressions listed the metric.
func flagged(list []string, metric string) bool {
	for _, item := range list {
		if strings.HasPrefix(item, metric+" ") {
			return true
		}
	}
	return false
}
