// Command bench is the repository's benchmark: four deterministic
// single-thread workloads, from one fleet round to one twin-advised
// serving round, measured on the noise floor, with a traced per-layer
// ladder. See README.md in this directory.
//
//	go run -C bench .                       every workload, one process each
//	go run -C bench . -workload serve_twin  one workload
//	go run -C bench . -trace t.json         per-layer metrics, spans to t.json
//	go run -C bench . -selfcheck            planted slowdown must be flagged
//	go run -C bench . -hdr                  print the row schema and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (default: all four, one process each)")
		seed      = fs.Int64("seed", 1, "seed of every generated input")
		seconds   = fs.Float64("seconds", defaultSeconds, "what a run is sized for (run_seconds in BENCHMARK.json): N and R are fixed, and a run that has spent twice as long is aborted")
		trace     = fs.String("trace", "0", "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run; a file name = 1 and write the spans there")
		jsonOnly  = fs.Bool("json", false, "print only the result line (one JSON object per workload)")
		hdr       = fs.Bool("hdr", false, "print the schema of the row lines and exit")
		selfcheck = fs.Bool("selfcheck", false, "run every workload twice unchanged and once with a planted slowdown; fail unless the planted run is flagged on every timing metric and the rerun on none")
		plant     = fs.Float64("plant-pct", 0, "selfcheck only: spin this share of the op time inside Run.Step")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, plantPct: *plant}
	switch *trace {
	case "", "0":
	case "1":
		o.trace = true
	default:
		o.trace, o.spans = true, *trace
	}
	if *hdr {
		printHeader(stdout, o.trace)
		return 0
	}
	if *selfcheck {
		return selfCheck(o, stdout, stderr)
	}
	if *name == "" {
		return runAll(o, *jsonOnly, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.correct() {
		// A failed check prints no result line: a number from a run whose
		// outputs are wrong must not be compared with anything.
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "bench: %s: CHECK FAILED: %s\n", w.name, p)
		}
		return 1
	}
	if !*jsonOnly {
		printTable(stdout, res)
		printRow(stdout, res)
	}
	fmt.Fprintln(stdout, resultLine(res))
	return 0
}

// runAll runs each workload in a process of its own (peak RSS and the
// collector's state belong to one workload) and relays their output.
func runAll(o options, jsonOnly bool, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		cmd, err := child(o, w.name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if jsonOnly {
			cmd.Args = append(cmd.Args, "-json")
		}
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// child is this program again, measuring one workload under o; each
// workload gets a span file of its own when one was asked for.
func child(o options, workload string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	switch {
	case o.spans != "":
		trace = spanFileFor(o.spans, workload)
	case o.trace:
		trace = "1"
	}
	return exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", trace, "-plant-pct", fmt.Sprint(o.plantPct)), nil
}

func spanFileFor(path, workload string) string {
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "." + workload + path[i:]
	}
	return path + "." + workload
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a workload's output.
func resultLine(r *result) string {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]jsonMetric, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}

func printTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s  seed=%d N=%d R=%d %s nproc=%d attempted=%d failed=%d sim_digest=%016x\n",
		r.workload, r.seed, r.n, r.reps, runtime.Version(), runtime.NumCPU(), r.attempted, r.failed, r.digest)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// printHeader and printRow are the machine-readable form: -hdr prints
// the column names, every run prints one row in that order.
func printHeader(w io.Writer, traced bool) {
	cols := []string{"#", "workload", "seed", "N", "R", "go", "nproc", "attempted", "failed", "sim_digest"}
	for _, m := range metricSchema(traced) {
		cols = append(cols, m.name+"["+m.unit+"]")
	}
	fmt.Fprintln(w, strings.Join(cols, " "))
}

func printRow(w io.Writer, r *result) {
	cols := []string{"row", r.workload, fmt.Sprint(r.seed), fmt.Sprint(r.n), fmt.Sprint(r.reps), runtime.Version(),
		fmt.Sprint(runtime.NumCPU()), fmt.Sprint(r.attempted), fmt.Sprint(r.failed), fmt.Sprintf("%016x", r.digest)}
	for _, m := range r.metrics {
		cols = append(cols, fmt.Sprintf("%.6g", m.value))
	}
	fmt.Fprintln(w, strings.Join(cols, " "))
}
