// Package benchparse reads Go benchmark results in either of the two
// formats the repo produces: the raw `go test -bench` text stream, or
// the `-json` (test2json) event stream CI tees into BENCH_fleet.json.
// The CI tooling builds on it twice — cmd/benchplot renders trend
// figures from a record, and cmd/benchguard compares a fresh run
// against the committed baseline to fail allocation regressions.
package benchparse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark measurement line.
type Result struct {
	Name        string  // sub-benchmark path, -cpu suffix stripped
	N           int     // iterations the timing averaged over
	NsPerOp     float64 // nanoseconds per operation
	BytesPerOp  float64 // -1 when the line carries no B/op
	AllocsPerOp float64 // -1 when the line carries no allocs/op
}

// test2json event; only the fields Parse needs.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// resultRe matches one benchmark result line up to ns/op; the rest of
// the line holds further "value unit" pairs — B/op, allocs/op, and any
// b.ReportMetric extras, which go test prints between ns/op and B/op.
// test2json splits lines across Output events mid-field, so Parse
// matches against the reassembled text, not per event.
var resultRe = regexp.MustCompile(`(?m)^(Benchmark[^\s]+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// Parse reads benchmark results, auto-detecting the format: lines that
// decode as test2json events contribute their Output payloads, and the
// reassembled stream is scanned for result lines. A plain text stream
// (not JSON) is scanned directly. Returns every measurement in input
// order — repeated -count runs stay separate; use Means to aggregate.
func Parse(r io.Reader) ([]Result, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > 0 && line[0] == '{' {
			var ev testEvent
			if err := json.Unmarshal(line, &ev); err == nil {
				if ev.Action == "output" {
					text.WriteString(ev.Output)
				}
				continue
			}
		}
		text.Write(line)
		text.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out []Result
	for _, m := range resultRe.FindAllStringSubmatch(text.String(), -1) {
		res := Result{Name: m[1], BytesPerOp: -1, AllocsPerOp: -1}
		res.N, _ = strconv.Atoi(m[2])
		res.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		rest := strings.Fields(m[4])
		for i := 0; i+1 < len(rest); i += 2 {
			switch rest[i+1] {
			case "B/op":
				res.BytesPerOp, _ = strconv.ParseFloat(rest[i], 64)
			case "allocs/op":
				res.AllocsPerOp, _ = strconv.ParseFloat(rest[i], 64)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// Means aggregates repeated runs of the same benchmark (e.g. -count 3)
// into one arithmetic-mean Result per name, in first-seen order. A
// metric absent from any run (-1) stays -1 in the mean.
func Means(results []Result) []Result {
	idx := map[string]int{}
	var order []string
	sums := map[string]*meanAcc{}
	for _, r := range results {
		if _, ok := idx[r.Name]; !ok {
			idx[r.Name] = len(order)
			order = append(order, r.Name)
			sums[r.Name] = &meanAcc{bytes: true, allocs: true}
		}
		a := sums[r.Name]
		a.runs++
		a.ns += r.NsPerOp
		a.n += r.N
		if r.BytesPerOp < 0 {
			a.bytes = false
		} else {
			a.b += r.BytesPerOp
		}
		if r.AllocsPerOp < 0 {
			a.allocs = false
		} else {
			a.a += r.AllocsPerOp
		}
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		a := sums[name]
		r := Result{Name: name, N: a.n / a.runs, NsPerOp: a.ns / float64(a.runs), BytesPerOp: -1, AllocsPerOp: -1}
		if a.bytes {
			r.BytesPerOp = a.b / float64(a.runs)
		}
		if a.allocs {
			r.AllocsPerOp = a.a / float64(a.runs)
		}
		out = append(out, r)
	}
	return out
}

type meanAcc struct {
	runs          int
	n             int
	ns, b, a      float64
	bytes, allocs bool
}

// Find returns the mean result whose name matches the pattern (full
// regexp match against the -cpu-stripped name). It errors when the
// pattern matches nothing or is ambiguous across names, so a guard
// cannot silently compare the wrong leg.
func Find(means []Result, pattern string) (Result, error) {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return Result{}, fmt.Errorf("bad benchmark pattern %q: %w", pattern, err)
	}
	var hits []Result
	for _, r := range means {
		if re.MatchString(r.Name) {
			hits = append(hits, r)
		}
	}
	switch len(hits) {
	case 0:
		return Result{}, fmt.Errorf("no benchmark matches %q", pattern)
	case 1:
		return hits[0], nil
	default:
		names := make([]string, len(hits))
		for i, h := range hits {
			names[i] = h.Name
		}
		return Result{}, fmt.Errorf("pattern %q is ambiguous: %s", pattern, strings.Join(names, ", "))
	}
}
