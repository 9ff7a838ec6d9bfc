package benchparse

import (
	"strings"
	"testing"
)

const rawBench = `goos: linux
goarch: amd64
pkg: repro/internal/fleet
BenchmarkFleetScale/hosts=128/workers=4-8         	      30	   1615180 ns/op	   21504 B/op	     139 allocs/op
BenchmarkFleetScale/hosts=128/workers=4-8         	      30	   1702331 ns/op	   21600 B/op	     141 allocs/op
BenchmarkFleetScale/hosts=1024/workers=4-8        	       6	  16028577 ns/op	  180224 B/op	    1127 allocs/op
BenchmarkNoAllocLine-8                            	 1000000	      1042 ns/op
PASS
`

func TestParseRawText(t *testing.T) {
	res, err := Parse(strings.NewReader(rawBench))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(res) != 4 {
		t.Fatalf("want 4 results, got %d: %+v", len(res), res)
	}
	r := res[0]
	if r.Name != "BenchmarkFleetScale/hosts=128/workers=4" {
		t.Errorf("name with -cpu suffix not stripped: %q", r.Name)
	}
	if r.N != 30 || r.NsPerOp != 1615180 || r.BytesPerOp != 21504 || r.AllocsPerOp != 139 {
		t.Errorf("bad first result: %+v", r)
	}
	if last := res[3]; last.AllocsPerOp != -1 || last.BytesPerOp != -1 {
		t.Errorf("absent metrics should stay -1: %+v", last)
	}
}

func TestParseTestJSON(t *testing.T) {
	// test2json splits result lines across Output events mid-field;
	// Parse must reassemble before matching.
	jsonStream := `{"Action":"run","Package":"repro/internal/fleet","Test":"BenchmarkFleetScale"}
{"Action":"output","Package":"repro/internal/fleet","Output":"BenchmarkFleetScale/hosts=128/workers=4-8         \t"}
{"Action":"output","Package":"repro/internal/fleet","Output":"      30\t   1615180 ns/op\t   21504 B/op\t     139 allocs/op\n"}
{"Action":"output","Package":"repro/internal/fleet","Output":"BenchmarkFleetScaleFluid/hosts=128/workers=4-8 \t      50\t    900000 ns/op\t    9000 B/op\t     174 allocs/op\n"}
{"Action":"pass","Package":"repro/internal/fleet"}
`
	res, err := Parse(strings.NewReader(jsonStream))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(res) != 2 {
		t.Fatalf("want 2 results, got %d: %+v", len(res), res)
	}
	if res[0].AllocsPerOp != 139 || res[1].Name != "BenchmarkFleetScaleFluid/hosts=128/workers=4" {
		t.Errorf("bad results: %+v", res)
	}
}

func TestMeans(t *testing.T) {
	res, err := Parse(strings.NewReader(rawBench))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	means := Means(res)
	if len(means) != 3 {
		t.Fatalf("want 3 mean rows, got %d", len(means))
	}
	m := means[0]
	if m.Name != "BenchmarkFleetScale/hosts=128/workers=4" {
		t.Fatalf("first-seen order broken: %q", m.Name)
	}
	if want := (1615180.0 + 1702331.0) / 2; m.NsPerOp != want {
		t.Errorf("ns/op mean = %v, want %v", m.NsPerOp, want)
	}
	if m.AllocsPerOp != 140 {
		t.Errorf("allocs/op mean = %v, want 140", m.AllocsPerOp)
	}
	if means[2].AllocsPerOp != -1 {
		t.Errorf("metric absent in all runs must stay -1: %+v", means[2])
	}
}

func TestFind(t *testing.T) {
	means := Means(mustParse(t, rawBench))
	r, err := Find(means, `BenchmarkFleetScale/hosts=128/workers=4`)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if r.AllocsPerOp != 140 {
		t.Errorf("wrong row: %+v", r)
	}
	if _, err := Find(means, `BenchmarkFleetScale/.*`); err == nil {
		t.Error("ambiguous pattern should error")
	}
	if _, err := Find(means, `BenchmarkNope`); err == nil {
		t.Error("unmatched pattern should error")
	}
	if _, err := Find(means, `(`); err == nil {
		t.Error("invalid regexp should error")
	}
}

// TestParseEdgeCases is the table of degenerate inputs: empty streams,
// mixed test2json/raw lines in one stream, malformed JSON falling back
// to text, and near-miss result lines that must not match.
func TestParseEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  int // parsed result count
		check func(t *testing.T, res []Result)
	}{
		{"empty input", "", 0, nil},
		{"whitespace only", "\n\n   \n", 0, nil},
		{"no benchmark lines", "goos: linux\nPASS\nok  \trepro\t0.1s\n", 0, nil},
		{
			"mixed test2json and raw lines",
			`BenchmarkRaw-8 	 100	 50.5 ns/op
{"Action":"output","Output":"BenchmarkFromJSON-8 \t 200\t 75 ns/op\n"}
BenchmarkRawAfter-8 	 300	 25 ns/op
`,
			3,
			func(t *testing.T, res []Result) {
				// Raw lines and JSON Output payloads reassemble into one
				// stream-ordered text, so results keep stream order.
				if res[0].Name != "BenchmarkRaw" || res[1].Name != "BenchmarkFromJSON" || res[2].Name != "BenchmarkRawAfter" {
					t.Errorf("unexpected order: %+v", res)
				}
			},
		},
		{
			"malformed JSON line falls back to text",
			`{"Action":"output","Output": not-valid-json
BenchmarkOK-8 	 10	 5 ns/op
`,
			1,
			func(t *testing.T, res []Result) {
				if res[0].Name != "BenchmarkOK" || res[0].NsPerOp != 5 {
					t.Errorf("bad result: %+v", res[0])
				}
			},
		},
		{
			"non-output JSON events contribute nothing",
			`{"Action":"run","Test":"BenchmarkX"}
{"Action":"output","Output":"BenchmarkX-8 \t 10\t 5 ns/op\n"}
{"Action":"pass","Test":"BenchmarkX"}
`,
			1, nil,
		},
		{
			"duplicate benchmark names stay separate",
			`BenchmarkDup-8 	 10	 100 ns/op
BenchmarkDup-8 	 10	 300 ns/op
BenchmarkDup-8 	 10	 200 ns/op
`,
			3,
			func(t *testing.T, res []Result) {
				means := Means(res)
				if len(means) != 1 {
					t.Fatalf("Means over duplicates: want 1 row, got %d", len(means))
				}
				if means[0].NsPerOp != 200 {
					t.Errorf("duplicate-name mean = %v, want 200", means[0].NsPerOp)
				}
			},
		},
		{
			"custom metrics between ns/op and B/op are skipped",
			"BenchmarkFluid-8 \t 20\t 676313 ns/op\t 85.00 fluid-insts\t 36983 B/op\t 94 allocs/op\n",
			1,
			func(t *testing.T, res []Result) {
				if r := res[0]; r.NsPerOp != 676313 || r.BytesPerOp != 36983 || r.AllocsPerOp != 94 {
					t.Errorf("bad result: %+v", r)
				}
			},
		},
		{
			"result line without iteration count does not match",
			"BenchmarkBroken-8 \t ns/op\nBenchmarkAlso 12.5 ns/op\n",
			0, nil,
		},
		{"means of empty parse", "", 0, func(t *testing.T, res []Result) {
			if got := Means(res); len(got) != 0 {
				t.Errorf("Means(nil) = %+v, want empty", got)
			}
			if _, err := Find(Means(res), "BenchmarkX"); err == nil {
				t.Error("Find over empty means should error")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustParse(t, tc.input)
			if len(res) != tc.want {
				t.Fatalf("want %d results, got %d: %+v", tc.want, len(res), res)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

func mustParse(t *testing.T, s string) []Result {
	t.Helper()
	res, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return res
}
