package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// compareGolden checks got against the named golden file, rewriting it
// under -update. Goldens pin the CSV schema byte for byte — a diff here
// is a schema change, which docs/SWEEP_FORMAT.md must document.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -run %s -update): %v", path, t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden; if the schema change is intentional, update docs/SWEEP_FORMAT.md and run go test -update.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// testGridJSON is a small two-axis grid exercising axis application,
// a mid-quantum cap step, and group-scoped axes.
const testGridJSON = `{
  "name": "test-grid",
  "baseSeed": 42,
  "replications": 3,
  "rounds": 12,
  "warmup": 3,
  "base": {
    "machines": 2,
    "cores": 2,
    "budget": 400,
    "caps": [{"atS": 6.5, "watts": 340}],
    "groups": [
      {"name": "web", "baseCost": 3000000, "instances": 2, "rate": 3, "reqIters": 20},
      {"name": "batch", "baseCost": 6000000, "instances": 2, "rate": 1, "reqIters": 20}
    ]
  },
  "axes": [
    {"param": "arbiterIntervalMs", "values": [1000, 250]},
    {"param": "web.rate", "values": [2, 4]}
  ]
}`

func testGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := ParseGrid([]byte(testGridJSON))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSweepDeterministicAcrossProcs pins the byte-determinism contract:
// the same grid and base seed produce an identical CSV whether the pool
// runs one worker or eight (run under -race, this also holds the pool's
// data-race cleanliness).
func TestSweepDeterministicAcrossProcs(t *testing.T) {
	g1 := testGrid(t)
	r1, err := Run(g1, Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	g8 := testGrid(t)
	r8, err := Run(g8, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	var b1, b8 bytes.Buffer
	if err := WriteCSV(&b1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b8, r8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Errorf("sweep CSV differs between -procs 1 and -procs 8:\nprocs 1:\n%s\nprocs 8:\n%s", b1.String(), b8.String())
	}
	if b1.Len() == 0 {
		t.Error("sweep CSV is empty")
	}
}

// TestSweepGolden pins the CSV schema and the aggregated values byte
// for byte (the engine is deterministic, so values golden cleanly), and
// the -hdr schema line with them.
func TestSweepGolden(t *testing.T) {
	g := testGrid(t)
	res, err := Run(g, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "sweep.csv", buf.Bytes())
	compareGolden(t, "sweep_hdr.txt", []byte(Header(g)+"\n"))
}

// TestSweepSVG smoke-checks the trend figure: well-formed SVG with one
// panel per headline metric plus the labeled bar panel.
func TestSweepSVG(t *testing.T) {
	g := testGrid(t)
	res, err := Run(g, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSVG(&buf, res); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatalf("not an SVG document:\n%.200s", svg)
	}
	for _, want := range []string{"Mean sojourn vs cell", "Knob churn vs cell", "Mean sojourn by cell", "arbiterIntervalMs=250"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

// TestDeriveSeed pins the seed-derivation function: documented values
// (docs/SWEEP_FORMAT.md), sensitivity to every input, and the
// no-zero/no-negative contract.
func TestDeriveSeed(t *testing.T) {
	// Frozen values — changing DeriveSeed changes every sweep's bytes,
	// so it must be deliberate.
	if got := DeriveSeed(1, 0, 0); got != 8112600223918159332 {
		t.Errorf("DeriveSeed(1,0,0) = %d, want 8112600223918159332", got)
	}
	seen := map[int64]bool{}
	for cell := 0; cell < 8; cell++ {
		for rep := 0; rep < 64; rep++ {
			s := DeriveSeed(7, cell, rep)
			if s <= 0 {
				t.Fatalf("DeriveSeed(7,%d,%d) = %d, not positive", cell, rep, s)
			}
			if seen[s] {
				t.Fatalf("DeriveSeed(7,%d,%d) = %d collides", cell, rep, s)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(2, 2, 3) {
		t.Error("base seed does not influence the derived seed")
	}
}

// TestCellEnumeration pins the canonical cell order: the last axis
// varies fastest, labels match coordinates.
func TestCellEnumeration(t *testing.T) {
	g := testGrid(t)
	if got := g.CellCount(); got != 4 {
		t.Fatalf("CellCount = %d, want 4", got)
	}
	wantLabels := []string{
		"arbiterIntervalMs=1000,web.rate=2",
		"arbiterIntervalMs=1000,web.rate=4",
		"arbiterIntervalMs=250,web.rate=2",
		"arbiterIntervalMs=250,web.rate=4",
	}
	for i, want := range wantLabels {
		if got := g.CellLabel(i); got != want {
			t.Errorf("CellLabel(%d) = %q, want %q", i, got, want)
		}
	}
	cell, vals, err := g.CellAt(2)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 250 || vals[1] != 2 {
		t.Errorf("CellAt(2) coords = %v, want [250 2]", vals)
	}
	if cell.ArbiterIntervalMs != 250 || cell.Groups[0].Rate != 2 {
		t.Errorf("CellAt(2) cell = %+v", cell)
	}
	if g.Base.Groups[0].Rate != 3 {
		t.Errorf("axis application mutated the base cell: %+v", g.Base.Groups[0])
	}
}

// TestParseGridRejects is the validation table: every malformed spec
// errors with a message naming the problem, never panics.
func TestParseGridRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"empty", ``, "grid spec"},
		{"not json", `nope`, "grid spec"},
		{"trailing data", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}} extra`, "trailing"},
		{"unknown field", `{"rounds": 5, "bogus": 1, "base": {"groups": [{"name": "a", "instances": 1}]}}`, "bogus"},
		{"no rounds", `{"base": {"groups": [{"name": "a", "instances": 1}]}}`, "rounds"},
		{"warmup past rounds", `{"rounds": 5, "warmup": 5, "base": {"groups": [{"name": "a", "instances": 1}]}}`, "warmup"},
		{"no groups", `{"rounds": 5, "base": {}}`, "no groups"},
		{"unnamed group", `{"rounds": 5, "base": {"groups": [{"instances": 1}]}}`, "no name"},
		{"duplicate group", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}, {"name": "a", "instances": 1}]}}`, "duplicate group"},
		{"no instances no scaler", `{"rounds": 5, "base": {"groups": [{"name": "a"}]}}`, "no instances"},
		{"bad load", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1, "load": "warp"}]}}`, "unknown load"},
		{"bad interference", `{"rounds": 5, "base": {"interference": "psychic", "groups": [{"name": "a", "instances": 1}]}}`, "interference"},
		{"axis no values", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "workers"}]}`, "no values"},
		{"duplicate axis", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "workers", "values": [1]}, {"param": "workers", "values": [2]}]}`, "duplicate axis"},
		{"unknown axis", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "wat", "values": [1]}]}`, "unknown axis"},
		{"unknown axis group", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "b.rate", "values": [1]}]}`, "unknown group"},
		{"fractional int axis", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "workers", "values": [1.5]}]}`, "not an integer"},
		{"axis breaks cell", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "machines", "values": [-1]}]}`, "machines"},
		{"too many cells", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [
			{"param": "machines", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]},
			{"param": "cores", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]},
			{"param": "workers", "values": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]},
			{"param": "fluid", "values": [0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]}]}`, "cells"},
		{"nan axis", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "rateScale", "values": [1e999]}]}`, "grid spec"},
		{"huge replications", `{"rounds": 5, "replications": 99999999, "base": {"groups": [{"name": "a", "instances": 1}]}}`, "replications"},
		{"huge rate", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1, "rate": 1e9}]}}`, "rate"},
		{"tiny baseCost", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1, "baseCost": 10}]}}`, "baseCost"},
		{"negative cap atS", `{"rounds": 5, "base": {"caps": [{"atS": -0.5, "watts": 300}], "groups": [{"name": "a", "instances": 1}]}}`, "caps[0] atS"},
		{"cap axis without caps", `{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "capWatts", "values": [300]}]}`, "needs a caps entry"},
		{"capAtS axis past bound", `{"rounds": 5, "base": {"caps": [{"atS": 2.5, "watts": 300}], "groups": [{"name": "a", "instances": 1}]}, "axes": [{"param": "capAtS", "values": [1, 2e6]}]}`, "caps[0] atS 2e+06"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid([]byte(tc.json))
			if err == nil {
				t.Fatalf("ParseGrid accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseGridDefaults pins the spec defaults: seed 1, one
// replication, 2x2 cluster.
func TestParseGridDefaults(t *testing.T) {
	g, err := ParseGrid([]byte(`{"rounds": 5, "base": {"groups": [{"name": "a", "instances": 1}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.BaseSeed != 1 || g.Replications != 1 {
		t.Errorf("defaults: baseSeed %d replications %d, want 1 1", g.BaseSeed, g.Replications)
	}
	if g.CellCount() != 1 || g.CellLabel(0) != "base" {
		t.Errorf("axis-free grid: count %d label %q", g.CellCount(), g.CellLabel(0))
	}
	cell, _, err := g.CellAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.validate(); err != nil {
		t.Fatal(err)
	}
	if cell.Machines != 2 || cell.Cores != 2 {
		t.Errorf("cell defaults: %d machines %d cores, want 2 2", cell.Machines, cell.Cores)
	}
}

// TestExec drives the shared CLI surface end to end: grid file in, CSV
// + SVG files out, -hdr short-circuit, and error paths for a missing or
// malformed grid.
func TestExec(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(testGridJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "out.csv")
	svgPath := filepath.Join(dir, "out.svg")
	var log bytes.Buffer
	err := Exec(ExecConfig{GridPath: gridPath, Procs: 2, OutPath: csvPath, PlotPath: svgPath, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	if !bytes.HasPrefix(csv, []byte(Header(g)+"\n")) {
		t.Errorf("CSV does not start with the schema header:\n%.120s", csv)
	}
	if svg, err := os.ReadFile(svgPath); err != nil || !bytes.Contains(svg, []byte("</svg>")) {
		t.Errorf("SVG output missing or truncated: %v", err)
	}
	if !strings.Contains(log.String(), "replications") {
		t.Errorf("no progress logged: %q", log.String())
	}

	hdrPath := filepath.Join(dir, "hdr.csv")
	if err := Exec(ExecConfig{GridPath: gridPath, Hdr: true, OutPath: hdrPath}); err != nil {
		t.Fatal(err)
	}
	if hdr, err := os.ReadFile(hdrPath); err != nil || string(hdr) != Header(g)+"\n" {
		t.Errorf("-hdr output = %q (%v), want the schema line", hdr, err)
	}

	if err := Exec(ExecConfig{GridPath: filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing grid file should error")
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"rounds": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Exec(ExecConfig{GridPath: badPath}); err == nil {
		t.Error("malformed grid should error")
	}
}

// TestSweepConservation holds the request-conservation invariant over a
// real run: every minted arrival is completed, aborted, dropped, or
// still queued at the horizon.
func TestSweepConservation(t *testing.T) {
	g := testGrid(t)
	res, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ci, reps := range res.Stats {
		for ri := range reps {
			st := &reps[ri]
			if st.Arrivals == 0 {
				t.Fatalf("cell %d rep %d minted no arrivals", ci, ri)
			}
			if got := st.Completions + st.Aborted + st.Dropped + st.QueueDepth; got != st.Arrivals {
				t.Errorf("cell %d rep %d: completions %d + aborted %d + dropped %d + queue %d = %d, want arrivals %d",
					ci, ri, st.Completions, st.Aborted, st.Dropped, st.QueueDepth, got, st.Arrivals)
			}
		}
	}
}
