package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/spec"
)

// TestSpecDecodingIsStrict holds the -scenario and -faults loaders to
// strict JSON decoding: a retired or misspelled key is an error naming
// the key instead of a silently ignored setting, and the committed
// example specs still decode. The validation rows both consumers share
// are internal/spec's TestRejects.
func TestSpecDecodingIsStrict(t *testing.T) {
	decode := map[string]func(path string) error{
		"scenario": func(path string) error {
			_, err := flagSpec(options{mode: "scenario", scenarioPath: path})
			return err
		},
		"faults": func(path string) error {
			_, err := spec.ReadFaults(path)
			return err
		},
	}
	for _, tc := range []struct {
		name, kind string
		spec       string // inline JSON, written to a temp file
		path       string // or a committed example
		wantErr    string // "" = must decode
	}{
		{name: "retired epochDispatch", kind: "scenario",
			spec: `{"epochDispatch": true, "groups": [{"name": "web"}]}`, wantErr: `unknown field "epochDispatch"`},
		{name: "typo machine", kind: "scenario",
			spec: `{"machine": 4, "groups": [{"name": "web"}]}`, wantErr: `unknown field "machine"`},
		{name: "typo crashRates", kind: "faults",
			spec: `{"crashRates": 0.1}`, wantErr: `unknown field "crashRates"`},
		{name: "fluid1024 example", kind: "scenario", path: "../../examples/scenario/fluid1024.json"},
		{name: "fig7 example", kind: "scenario", path: "../../examples/scenario/fig7.json"},
		{name: "chaos schedule example", kind: "faults", path: "../../examples/chaos/faults.json"},
		{name: "chaos seeded example", kind: "faults", path: "../../examples/chaos/seeded.json"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = filepath.Join(t.TempDir(), "spec.json")
				if err := os.WriteFile(path, []byte(tc.spec), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := decode[tc.kind](path)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want %s to decode, got %v", path, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("want an error containing %s, got %v", tc.wantErr, err)
			}
		})
	}
}

// mixJSON is the heterogeneous scenario of the README and CI's docs job.
const mixJSON = `{
  "machines": 2, "cores": 2, "budget": 400, "rounds": 12,
  "groups": [
    {"name": "fast", "baseCost": 3e6, "instances": 2, "load": "constant", "rate": 4, "reqIters": 10, "pressure": 0.3},
    {"name": "slow", "instances": 2, "load": "spike", "rate": 3, "reqIters": 10, "pressure": 0.1, "sloP95": 1.5}
  ]
}`

// flagsSpec parses a command line the way main does, with MIX standing
// for a file holding mixJSON, and returns the spec its flags describe.
func flagsSpec(t *testing.T, args string) (*spec.Spec, error) {
	t.Helper()
	mix := filepath.Join(t.TempDir(), "mix.json")
	if err := os.WriteFile(mix, []byte(mixJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags(flag.NewFlagSet("fleet", flag.ContinueOnError), strings.Fields(strings.ReplaceAll(args, "MIX", mix)))
	if err != nil {
		return nil, err
	}
	return flagSpec(o)
}

// TestFlagsPassSpecGuardRails holds every flag-driven mode to the
// guard rails of a -scenario file: flagSpec, which builds nothing,
// rejects each bad value with the spec's own message, and accepts the
// command lines the README and CI run. An over-range -workers value
// never reaches fleet.NewScenario. A flag its mode does not read is an
// error naming the flag and the mode.
func TestFlagsPassSpecGuardRails(t *testing.T) {
	for _, tc := range []struct {
		args, wantErr string // wantErr "" = must validate
	}{
		{"-load constant -rate -5 -rounds 1", "rate -5 outside [0, 100000]"},
		{"-req-iters -3", "reqIters -3 outside [0, 1e6]"},
		{"-cores 0", "cores 0 outside [1, 64]"},
		{"-workers -3", "workers -3 outside [0, 256]"},
		{"-load warp", `unknown load "warp"`},
		{"-replay replay.csv -rate -1", "rate -1 outside"},
		{"-serve none -req-iters -2", "reqIters -2 outside"},
		{"-scenario MIX -fluid -2", "fluid -2 < 0"},
		{"-scenario MIX -workers 300", "workers 300 outside [0, 256]"},
		{"-replay replay.csv -scale-min 0", "-scale-min 0, or -instances"},
		{"-serve none -load warp", "flag -load is not read by -serve"},
		{"-serve none -faults x.json", "flag -faults is not read by -serve"},
		{"-serve none -trace t.csv", "flag -trace is not read by -serve"},
		{"-scenario MIX -app swaptions", "flag -app is not read by -scenario"},
		{"-replay replay.csv -load spike", "flag -load is not read by -replay"},
		{"-sweep grid.json -machines 4", "flag -machines is not read by -sweep"},
		{"-seed 3 -twin", "flag -twin is not read by the plain run"},
		{"-rounds 10 -drop-at 5 -drop-frac 0.5", "give it a non-zero -drop-to"},
		{"-drop-to 0 -drop-at 5", "give it a non-zero -drop-to"},
		{"-scenario MIX -drop-frac 0.5", "give it a non-zero -drop-to"},
		{"-serve none -duration 1s -scale-min 3 -scale-max 2", "-serve reads them only with -twin"},
		{"-serve none -scale-max 2", "-serve reads them only with -twin"},
		{"-serve none -twin -scale-min 3 -scale-max 2", "-scale-min 3 exceeds -scale-max 2"},
		{"-replay replay.csv -scale-min 3 -scale-max 2", "-scale-min 3 exceeds -scale-max 2"},
		{"-replay replay.csv -scale-min 5", "-scale-min 5 exceeds -scale-max 4, the default"},
		{"-replay replay.csv -scale-min 2 -scale-max 2", ""},
		{"-serve none -twin -scale-max 3", ""},
		{"-scenario MIX -faults ../../examples/chaos/seeded.json -resilience r.csv", ""},
		{"-resilience r.csv", "-resilience r.csv: the run has no faults"},

		{"-rounds 10", ""},
		{"-machines 128 -cores 1 -instances 128 -rounds 10 -budget 24320 -workers 4", ""},
		{"-scenario ../../examples/scenario/fluid1024.json -trace fluid-trace.csv", ""},
		{"-scenario MIX", ""},
		{"-serve 127.0.0.1:8080 -duration 12s", ""},
		{"-replay replay.csv -rounds 90 -rate 10", ""},
		{"-replay replay.csv -plot replay.svg -rounds 30 -rate 10", ""},
		{"-replay replay.csv -rounds 24 -rate 10 -machines 4 -cores 1 -instances 4 -faults ../../examples/chaos/faults.json -resilience resilience.csv", ""},
		{"-rounds 20 -machines 4 -cores 1 -instances 4 -faults ../../examples/chaos/seeded.json", ""},
		{"-serve none -duration 10s -swarm 12 -twin -drop-to 100 -drop-at 4 -latency-hist latency-hist.csv", ""},
	} {
		t.Run(tc.args, func(t *testing.T) {
			_, err := flagsSpec(t, tc.args)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want the flags to validate, got %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("want an error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestFlagModesResolve pins each flag mode's one group: the plain run
// and -replay run "default" under the uniform-share model (-replay with
// no load of its own), -serve runs "web" under the pressure model with
// no load of its own, and every mode keeps -budget.
func TestFlagModesResolve(t *testing.T) {
	for _, tc := range []struct {
		args      string
		group     string
		instances int
		uniform   bool
		load      bool
	}{
		{"-budget 350", "default", 8, true, true},
		{"-budget 350 -replay replay.csv", "default", 1, true, false},
		{"-budget 350 -serve none", "web", 8, false, false},
	} {
		t.Run(tc.args, func(t *testing.T) {
			s, err := flagsSpec(t, tc.args)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := s.Scenario(resolveGroup, func(int) int64 { return 0 }, false)
			if err != nil {
				t.Fatal(err)
			}
			g := sc.Groups[0]
			_, uniform := sc.Interference.(fleet.UniformShare)
			switch {
			case len(sc.Groups) != 1 || g.Name != tc.group || g.Instances != tc.instances:
				t.Errorf("groups %d, first %q of %d instances; want one %q of %d", len(sc.Groups), g.Name, g.Instances, tc.group, tc.instances)
			case uniform != tc.uniform || (!uniform && sc.Interference != nil):
				t.Errorf("interference %#v, want uniform share %v (else the pressure default)", sc.Interference, tc.uniform)
			case (g.Load != nil) != tc.load:
				t.Errorf("group load %v, want one: %v", g.Load, tc.load)
			case sc.Budget != 350 || sc.Quantum != 0:
				t.Errorf("budget %v, quantum %v; want 350 W and the 1 s default", sc.Budget, sc.Quantum)
			}
		})
	}
}

// TestDropFlagsLandAsCaps pins where -drop-to/-drop-at/-drop-frac land:
// one caps entry, appended after a -scenario file's own, whose instant
// is exactly the one the flags scheduled before they became a spec
// field, R quanta plus F of a quantum, for the (R, F) pairs the README,
// CI and these tests run. A scenario without -drop-* keeps its own caps.
func TestDropFlagsLandAsCaps(t *testing.T) {
	for _, tc := range []struct {
		mode string
		r    int
		f    float64
	}{
		{"", 20, 0.5},
		{"", 4, 0},
		{"-replay replay.csv", 2, 0},
		{"-serve none", 4, 0},
		{"-scenario MIX", 2, 0},
	} {
		args := fmt.Sprintf("%s -drop-to 100 -drop-at %d -drop-frac %v", tc.mode, tc.r, tc.f)
		s, err := flagsSpec(t, args)
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		want := time.Unix(0, 0).Add(time.Duration(tc.r) * quantum).Add(time.Duration(tc.f * float64(quantum)))
		if len(s.Caps) != 1 || s.Caps[0].Watts != 100 || !spec.At(s.Caps[0].AtS).Equal(want) {
			t.Errorf("%s: caps %+v, want one 100 W cap at %v", args, s.Caps, want.Sub(time.Unix(0, 0)))
		}
	}
	for args, want := range map[string][]spec.Cap{
		"-scenario MIX": nil,
		"-scenario ../../examples/scenario/fig7.json -drop-to 100 -drop-at 2": {{AtS: 10, Watts: 170}, {AtS: 30}, {AtS: 2, Watts: 100}},
	} {
		s, err := flagsSpec(t, args)
		if err != nil {
			t.Fatalf("%s: %v", args, err)
		}
		if !slices.Equal(s.Caps, want) {
			t.Errorf("%s: caps %+v, want the file's, then the flags' %+v", args, s.Caps, want)
		}
	}
}
