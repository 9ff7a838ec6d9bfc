package spec_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/sweep"
)

// TestRejects is the one reject table for both consumers. Every row
// runs through cmd/fleet's reader (-scenario, or -faults for a faults
// row) and, as a grid's base cell (a faults row inline under "faults"),
// through sweep.ParseGrid. A row owned by one consumer must be rejected
// there, naming the field, and accepted by the other.
func TestRejects(t *testing.T) {
	const (
		both     = iota
		cliOnly  // rejected by -scenario / -faults only
		gridOnly // rejected by a grid only
	)
	const group = `"groups": [{"name": "a", "instances": 1}]`
	for _, tc := range []struct {
		name   string
		spec   string // a fleet spec, or
		faults string // a fault model
		by     int
		want   string
	}{
		{name: "no groups", spec: `{}`, want: "no groups"},
		{name: "unnamed group", spec: `{"groups": [{"instances": 1}]}`, want: "no name"},
		{name: "duplicate group", spec: `{"groups": [{"name": "a", "instances": 1}, {"name": "a", "instances": 1}]}`, want: "duplicate group"},
		{name: "no instances no scaler", spec: `{"groups": [{"name": "a"}]}`, want: "no instances"},
		{name: "zero instances no sloP95", spec: `{"groups": [{"name": "a", "instances": 0, "rate": 2}]}`, want: "no instances"},
		{name: "bad load", spec: `{"groups": [{"name": "a", "instances": 1, "load": "warp"}]}`, want: "unknown load"},
		{name: "bad interference", spec: `{"interference": "psychic", ` + group + `}`, want: "interference"},
		{name: "huge rate", spec: `{"groups": [{"name": "a", "instances": 1, "rate": 1e9}]}`, want: "rate"},
		{name: "negative rate", spec: `{"groups": [{"name": "a", "instances": 1, "rate": -5}]}`, want: "rate"},
		{name: "negative reqIters", spec: `{"groups": [{"name": "a", "instances": 1, "reqIters": -3}]}`, want: "reqIters"},
		{name: "tiny baseCost", spec: `{"groups": [{"name": "a", "instances": 1, "baseCost": 10}]}`, want: "baseCost"},
		{name: "huge machines", spec: `{"machines": 5000, ` + group + `}`, want: "machines"},
		{name: "retired epochDispatch", spec: `{"epochDispatch": true, ` + group + `}`, want: `unknown field "epochDispatch"`},
		{name: "huge crashRate", faults: `{"crashRate": 1000}`, want: "crashRate"},
		{name: "negative meanOutageS", faults: `{"crashRate": 0.1, "meanOutageS": -1}`, want: "meanOutageS"},
		{name: "typo crashRates", faults: `{"crashRates": 0.1}`, want: `unknown field "crashRates"`},
		{name: "grid app", spec: `{"groups": [{"name": "a", "instances": 1, "app": "x264"}]}`, by: gridOnly, want: `"app"`},
		{name: "grid scale", spec: `{"groups": [{"name": "a", "instances": 1, "scale": "medium"}]}`, by: gridOnly, want: `"scale"`},
		{name: "grid group seed", spec: `{"groups": [{"name": "a", "instances": 1, "seed": 3}]}`, by: gridOnly, want: `"seed"`},
		{name: "grid rounds", spec: `{"rounds": 5, ` + group + `}`, by: gridOnly, want: `"rounds"`},
		{name: "grid fault seed", faults: `{"crashRate": 0.1, "seed": 7}`, by: gridOnly, want: `"seed"`},
		{name: "grid fault schedule", faults: `{"schedule": [{"kind": "crash", "host": 0, "atS": 1, "durationS": 1}]}`, by: gridOnly, want: `"schedule"`},
		{name: "scenario arbiterIntervalMs", spec: `{"arbiterIntervalMs": 250, ` + group + `}`, by: cliOnly, want: `"arbiterIntervalMs"`},
		{name: "scenario inline faults", spec: `{"faults": {"crashRate": 0.1}, ` + group + `}`, by: cliOnly, want: `"faults"`},
		{name: "faults file injects nothing", faults: `{"redispatch": true}`, by: cliOnly, want: "every rate is zero"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spec.json")
			file, base := tc.spec, tc.spec
			read := func() error {
				s, err := spec.ReadScenario(path)
				if err == nil {
					err = s.Validate(spec.CLI)
				}
				return err
			}
			if tc.faults != "" {
				file, base = tc.faults, `{"faults": `+tc.faults+`, `+group+`}`
				read = func() error { _, err := spec.ReadFaults(path); return err }
			}
			if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, "cmd/fleet", read(), tc.by != gridOnly, tc.want)
			_, err := sweep.ParseGrid([]byte(`{"rounds": 5, "base": ` + base + `}`))
			check(t, "sweep grid", err, tc.by != cliOnly, tc.want)
		})
	}
}

func check(t *testing.T, consumer string, err error, reject bool, want string) {
	t.Helper()
	switch {
	case reject && err == nil:
		t.Errorf("%s accepted the spec, want an error mentioning %s", consumer, want)
	case reject && !strings.Contains(err.Error(), want):
		t.Errorf("%s: error %q does not mention %s", consumer, err, want)
	case !reject && err != nil:
		t.Errorf("%s rejected the spec: %v", consumer, err)
	}
}
