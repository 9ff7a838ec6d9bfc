package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
			_, err := spec.ReadScenario(path)
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
