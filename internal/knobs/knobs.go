// Package knobs models dynamic knobs: configuration parameters with value
// ranges (Sec. 2, "Parameter Identification"), the enumeration of setting
// combinations swept during calibration (Sec. 2.2), and the runtime
// registry of control variables whose recorded values the PowerDial
// control system writes into the running application (Sec. 2.1, "Dynamic
// Knob Insertion").
package knobs

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec describes one configuration parameter being transformed into a
// dynamic knob: its name, the ordered list of values the user asked
// PowerDial to explore, and the default value (the setting that delivers
// the highest QoS — for the paper's benchmarks, the application default).
type Spec struct {
	Name    string
	Values  []int64
	Default int64
}

// Validate checks that the spec has values and that the default is one of
// them.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("knobs: spec with empty name")
	}
	if len(s.Values) == 0 {
		return fmt.Errorf("knobs: spec %q has no values", s.Name)
	}
	for _, v := range s.Values {
		if v == s.Default {
			return nil
		}
	}
	return fmt.Errorf("knobs: spec %q default %d not among its values", s.Name, s.Default)
}

// Range returns the inclusive arithmetic sequence lo, lo+step, ..., hi.
// It panics on a non-positive step or lo > hi; these are programmer errors
// in knob declarations.
func Range(lo, hi, step int64) []int64 {
	if step <= 0 || lo > hi {
		panic(fmt.Sprintf("knobs: invalid range [%d,%d] step %d", lo, hi, step))
	}
	vals := make([]int64, 0, (hi-lo)/step+1)
	for v := lo; v <= hi; v += step {
		vals = append(vals, v)
	}
	return vals
}

// Setting is one combination of knob values, positionally aligned with a
// []Spec.
type Setting []int64

// Key returns a canonical string form usable as a map key and in JSON.
func (s Setting) Key() string { return string(s.appendKey(nil)) }

// appendKey appends the Key form to b.
func (s Setting) appendKey(b []byte) []byte {
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return b
}

// ParseSetting inverts Setting.Key.
func ParseSetting(key string) (Setting, error) {
	if key == "" {
		return nil, fmt.Errorf("knobs: empty setting key")
	}
	parts := strings.Split(key, ",")
	s := make(Setting, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("knobs: bad setting key %q: %v", key, err)
		}
		s[i] = v
	}
	return s, nil
}

// Equal reports whether two settings have identical values.
func (s Setting) Equal(o Setting) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the setting.
func (s Setting) Clone() Setting {
	c := make(Setting, len(s))
	copy(c, s)
	return c
}

// String formats the setting with knob names when specs are provided via
// Describe; the raw form is the Key.
func (s Setting) String() string { return s.Key() }

// Describe renders the setting with its knob names, e.g.
// "subme=7 merange=16 ref=5".
func Describe(specs []Spec, s Setting) string {
	if len(specs) != len(s) {
		return s.Key()
	}
	parts := make([]string, len(s))
	for i := range s {
		parts[i] = fmt.Sprintf("%s=%d", specs[i].Name, s[i])
	}
	return strings.Join(parts, " ")
}

// Space is the cartesian space of settings induced by a list of knob
// specs.
type Space struct {
	Specs []Spec
}

// NewSpace validates the specs and returns the setting space.
func NewSpace(specs []Spec) (Space, error) {
	if len(specs) == 0 {
		return Space{}, fmt.Errorf("knobs: no specs")
	}
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return Space{}, err
		}
		if seen[sp.Name] {
			return Space{}, fmt.Errorf("knobs: duplicate knob name %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	return Space{Specs: specs}, nil
}

// Size returns the number of setting combinations.
func (sp Space) Size() int {
	n := 1
	for _, s := range sp.Specs {
		n *= len(s.Values)
	}
	return n
}

// Default returns the default setting (every knob at its default value).
func (sp Space) Default() Setting {
	d := make(Setting, len(sp.Specs))
	for i, s := range sp.Specs {
		d[i] = s.Default
	}
	return d
}

// All enumerates every combination of knob values in deterministic order
// (first knob varies slowest).
func (sp Space) All() []Setting {
	out := make([]Setting, 0, sp.Size())
	cur := make(Setting, len(sp.Specs))
	var rec func(i int)
	rec = func(i int) {
		if i == len(sp.Specs) {
			out = append(out, cur.Clone())
			return
		}
		for _, v := range sp.Specs[i].Values {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// Coarse enumerates a sub-lattice with at most maxPerKnob values per knob
// (always including each knob's first, last, and default values). It is
// used to keep large sweeps — x264's 560 combinations, bodytrack's 200 —
// tractable by default while preserving the full ranges; the full grid
// remains available through All.
func (sp Space) Coarse(maxPerKnob int) []Setting {
	if maxPerKnob < 2 {
		maxPerKnob = 2
	}
	sub := make([]Spec, len(sp.Specs))
	for i, s := range sp.Specs {
		sub[i] = Spec{Name: s.Name, Default: s.Default, Values: subsample(s.Values, s.Default, maxPerKnob)}
	}
	return Space{Specs: sub}.All()
}

// subsample picks up to max values from vals, evenly spaced, always
// retaining the first, last and def values, preserving order without
// duplicates.
func subsample(vals []int64, def int64, max int) []int64 {
	if len(vals) <= max {
		out := make([]int64, len(vals))
		copy(out, vals)
		return out
	}
	picked := make(map[int64]bool)
	var out []int64
	add := func(v int64) {
		if !picked[v] {
			picked[v] = true
			out = append(out, v)
		}
	}
	add(vals[0])
	step := float64(len(vals)-1) / float64(max-1)
	for i := 1; i < max-1; i++ {
		add(vals[int(float64(i)*step+0.5)])
	}
	add(vals[len(vals)-1])
	add(def)
	// Restore the original ordering.
	ordered := make([]int64, 0, len(out))
	for _, v := range vals {
		if picked[v] {
			ordered = append(ordered, v)
			picked[v] = false
		}
	}
	return ordered
}

// IndexOf returns the position of the named knob in the spec list, or -1.
func (sp Space) IndexOf(name string) int {
	for i, s := range sp.Specs {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// Contains reports whether the setting is a valid point in the space.
func (sp Space) Contains(s Setting) bool {
	if len(s) != len(sp.Specs) {
		return false
	}
	for i, spec := range sp.Specs {
		ok := false
		for _, v := range spec.Values {
			if v == s[i] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
