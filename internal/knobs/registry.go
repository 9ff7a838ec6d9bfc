package knobs

import (
	"fmt"
	"sort"
	"sync"
)

// Value is the recorded content of one control variable for one knob
// setting. Scalars (int, long, float, double in the paper's instrumentor)
// are length-1 vectors; STL-vector-like variables are longer.
type Value []float64

// Clone returns a copy of the value.
func (v Value) Clone() Value {
	c := make(Value, len(v))
	copy(c, v)
	return c
}

// Registry is the dynamic-knob runtime state inside one application: the
// set of registered control variables (each with a callback that writes
// into the application's address space) and, per knob setting, the
// recorded values captured during dynamic knob identification. Apply moves
// the application to a different point in its trade-off space without
// interrupting it (Sec. 2.1: the instrumented application "register[s] the
// address of each control variable and read[s] in the previously recorded
// values corresponding to the different dynamic knob settings").
type Registry struct {
	mu       sync.Mutex
	names    []string
	writers  map[string]func(Value)
	recorded map[string]map[string]Value // setting key -> var name -> value
	scratch  []Value                     // per variable, the buffer Apply hands its writer
	key      []byte                      // Apply's setting-key buffer
	current  Setting
	applies  uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		writers:  make(map[string]func(Value)),
		recorded: make(map[string]map[string]Value),
	}
}

// RegisterVar registers a control variable by name with the callback that
// stores a value into the application. Registration order is preserved for
// deterministic application.
//
// Apply runs the writers one Apply at a time with the registry locked, so
// writers that stage several variables into shared application state see
// one setting's values together; a writer must not call back into the
// registry. The Value a writer receives is the registry's buffer, valid
// only until the writer returns: a writer that keeps it must copy it.
func (r *Registry) RegisterVar(name string, write func(Value)) error {
	if write == nil {
		return fmt.Errorf("knobs: nil writer for control variable %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.writers[name]; dup {
		return fmt.Errorf("knobs: control variable %q already registered", name)
	}
	r.writers[name] = write
	r.names = append(r.names, name)
	r.scratch = append(r.scratch, nil)
	return nil
}

// Record stores the values of all control variables observed for the
// given setting during an instrumented (identification) run. Every
// registered variable must be covered: the paper's consistency check
// requires all setting combinations to produce the same set of control
// variables.
func (r *Registry) Record(s Setting, vals map[string]Value) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(vals) != len(r.names) {
		return fmt.Errorf("knobs: setting %s records %d variables, registry has %d (inconsistent control variables)", s.Key(), len(vals), len(r.names))
	}
	stored := make(map[string]Value, len(vals))
	for _, n := range r.names {
		v, ok := vals[n]
		if !ok {
			return fmt.Errorf("knobs: setting %s missing value for control variable %q", s.Key(), n)
		}
		stored[n] = v.Clone()
	}
	r.recorded[s.Key()] = stored
	return nil
}

// Recorded returns the setting keys with recorded values, sorted.
func (r *Registry) Recorded() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.recorded))
	for k := range r.recorded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Apply writes the recorded values for the setting into the application
// through the registered callbacks, in registration order, and remembers
// the setting as current. Subsequent iterations of the application's main
// control loop read the updated control variables. A steady-state Apply
// allocates nothing: the key, the values handed to the writers and the
// current setting all reuse the registry's buffers.
func (r *Registry) Apply(s Setting) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.key = s.appendKey(r.key[:0])
	vals, ok := r.recorded[string(r.key)]
	if !ok {
		return fmt.Errorf("knobs: no recorded values for setting %s", s.Key())
	}
	for i, n := range r.names {
		r.scratch[i] = append(r.scratch[i][:0], vals[n]...)
		r.writers[n](r.scratch[i])
	}
	r.current = append(r.current[:0], s...)
	r.applies++
	return nil
}

// Current returns the most recently applied setting (nil before the first
// Apply).
func (r *Registry) Current() Setting {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.current == nil {
		return nil
	}
	return r.current.Clone()
}

// Applies returns how many times Apply has succeeded; useful for
// instrumentation-overhead accounting.
func (r *Registry) Applies() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applies
}
