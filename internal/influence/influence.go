// Package influence implements dynamic influence tracing (Sec. 2.1 of the
// PowerDial paper): as an instrumented application executes, the tracer
// follows how configuration parameters influence the values the
// application computes, locates the control variables derived from the
// specified parameters, and applies the paper's validity conditions:
//
//   - Complete and Pure: every variable whose pre-first-heartbeat value is
//     influenced by the specified parameters is found, and those values are
//     influenced only by the specified parameters.
//   - Relevant: variables never read after the first heartbeat are
//     filtered out (they do not matter to the main control loop).
//   - Constant: variables written after the first heartbeat cause
//     rejection.
//   - Consistent: every combination of parameter settings must produce the
//     same set of control variables (checked across traces).
//
// The paper builds this as an LLVM source instrumentor for C/C++; here the
// same dynamic analysis is provided as a library against which application
// initialization code is written, since the applications here are Go, not
// C/C++. Tagged
// values (Val) propagate influence sets through arithmetic; Store/Load
// record variable accesses together with their statement sites; the first
// heartbeat splits the trace exactly as in the paper.
package influence

import (
	"fmt"
	"math"
	"sort"
)

// Set is a set of influencing parameters, represented as a bitmask over
// the parameters registered with a Tracer. The zero Set means "influenced
// by no parameter" (a constant).
type Set uint64

// maxParams is the capacity of the bitmask representation.
const maxParams = 64

// Union returns the union of two influence sets.
func (s Set) Union(o Set) Set { return s | o }

// Contains reports whether the set includes parameter bit i.
func (s Set) Contains(i int) bool { return s&(1<<uint(i)) != 0 }

// Empty reports whether no parameter influences the value.
func (s Set) Empty() bool { return s == 0 }

// Val is a tagged value: a number together with the set of configuration
// parameters that influenced it. All arithmetic on Vals unions the
// influence sets, mirroring the instrumentor's dataflow rule.
type Val struct {
	F   float64
	Set Set
}

// Const returns an untainted value.
func Const(x float64) Val { return Val{F: x} }

// ConstInt returns an untainted integer value.
func ConstInt(x int64) Val { return Val{F: float64(x)} }

// Int returns the value rounded to the nearest integer.
func (v Val) Int() int64 { return int64(math.Round(v.F)) }

// Binary operations: value semantics of float64 plus influence union.

// Add returns a+b.
func Add(a, b Val) Val { return Val{F: a.F + b.F, Set: a.Set.Union(b.Set)} }

// Sub returns a-b.
func Sub(a, b Val) Val { return Val{F: a.F - b.F, Set: a.Set.Union(b.Set)} }

// Mul returns a*b.
func Mul(a, b Val) Val { return Val{F: a.F * b.F, Set: a.Set.Union(b.Set)} }

// Div returns a/b.
func Div(a, b Val) Val { return Val{F: a.F / b.F, Set: a.Set.Union(b.Set)} }

// Min returns the smaller value with both influences.
func Min(a, b Val) Val { return Val{F: math.Min(a.F, b.F), Set: a.Set.Union(b.Set)} }

// Max returns the larger value with both influences.
func Max(a, b Val) Val { return Val{F: math.Max(a.F, b.F), Set: a.Set.Union(b.Set)} }

// Apply returns f(a) preserving a's influence (unary dataflow).
func Apply(a Val, f func(float64) float64) Val { return Val{F: f(a.F), Set: a.Set} }

// varState is the per-variable trace record.
type varState struct {
	name         string
	influences   Set
	value        []float64 // last value stored before the first heartbeat
	writesBefore int
	writesAfter  int
	readsAfter   int
	sites        map[string]bool
	warnings     []string
}

// Tracer observes one instrumented execution of the application's
// initialization and main loop for a single combination of parameter
// settings.
type Tracer struct {
	specified map[string]int // parameter name -> bit index
	external  map[string]int // non-specified parameter sources
	order     []string       // specified parameter names in bit order
	allOrder  []string       // all sources in bit order
	nextBit   int
	beaten    bool
	vars      map[string]*varState
}

// NewTracer returns a tracer for one instrumented run.
func NewTracer() *Tracer {
	return &Tracer{
		specified: make(map[string]int),
		external:  make(map[string]int),
		vars:      make(map[string]*varState),
	}
}

// Param registers (if needed) the named *specified* configuration
// parameter — one the user asked PowerDial to transform — and returns its
// tagged value.
func (t *Tracer) Param(name string, value float64) Val {
	bit, ok := t.specified[name]
	if !ok {
		bit = t.allocBit(name)
		t.specified[name] = bit
	}
	return Val{F: value, Set: 1 << uint(bit)}
}

// Extern registers (if needed) a configuration parameter that is *not*
// among the specified set and returns its tagged value. Variables
// influenced by an Extern source fail the purity check.
func (t *Tracer) Extern(name string, value float64) Val {
	bit, ok := t.external[name]
	if !ok {
		bit = t.allocBit(name)
		t.external[name] = bit
	}
	return Val{F: value, Set: 1 << uint(bit)}
}

func (t *Tracer) allocBit(name string) int {
	if t.nextBit >= maxParams {
		panic(fmt.Sprintf("influence: more than %d parameter sources (adding %q)", maxParams, name))
	}
	bit := t.nextBit
	t.nextBit++
	t.allOrder = append(t.allOrder, name)
	if _, dup := t.specified[name]; dup {
		panic(fmt.Sprintf("influence: source %q already registered as specified", name))
	}
	if _, dup := t.external[name]; dup {
		panic(fmt.Sprintf("influence: source %q already registered as external", name))
	}
	return bit
}

// FirstHeartbeat marks the boundary between application startup and the
// main control loop. Calling it more than once is harmless; only the
// first call sets the boundary.
func (t *Tracer) FirstHeartbeat() { t.beaten = true }

// Beaten reports whether the first heartbeat has been emitted.
func (t *Tracer) Beaten() bool { return t.beaten }

func (t *Tracer) state(name string) *varState {
	vs, ok := t.vars[name]
	if !ok {
		vs = &varState{name: name, sites: make(map[string]bool)}
		t.vars[name] = vs
	}
	return vs
}

// Store records a write of a scalar tagged value to the named variable at
// the given statement site.
func (t *Tracer) Store(varName, site string, v Val) {
	t.StoreVec(varName, site, []Val{v})
}

// StoreVec records a write of a vector of tagged values (the instrumentor
// supports STL-vector control variables).
func (t *Tracer) StoreVec(varName, site string, vs []Val) {
	st := t.state(varName)
	st.sites[site] = true
	var set Set
	vals := make([]float64, len(vs))
	for i, v := range vs {
		set = set.Union(v.Set)
		vals[i] = v.F
	}
	if t.beaten {
		st.writesAfter++
		return
	}
	st.writesBefore++
	st.influences = st.influences.Union(set)
	st.value = vals
}

// Load records a read of the named variable at the given statement site
// and returns its last stored scalar value tagged with its influences.
func (t *Tracer) Load(varName, site string) Val {
	st := t.state(varName)
	st.sites[site] = true
	if t.beaten {
		st.readsAfter++
	}
	var f float64
	if len(st.value) > 0 {
		f = st.value[0]
	}
	return Val{F: f, Set: st.influences}
}

// FlagImprecision records that the trace of the named variable passed
// through a construct the influence analysis cannot follow — indirect
// control flow or array-index influence ("The influence analysis also
// does not trace indirect control-flow or array index influence",
// Sec. 2.1). Flagged variables remain control-variable candidates but
// appear with a warning in the report, so a developer can check that the
// imprecision does not affect their validity (the paper's authors did
// exactly that for all four benchmarks).
func (t *Tracer) FlagImprecision(varName, site, construct string) {
	st := t.state(varName)
	st.sites[site] = true
	st.warnings = append(st.warnings, fmt.Sprintf("%s at %s", construct, site))
}

// LoadVec is Load for vector variables.
func (t *Tracer) LoadVec(varName, site string) []Val {
	st := t.state(varName)
	st.sites[site] = true
	if t.beaten {
		st.readsAfter++
	}
	out := make([]Val, len(st.value))
	for i, f := range st.value {
		out[i] = Val{F: f, Set: st.influences}
	}
	return out
}

// specifiedMask returns the bitmask covering all specified parameters.
func (t *Tracer) specifiedMask() Set {
	var m Set
	for _, bit := range t.specified {
		m |= 1 << uint(bit)
	}
	return m
}

// paramNames converts an influence set to sorted source names.
func (t *Tracer) paramNames(s Set) []string {
	var names []string
	for i, name := range t.allOrder {
		if s.Contains(i) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
