package fleet

import (
	"io"
	"sort"
	"time"

	"repro/internal/csvcol"
)

// TraceKind labels one entry of the fleet's event-time trace.
type TraceKind string

const (
	// TraceArrival is a request entering the fleet (Value unused).
	TraceArrival TraceKind = "arrival"
	// TraceComplete is a request served to completion (Value = latency
	// in seconds).
	TraceComplete TraceKind = "complete"
	// TraceCap is a cluster-budget change landing (Value = watts).
	TraceCap TraceKind = "cap"
	// TraceFault is a fault landing: a host crash (host-scoped, Value =
	// outage seconds, Group = rack label when correlated), a straggler
	// (instance-scoped, Value = slowdown factor), or a power-supply sag
	// (host -1, Value = sagged budget in watts). Throttles have their
	// own kind.
	TraceFault TraceKind = "fault"
	// TraceThrottle is a thermal-throttle landing (Value = the clamp
	// frequency in GHz, State = the clamp's DVFS state index).
	TraceThrottle TraceKind = "throttle"
	// TraceRecover is a fault recovery, scoped like its landing (Value
	// unused).
	TraceRecover TraceKind = "recover"
	// TraceArbiter is an arbiter tick (Value = budget in watts).
	TraceArbiter TraceKind = "arbiter"
	// TraceState is a host DVFS state transition (Value = GHz).
	TraceState TraceKind = "state"
	// TraceStart is an instance joining the fleet (its placement event
	// landing, for StartAt).
	TraceStart TraceKind = "start"
	// TraceDrain is a drain landing: the instance stops accepting work
	// and will retire once idle (Value unused).
	TraceDrain TraceKind = "drain"
	// TraceRetire is an instance leaving the fleet.
	TraceRetire TraceKind = "retire"
	// TraceMigrate is an instance moving between machines.
	TraceMigrate TraceKind = "migrate"
	// TraceScale is an autoscaler decision (Value = desired accepting-
	// instance count).
	TraceScale TraceKind = "scale"
	// TraceRound closes a reporting quantum (Value = cluster watts).
	TraceRound TraceKind = "round"
	// TraceFluid is an instance entering (State = 1) or leaving
	// (State = 0) the fluid timeline (Value = queue depth at the
	// transition). Only emitted when Scenario.Fluid is enabled.
	TraceFluid TraceKind = "fluid"
	// TraceShed is a request refused by serving-mode admission control
	// instead of queued (Value unused). Only emitted in serving mode,
	// via RecordShed.
	TraceShed TraceKind = "shed"
)

// TraceEvent is one entry of the event-time trace: what happened, at
// which virtual instant, scoped to an instance and/or host where that
// applies (-1 otherwise). Instance- and request-scoped events carry the
// name of the workload group they belong to (Group; empty for
// fleet-global events like caps, arbiter ticks, and round closes).
// Collected when Scenario.RecordTrace is set; exported so Fig. 8-style
// spiky runs can be plotted from the exact event times instead of
// quantum-rounded aggregates.
type TraceEvent struct {
	At       time.Time
	Kind     TraceKind
	Instance int
	Host     int
	State    int
	Value    float64
	Group    string
}

// traceKindRank is SortTrace's canonical kind order: the order
// simultaneous events land in on the event timeline (caps before fault
// landings and recoveries, faults before placements, placements before
// arbitration before retirements before arrivals before completions),
// with reporting kinds (scale, round) last.
var traceKindRank = map[TraceKind]int{
	TraceCap:      0,
	TraceFault:    1,
	TraceThrottle: 2,
	TraceRecover:  3,
	TraceStart:    4,
	TraceDrain:    5,
	TraceMigrate:  6,
	TraceArbiter:  7,
	TraceState:    8,
	TraceRetire:   9,
	TraceArrival:  10,
	TraceShed:     11,
	TraceComplete: 12,
	TraceScale:    13,
	TraceRound:    14,
	TraceFluid:    15,
}

// SortTrace sorts trace events into the canonical deterministic order:
// (instant, kind, host, instance, state, value, group), with the kind
// order matching the event timeline's landing order at equal instants
// and ties beyond that keeping their recorded sequence (the sort is
// stable — fully tied events are interchangeable, so the order is
// engine-independent). The engine and the single-heap test oracle
// emit the same trace as a multiset but interleave simultaneous events
// of different hosts in their own order; canonical sorting is what
// makes traces — and their CSVs — diff cleanly between them.
func SortTrace(events []TraceEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if !a.At.Equal(b.At) {
			return a.At.Before(b.At)
		}
		if ra, rb := traceKindRank[a.Kind], traceKindRank[b.Kind]; ra != rb {
			return ra < rb
		}
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.Instance != b.Instance {
			return a.Instance < b.Instance
		}
		if a.State != b.State {
			return a.State < b.State
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Group < b.Group
	})
}

// record appends a trace event when tracing is enabled.
func (s *Supervisor) record(ev TraceEvent) {
	if s.cfg.RecordTrace {
		s.trace = append(s.trace, ev)
	}
}

// Trace returns the event-time trace collected so far (nil unless
// Scenario.RecordTrace is set).
func (s *Supervisor) Trace() []TraceEvent {
	out := make([]TraceEvent, len(s.trace))
	copy(out, s.trace)
	return out
}

// traceCols is the trace CSV schema, documented in docs/TRACE_FORMAT.md.
var traceCols = []csvcol.Col[TraceEvent]{
	csvcol.Float("t_seconds", 'f', 6, func(ev *TraceEvent) float64 { return ev.At.Sub(epochTime()).Seconds() }),
	{Name: "kind", Cell: func(ev *TraceEvent) string { return string(ev.Kind) }},
	csvcol.Int("instance", func(ev *TraceEvent) int { return ev.Instance }),
	csvcol.Int("host", func(ev *TraceEvent) int { return ev.Host }),
	csvcol.Int("state", func(ev *TraceEvent) int { return ev.State }),
	csvcol.Float("value", 'g', -1, func(ev *TraceEvent) float64 { return ev.Value }),
	{Name: "group", Cell: func(ev *TraceEvent) string { return ev.Group }},
}

// WriteTraceCSV writes trace events as CSV with a header row, in the
// canonical SortTrace order (the input slice is not modified) — so the
// CSV of a run is byte-identical at every Workers value. The columns
// and the event kinds are documented in docs/TRACE_FORMAT.md.
func WriteTraceCSV(w io.Writer, events []TraceEvent) error {
	sorted := make([]TraceEvent, len(events))
	copy(sorted, events)
	SortTrace(sorted)
	return csvcol.Write(w, traceCols, sorted)
}
