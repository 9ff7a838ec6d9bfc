package fleet

// Chaos and fuzz coverage for the fault & degradation subsystem
// (fault.go): the no-op guarantee when faults are disabled, the chaos
// replay CI leg, schema round-trips for the fault trace kinds and the
// replay/resilience CSVs (pinned goldens under testdata/), and a
// Go-native fuzz target over arbitrary fault schedules holding the
// fleet's conservation invariants. The cross-engine differential lives
// in shard_test.go (TestFaultScenarioBitIdenticalAcrossWorkers).

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden CSVs under testdata/")

// compareGolden checks got against the named golden file, rewriting it
// under -update. Goldens pin the CSV schemas byte for byte — a diff here
// is a schema change, which docs/TRACE_FORMAT.md must document.
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
		t.Errorf("%s drifted from its golden; if the schema change is intentional, update docs/TRACE_FORMAT.md and run go test -update.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestSetFaultsValidation pins the wiring contract: a model is
// required and wiring after the first step is an error.
func TestSetFaultsValidation(t *testing.T) {
	sup := newTestFleet(t, 1, 1, 0)
	if err := sup.SetFaults(FaultOptions{}); err == nil {
		t.Error("SetFaults accepted a nil model")
	}
	startN(t, sup, 1)
	if _, err := sup.Step(NewConstantLoad(1, 1).WithRequestIters(10)); err != nil {
		t.Fatal(err)
	}
	if err := sup.SetFaults(FaultOptions{Model: FaultSchedule{}}); err == nil {
		t.Error("SetFaults accepted a stepped supervisor")
	}
}

// TestScheduleFaultDiscardsDegenerate pins the normalization contract
// FaultModel implementations rely on: degenerate events are discarded
// at scheduling time, out-of-range throttle clamps are pulled into
// range, and every survivor schedules exactly one landing and one
// recovery.
func TestScheduleFaultDiscardsDegenerate(t *testing.T) {
	sup := newTestFleet(t, 2, 1, 0)
	at := time.Unix(1, 0)
	bad := []FaultEvent{
		{At: at, Kind: FaultCrash, Host: 0, Duration: 0},                          // no duration
		{At: at, Kind: FaultCrash, Host: 7, Duration: time.Second},                // host out of range
		{At: at, Kind: FaultThrottle, Host: 0, Duration: time.Second, State: 0},   // clamp at the fastest state is no clamp
		{At: at, Kind: FaultStraggler, Host: 0, Duration: time.Second, Factor: 1}, // no slowdown
		{At: at, Kind: FaultStraggler, Host: -1, Instance: -1, Duration: time.Second, Factor: 2},
		{At: at, Kind: FaultSag, Duration: time.Second, Factor: 1.2},                  // sag must shrink the budget
		{At: at, Kind: FaultKind("bogus"), Host: 0, Duration: time.Second, Factor: 2}, // unknown kind
	}
	for _, fe := range bad {
		sup.scheduleFault(fe)
	}
	if len(sup.faults) != 0 {
		t.Fatalf("degenerate events scheduled %d changes, want 0", len(sup.faults))
	}
	sup.scheduleFault(FaultEvent{At: at, Kind: FaultThrottle, Host: 0, Duration: time.Second, State: 99})
	if len(sup.faults) != 2 {
		t.Fatalf("valid throttle scheduled %d changes, want landing + recovery", len(sup.faults))
	}
	if got := sup.faults[0].ev.State; got != len(platform.Frequencies)-1 {
		t.Errorf("out-of-range clamp state = %d, want %d", got, len(platform.Frequencies)-1)
	}
}

// runNoOpFleet drives the oracle-regression fixture once, optionally
// with an empty fault schedule wired.
func runNoOpFleet(t *testing.T, wire bool) (*Supervisor, Report) {
	t.Helper()
	sup := newOneGroup(t, Scenario{
		Machines:        2,
		CoresPerMachine: 1,
		Budget:          2 * 190,
		RecordTrace:     true,
	}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 2)
	if wire {
		if err := sup.SetFaults(FaultOptions{Model: FaultSchedule{}, Redispatch: true}); err != nil {
			t.Fatal(err)
		}
	}
	gen := NewConstantLoad(5, 6).WithRequestIters(10)
	for r := 0; r < 6; r++ {
		if _, err := sup.Step(gen); err != nil {
			t.Fatal(err)
		}
	}
	return sup, sup.Report()
}

// TestFaultModelDisabledNoOp is the oracle-regression guard: wiring a
// fault model that never emits must leave every observable — rounds,
// report, trace, host energy — bit-identical to an unwired run. The
// queueing-oracle tolerances (TestFleetMatchesOracle*, the M/G/1 mix
// tests) hold automatically because unwired fleets take literally the
// same event path as before the subsystem existed.
func TestFaultModelDisabledNoOp(t *testing.T) {
	plain, plainRep := runNoOpFleet(t, false)
	wired, wiredRep := runNoOpFleet(t, true)

	if wiredRep.Resilience == nil {
		t.Fatal("wired run reported no Resilience")
	}
	if len(wiredRep.Resilience.Faults) != 0 || wiredRep.Resilience.Crashes != 0 ||
		wiredRep.Resilience.Redispatched != 0 || wiredRep.Resilience.Dropped != 0 {
		t.Fatalf("empty schedule landed faults: %+v", wiredRep.Resilience)
	}
	if plainRep.Resilience != nil {
		t.Fatal("unwired run reported Resilience")
	}
	// Everything else must match bit for bit.
	wiredRep.Resilience = nil
	if !reflect.DeepEqual(plainRep, wiredRep) {
		t.Fatalf("empty fault schedule perturbed the report:\n  %+v\nvs\n  %+v", plainRep, wiredRep)
	}
	if !reflect.DeepEqual(plain.rounds, wired.rounds) {
		t.Fatal("empty fault schedule perturbed round stats")
	}
	pt, wt := plain.Trace(), wired.Trace()
	SortTrace(pt)
	SortTrace(wt)
	if !reflect.DeepEqual(pt, wt) {
		t.Fatal("empty fault schedule perturbed the trace")
	}
	for i := range plain.Hosts() {
		if plain.Hosts()[i].Energy() != wired.Hosts()[i].Energy() {
			t.Fatalf("host %d energy diverged", i)
		}
	}
}

// chaosSchedule is the canonical chaos fixture — a host crash, a
// correlated two-host rack outage, and a thermal throttle — shared by
// TestChaosReplay and the CI chaos leg (cmd/fleet -faults with the
// equivalent JSON spec).
func chaosSchedule() FaultSchedule {
	return FaultSchedule{
		{At: time.Unix(4, 300e6), Kind: FaultCrash, Host: 2, Duration: 1400 * time.Millisecond, Instance: -1},
		{At: time.Unix(9, 200e6), Kind: FaultCrash, Host: 0, Rack: "rack-a", Duration: 2 * time.Second, Instance: -1},
		{At: time.Unix(9, 200e6), Kind: FaultCrash, Host: 2, Rack: "rack-a", Duration: 2 * time.Second, Instance: -1},
		{At: time.Unix(14, 600e6), Kind: FaultThrottle, Host: 1, Duration: 3 * time.Second, State: len(platform.Frequencies) - 2, Instance: -1},
	}
}

// TestChaosReplay is the chaos acceptance run (the CI chaos leg): a
// crash, a rack outage, and a throttle land inside an SLO'd replay with
// redispatch on. The run must be deterministic, every fault must be
// recorded with its window, displaced requests must be re-offered, and
// the resilience metrics must demonstrate recovery time back to the
// pre-fault p95 — with the per-fault violation accounting and CSVs
// (resilience rows, replay fault columns) attached.
func TestChaosReplay(t *testing.T) {
	run := func() (*Supervisor, *ReplayResult) {
		sup := newOneGroup(t, Scenario{
			Machines:        4,
			CoresPerMachine: 1,
			Budget:          4 * 190,
			ControlDisabled: true,
			RecordTrace:     true,
		}, newSlowApp, syntheticProfile(t))
		startN(t, sup, 4)
		if err := sup.SetFaults(FaultOptions{Model: chaosSchedule(), Redispatch: true}); err != nil {
			t.Fatal(err)
		}
		rates := make([]float64, 24)
		for i := range rates {
			rates[i] = 10
		}
		res, err := Replay(sup, ReplayConfig{Rates: rates, Seed: 7, ReqIters: 10, SLO: SLO{P95: 1.3}})
		if err != nil {
			t.Fatal(err)
		}
		return sup, res
	}
	sup, res := run()
	_, res2 := run()
	if !reflect.DeepEqual(res.Points, res2.Points) {
		t.Fatal("two identically seeded chaos replays diverged")
	}

	ril := sup.Report().Resilience
	if ril == nil {
		t.Fatal("chaos replay reported no Resilience")
	}
	if ril.Crashes != 3 || ril.Throttles != 1 {
		t.Fatalf("landed %d crashes / %d throttles, want 3 / 1 (%+v)", ril.Crashes, ril.Throttles, ril)
	}
	if ril.Redispatched == 0 {
		t.Error("no displaced request was redispatched; the crashes hit idle hosts")
	}
	if ril.Dropped != 0 {
		t.Errorf("%d requests dropped with Redispatch on, want 0", ril.Dropped)
	}
	rackHosts := map[int]bool{}
	for _, rec := range ril.Faults {
		if rec.Rack == "rack-a" {
			rackHosts[rec.Host] = true
		}
	}
	if len(rackHosts) != 2 {
		t.Errorf("rack outage recorded on hosts %v, want both of rack-a", rackHosts)
	}
	if ril.Recovered == 0 || ril.MeanRecoverySeconds <= 0 {
		t.Fatalf("no fault recovered to the pre-fault p95 (recovered %d, mean %.3f s)", ril.Recovered, ril.MeanRecoverySeconds)
	}
	for _, rec := range ril.Faults {
		if rec.RecoverySeconds >= 0 && rec.RecoverySeconds < rec.Until.Sub(rec.At).Seconds() {
			t.Errorf("%s on host %d recovered in %.3f s, before its own window closed (%.3f s)",
				rec.Kind, rec.Host, rec.RecoverySeconds, rec.Until.Sub(rec.At).Seconds())
		}
		if rec.ViolationRounds < 0 {
			t.Errorf("%s on host %d has negative violation rounds", rec.Kind, rec.Host)
		}
	}

	// The replay rows carry the fault columns, and the fault windows are
	// visible in them.
	landed, active := 0, 0
	for _, pt := range res.Points {
		if pt.Fault == nil {
			t.Fatal("faulted replay point missing Fault accounting")
		}
		landed += pt.Fault.Landed
		if pt.Fault.Active {
			active++
		}
	}
	if landed != len(ril.Faults) {
		t.Errorf("replay points booked %d landings, resilience %d", landed, len(ril.Faults))
	}
	if active == 0 || active == len(res.Points) {
		t.Errorf("fault_active marked %d of %d rounds; windows should cover some but not all", active, len(res.Points))
	}

	var buf bytes.Buffer
	if err := WriteResilienceCSV(&buf, ril); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := len(ril.Faults) + 1; len(lines) != want {
		t.Errorf("resilience csv has %d lines, want %d", len(lines), want)
	}
	buf.Reset()
	if err := WriteReplayCSV(&buf, res.Points); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasSuffix(header, ",faults_landed,fault_active,redispatched,dropped") {
		t.Errorf("faulted replay csv header lacks the fault columns: %q", header)
	}
}

// goldenFaultRun drives the fixed golden fixture — one fault of every
// kind over a 2-host fleet — and returns the supervisor.
func goldenFaultRun(t *testing.T, workers int) *Supervisor {
	t.Helper()
	sup := newOneGroup(t, Scenario{
		Machines:        2,
		CoresPerMachine: 1,
		Budget:          2 * 190,
		Workers:         workers,
		RecordTrace:     true,
	}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 2)
	if err := sup.SetFaults(FaultOptions{Redispatch: true, Model: FaultSchedule{
		{At: time.Unix(1, 250e6), Kind: FaultCrash, Host: 0, Rack: "rack-a", Duration: 800 * time.Millisecond, Instance: -1},
		{At: time.Unix(2, 400e6), Kind: FaultThrottle, Host: 1, Duration: time.Second, State: 5, Instance: -1},
		{At: time.Unix(3, 300e6), Kind: FaultStraggler, Host: -1, Instance: 1, Duration: 900 * time.Millisecond, Factor: 2},
		{At: time.Unix(4, 200e6), Kind: FaultSag, Duration: 700 * time.Millisecond, Factor: 0.5, Instance: -1},
	}}); err != nil {
		t.Fatal(err)
	}
	stepRounds(t, engineUnder(sup, workers), NewConstantLoad(7, 6).WithRequestIters(10), 6)
	return sup
}

// TestFaultCSVGoldens pins the fault-facing CSV schemas byte for byte:
// the trace CSV round-trips the fault/throttle/recover kinds through
// SortTrace in their canonical positions, and the resilience CSV pins
// one row per landed fault — identically on the refEngine and at
// Workers=1, 2, and 4.
func TestFaultCSVGoldens(t *testing.T) {
	sup := goldenFaultRun(t, refWorkers)

	var trace bytes.Buffer
	if err := WriteTraceCSV(&trace, sup.Trace()); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{",fault,", ",throttle,", ",recover,"} {
		if !strings.Contains(trace.String(), kind) {
			t.Errorf("golden trace lacks a %q row", strings.Trim(kind, ","))
		}
	}
	compareGolden(t, "trace_faults.csv", trace.Bytes())

	var ril bytes.Buffer
	if err := WriteResilienceCSV(&ril, sup.Report().Resilience); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "resilience.csv", ril.Bytes())

	for _, workers := range []int{1, 2, 4} {
		prod := goldenFaultRun(t, workers)
		var got bytes.Buffer
		if err := WriteTraceCSV(&got, prod.Trace()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(trace.Bytes(), got.Bytes()) {
			t.Errorf("trace CSV differs between the refEngine and Workers=%d", workers)
		}
		got.Reset()
		if err := WriteResilienceCSV(&got, prod.Report().Resilience); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ril.Bytes(), got.Bytes()) {
			t.Errorf("resilience CSV differs between the refEngine and Workers=%d", workers)
		}
	}
}

// goldenReplayRun drives the fixed replay fixture, with or without a
// crash fault wired.
func goldenReplayRun(t *testing.T, faults bool) *ReplayResult {
	t.Helper()
	sup := newOneGroup(t, Scenario{Machines: 2, CoresPerMachine: 1, ControlDisabled: true}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 1)
	if faults {
		if err := sup.SetFaults(FaultOptions{Redispatch: true, Model: FaultSchedule{
			{At: time.Unix(2, 300e6), Kind: FaultCrash, Host: 0, Duration: 900 * time.Millisecond, Instance: -1},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	rates := make([]float64, 8)
	for i := range rates {
		rates[i] = 5
	}
	res, err := Replay(sup, ReplayConfig{Rates: rates, Seed: 5, ReqIters: 10, SLO: SLO{P95: 1.3}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayCSVGoldens pins the replay schema both ways: an unfaulted
// replay keeps the original single-group fifteen-column CSV byte for
// byte (the fault columns must not perturb it), and a faulted replay of
// the same fixture appends exactly the four fault columns.
func TestReplayCSVGoldens(t *testing.T) {
	plain := goldenReplayRun(t, false)
	var buf bytes.Buffer
	if err := WriteReplayCSV(&buf, plain.Points); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(header, "faults_landed") {
		t.Errorf("unfaulted replay csv grew fault columns: %q", header)
	}
	compareGolden(t, "replay_plain.csv", buf.Bytes())

	faulted := goldenReplayRun(t, true)
	buf.Reset()
	if err := WriteReplayCSV(&buf, faulted.Points); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "replay_faults.csv", buf.Bytes())
}

// decodeFaultSchedule maps arbitrary fuzz bytes onto a fault schedule
// (at most 16 events, 12 bytes each after a redispatch byte) —
// deliberately covering invalid hosts, zero durations, degenerate
// factors, and unknown kinds, which scheduleFault must discard.
func decodeFaultSchedule(data []byte) (FaultSchedule, bool) {
	const rec = 12
	redispatch := len(data) > 0 && data[0]&1 == 1
	var fs FaultSchedule
	for i := 1; i+rec <= len(data) && len(fs) < 16; i += rec {
		b := data[i : i+rec]
		fe := FaultEvent{
			At:       time.Unix(0, 0).Add(time.Duration(binary.LittleEndian.Uint16(b[1:3])%7000) * time.Millisecond),
			Duration: time.Duration(binary.LittleEndian.Uint16(b[3:5])%3500) * time.Millisecond,
			Host:     int(b[5])%4 - 1, // -1..2 over 3 hosts: includes invalid
			State:    int(b[6]) % 8,   // includes 0 (degenerate) and 7 (clamped)
			Instance: int(b[7])%8 - 1, // ids that may never exist fizzle
		}
		switch b[0] % 5 {
		case 0:
			fe.Kind = FaultCrash
			if b[8]%4 == 0 {
				fe.Rack = "rk"
			}
		case 1:
			fe.Kind = FaultThrottle
		case 2:
			fe.Kind = FaultStraggler
			fe.Factor = 1 + float64(b[9])/64 // 1.0 exactly is degenerate
		case 3:
			fe.Kind = FaultSag
			fe.Factor = float64(b[9]%128) / 127 // hits both discarded edges
		default:
			fe.Kind = FaultKind("bogus")
		}
		fs = append(fs, fe)
	}
	return fs, redispatch
}

// fuzzFleetRun drives the fuzz fixture — 3 hosts, 3 instances, binding
// budget, constant load — under the decoded schedule and snapshots the
// observables.
func fuzzFleetRun(t *testing.T, fs FaultSchedule, redispatch bool, workers int) (*Supervisor, diffResult) {
	t.Helper()
	sup := newOneGroup(t, Scenario{
		Machines:        3,
		CoresPerMachine: 1,
		Budget:          3 * 190,
		Workers:         workers,
		RecordTrace:     true,
	}, newSlowApp, syntheticProfile(t))
	startN(t, sup, 3)
	if err := sup.SetFaults(FaultOptions{Model: fs, Redispatch: redispatch}); err != nil {
		t.Fatal(err)
	}
	stepRounds(t, engineUnder(sup, workers), NewConstantLoad(5, 9).WithRequestIters(10), 5)
	return sup, snapshotDiff(sup)
}

// checkFaultInvariants asserts the properties no fault schedule may
// break: every arrival is exactly one of completed, aborted, dropped,
// or still queued (no request lost or double-counted); per-host energy
// is non-negative and sums to the fleet total.
func checkFaultInvariants(t *testing.T, sup *Supervisor, res diffResult) {
	t.Helper()
	rep := res.report
	arrivals, landed := 0, 0
	for _, rs := range rep.Rounds {
		arrivals += rs.Arrivals
		landed += rs.FaultsLanded
	}
	queue := 0
	if n := len(rep.Rounds); n > 0 {
		queue = rep.Rounds[n-1].QueueDepth
	}
	dropped := 0
	if rep.Resilience != nil {
		dropped = rep.Resilience.Dropped
		if landed != len(rep.Resilience.Faults) {
			t.Errorf("round stats booked %d fault landings, resilience %d", landed, len(rep.Resilience.Faults))
		}
	}
	if got := rep.Completions + rep.Aborted + dropped + queue; got != arrivals {
		t.Errorf("conservation broken: %d arrivals vs %d completed + %d aborted + %d dropped + %d queued",
			arrivals, rep.Completions, rep.Aborted, dropped, queue)
	}
	var sum float64
	for i, e := range res.energy {
		if e < 0 {
			t.Errorf("host %d energy %v < 0", i, e)
		}
		sum += e
	}
	if diff := math.Abs(sum - rep.TotalEnergyJ); diff > 1e-6*math.Max(1, rep.TotalEnergyJ) {
		t.Errorf("host energies sum to %v, fleet total %v", sum, rep.TotalEnergyJ)
	}
}

// FuzzFaultSchedule decodes arbitrary bytes into a fault schedule and
// holds the fleet to its invariants under it: conservation of requests,
// non-negative and conserved energy, same-seed determinism, and
// bit-identical behavior between the single-heap refEngine and the
// production engine at Workers 1 and 2.
func FuzzFaultSchedule(f *testing.F) {
	// One crash with redispatch; a rack pair without; every kind mixed
	// with junk records.
	f.Add([]byte("\x01\x00\xc4\t \x03\x02\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x00\x00\x04\x06\xb0\x04\x01\x00\x00\x00\x00\x00\x00\x00\x04\x06\xb0\x04\x02\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("\x01\x01\xe8\x03\xf4\x01\x01\x06\x00\x00\x00\x00\x00\x02\xd0\x07\x84\x03\x02\x00\x02\x00\x80\x00\x00\x03t\x0e\xdc\x05\x00\x00\x00\x00@\x00\x00\x04\xff\xff\xff\xff\xff\x07\x07\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, redispatch := decodeFaultSchedule(data)
		sup, ref := fuzzFleetRun(t, fs, redispatch, refWorkers)
		checkFaultInvariants(t, sup, ref)
		// Workers=1 runs twice: both runs matching the reference is the
		// production engine's same-seed determinism.
		for _, workers := range []int{1, 1, 2} {
			prodSup, prod := fuzzFleetRun(t, fs, redispatch, workers)
			checkFaultInvariants(t, prodSup, prod)
			assertDiffEqual(t, "fuzz-engines", ref, prod, refWorkers, workers)
		}
	})
}
