package serve

import (
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet"
)

// TestAsyncTwinLoopLivesAndStops exercises the deployment shape — the
// twin advising from its own goroutine while the serving loop runs —
// under the race detector: snapshots flow out, advice flows back (or
// is dropped, latest-wins), and Close is idempotent.
func TestAsyncTwinLoopLivesAndStops(t *testing.T) {
	prof := syntheticProfile(t)
	sup, err := fleet.NewScenario(twinScenario(prof, 2))
	if err != nil {
		t.Fatal(err)
	}
	ts := &TwinScaler{Inner: constScaler(2)}
	twin, err := NewTwin(TwinConfig{
		Scenario:     func() fleet.Scenario { return twinScenario(prof, 0) },
		ReqIters:     10,
		SLO:          fleet.SLO{P95: 0.6},
		MaxInstances: 4,
		Horizon:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Autoscale(ts, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual(time.Unix(0, 0))
	gw := NewGateway(clk, 256)
	srv, err := New(Config{
		Supervisor: sup, Clock: clk, Gateway: gw,
		Twin: twin, TwinScaler: ts, AsyncTwin: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		for i := 0; i < 6; i++ {
			gw.Submit(0, 10)
		}
		if err := srv.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	srv.Close() // idempotent
	if srv.Completions() == 0 {
		t.Error("async-twin serving loop completed nothing")
	}
}

// TestAsyncTwinErrorsCountedAdviceKept pins what the async twin does
// when it cannot advise: every failed snapshot is counted, in Stats
// too, and the last good recommendation stays in force — the loop
// neither stalls nor clears the scaler.
func TestAsyncTwinErrorsCountedAdviceKept(t *testing.T) {
	prof := syntheticProfile(t)
	sup, err := fleet.NewScenario(webScenario(prof, 2))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewTwin(TwinConfig{
		Scenario:     func() fleet.Scenario { return fleet.Scenario{} }, // builds no groups: every Advise fails
		SLO:          fleet.SLO{P95: 0.6},
		MaxInstances: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := &TwinScaler{Inner: constScaler(2)}
	ts.SetAdvice(3) // the last good advice
	clk := clock.NewVirtual(time.Unix(0, 0))
	gw := NewGateway(clk, 64)
	srv, err := New(Config{Supervisor: sup, Clock: clk, Gateway: gw, Twin: twin, TwinScaler: ts, AsyncTwin: true})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		gw.Submit(0, 10)
		if err := srv.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	// Close returns once the twin goroutine has worked off every
	// snapshot it was handed: round 0's at least (the channel was
	// empty), at most one a round.
	srv.Close()
	st := srv.Stats()
	if st.TwinErrors < 1 || st.TwinErrors > rounds {
		t.Errorf("twin_errors = %d after %d rounds with a failing twin, want 1..%d", st.TwinErrors, rounds, rounds)
	}
	if st.TwinErrors != srv.TwinErrors() || st.TwinAdvises != st.TwinErrors || st.TwinCandidates != 0 {
		t.Errorf("stats %+v: want twin_errors = TwinErrors() = twin_advises (every search failed) and no candidate replayed", st)
	}
	if got := ts.Advice(); got != 3 {
		t.Errorf("advice = %d after failed advices, want the last good one (3) kept", got)
	}
	if st.Round != rounds {
		t.Errorf("served %d rounds, want %d: a failing twin must not stop the loop", st.Round, rounds)
	}
}

// BenchmarkServeSwarm is the client-swarm load test: a pool of
// producer goroutines hammers the gateway while the serving loop runs
// rounds on a virtual clock, so the benchmark measures the serving
// path itself — drain, admission, injection, engine step — not wall
// sleeping. One iteration is one served round under swarm load.
func BenchmarkServeSwarm(b *testing.B) {
	const (
		swarm     = 8  // concurrent client goroutines
		perClient = 16 // submissions per client per round
		iters     = 10
	)
	prof := syntheticProfile(b)
	sup, err := fleet.NewScenario(webScenario(prof, 8))
	if err != nil {
		b.Fatal(err)
	}
	clk := clock.NewVirtual(time.Unix(0, 0))
	gw := NewGateway(clk, swarm*perClient*2)
	adm, err := NewAdmission([]AdmissionConfig{{MaxQueuePerInstance: 8}})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Supervisor: sup, Clock: clk, Gateway: gw, Admission: adm})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		for c := 0; c < swarm; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					gw.Submit(0, iters)
				}
			}()
		}
		wg.Wait()
		if err := srv.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if srv.Completions() == 0 {
		b.Fatal("swarm benchmark completed nothing")
	}
	b.ReportMetric(float64(srv.Completions())/float64(b.N), "completions/round")
	b.ReportMetric(float64(srv.Shed())/float64(b.N), "shed/round")
}

// BenchmarkGatewaySubmit pins the gateway hot path: a submit into a
// drained channel must not allocate (escapeguard pins the static side;
// this pins the runtime side).
func BenchmarkGatewaySubmit(b *testing.B) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	gw := NewGateway(clk, 1)
	var scratch []gwReq
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		gw.Submit(0, 10)
		scratch = gw.drain(scratch[:0])
	}
	if len(scratch) != 1 {
		b.Fatal("drain lost the submission")
	}
}
