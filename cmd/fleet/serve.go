package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/csvcol"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/spec"
)

// runServe is the wall-clock serving mode: the fleet run as a live
// power-capped server. Requests arrive through an HTTP gateway (or the
// in-process -swarm client pool), per-group admission accepts or sheds
// each one, the pacer ties the deterministic event engine to the real
// clock one quantum behind it, and with -twin a digital twin replays
// what-if scenarios faster than real time, feeding its provisioning
// recommendation forward into the autoscaler. This is the one place
// the repo binds clock.Real; everything below it is clock-injected.
func runServe(o options, s *spec.Spec) error {
	// A scenario resolved once: the twin's what-if replicas copy it.
	sc, sup, err := newFleet(s, func(int) int64 { return o.seed }, false)
	if err != nil {
		return err
	}
	scheduleDrop(sup, o)
	if o.reqIters == 0 {
		// Serving queues per-request work items; a whole-stream request
		// would occupy an instance for the entire run.
		o.reqIters = 10
	}
	rounds := int(o.duration / quantum)
	if rounds < 1 {
		rounds = 1
	}

	clk := clock.Real{}
	gw := serve.NewGateway(clk, 4096)
	adm, err := serve.NewAdmission([]serve.AdmissionConfig{{
		MaxQueuePerInstance: o.admitQueue,
		SLOP95:              o.sloP95,
	}})
	if err != nil {
		return err
	}
	cfg := serve.Config{Supervisor: sup, Clock: clk, Gateway: gw, Admission: adm}

	if o.twin {
		inner, err := fleet.NewHysteresisScaler(fleet.HysteresisConfig{
			SLO: fleet.SLO{P95: o.sloP95},
			Min: o.scaleMin,
			Max: o.scaleMax,
		})
		if err != nil {
			return err
		}
		ts := &serve.TwinScaler{Inner: inner}
		twin, err := serve.NewTwin(serve.TwinConfig{
			Scenario: func() fleet.Scenario {
				empty := sc
				empty.Groups = []fleet.WorkloadGroup{sc.Groups[0]}
				empty.Groups[0].Instances = 0
				return empty
			},
			ReqIters:     o.reqIters,
			SLO:          fleet.SLO{P95: o.sloP95},
			MaxInstances: o.scaleMax,
		})
		if err != nil {
			return err
		}
		if err := sup.Autoscale(ts, quantum/2); err != nil {
			return err
		}
		cfg.Twin, cfg.TwinScaler, cfg.AsyncTwin = twin, ts, true
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	if o.serveAddr != "none" {
		ln, err := net.Listen("tcp", o.serveAddr)
		if err != nil {
			return err
		}
		hs := newHTTPServer(srv.Handler(o.reqIters))
		go hs.Serve(ln)
		defer hs.Close()
		fmt.Printf("gateway: POST http://%s/requests?group=web — stats at /stats\n", ln.Addr())
	}

	// The in-process client swarm: an open-loop ticker submitting
	// straight into the gateway, the load source for smoke runs with no
	// external client. cmd is outside the engine packages, so a wall
	// ticker is fine here.
	stopSwarm := make(chan struct{})
	var swarmWG sync.WaitGroup
	if o.swarm > 0 {
		interval := time.Duration(float64(quantum) / o.swarm)
		if interval <= 0 {
			interval = time.Millisecond
		}
		swarmWG.Add(1)
		go func() {
			defer swarmWG.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stopSwarm:
					return
				case <-tick.C:
					gw.Submit(0, o.reqIters)
				}
			}
		}()
	}

	twinNote := ""
	if o.twin {
		twinNote = ", twin feed-forward"
	}
	fmt.Printf("serve: %d instances of %s on %d machines x %d cores, budget %s, %d rounds of %v%s\n",
		o.instances, o.app, o.machines, o.cores, watts(o.budget), rounds, quantum, twinNote)
	fmt.Printf("%5s | %7s | %7s | %5s | %5s | %4s | %4s | %6s\n",
		"round", "budget", "power W", "inst", "queue", "done", "shed", "p95 s")

	serveErr := func() error {
		for r := 0; r < rounds; r++ {
			if err := srv.RunRound(); err != nil {
				return err
			}
			rep := sup.Report()
			rs := rep.Rounds[len(rep.Rounds)-1]
			fmt.Printf("%5d | %7s | %7.1f | %5d | %5d | %4d | %4d | %6.2f\n",
				rs.Round, watts(rs.Budget), rs.PowerWatts, rs.Groups[0].Accepting,
				rs.QueueDepth, rs.Completions, rs.Shed, rs.LatencyP95)
		}
		return nil
	}()
	close(stopSwarm)
	swarmWG.Wait()
	if serveErr != nil {
		return serveErr
	}

	st := srv.Stats()
	fmt.Printf("\nserve summary: rounds=%d submitted=%d accepted=%d completions=%d shed=%d invalid=%d overflow=%d\n",
		st.Round, st.Submitted, st.Accepted, st.Completions, st.Shed, st.Invalid, st.Overflow)
	if o.twin {
		per := float64(max(st.TwinAdvises, 1))
		fmt.Printf("twin: advises=%d errors=%d, %.1f candidates and %.1f replica rounds per advice\n",
			st.TwinAdvises, st.TwinErrors, float64(st.TwinCandidates)/per, float64(st.TwinRounds)/per)
	}
	rep := sup.Report()
	fmt.Printf("latency: p50 %.2f s, p95 %.2f s, p99 %.2f s; mean power %.1f W, energy %.0f J\n",
		rep.P50Latency, rep.P95Latency, rep.P99Latency, rep.MeanPower, rep.TotalEnergyJ)

	if o.latencyHist != "" {
		f, err := os.Create(o.latencyHist)
		if err != nil {
			return err
		}
		lats := sup.AllLatencies()
		if err := writeLatencyHistCSV(f, lats); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d-sample latency histogram to %s\n", len(lats), o.latencyHist)
	}
	return nil
}

// A client gets one quantum to send its request headers, at most
// maxHeaderBytes of them: a client that trickles headers (slowloris)
// cannot hold a connection open for the whole run.
const (
	readHeaderTimeout = quantum
	maxHeaderBytes    = 16 << 10
)

// newHTTPServer is the live gateway's HTTP server around h.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, MaxHeaderBytes: maxHeaderBytes}
}

// histBucket is one row of the latency histogram.
type histBucket struct {
	le         float64
	count, cum int
}

// histCols is the latency histogram's CSV schema, documented in
// docs/TRACE_FORMAT.md.
var histCols = []csvcol.Col[histBucket]{
	csvcol.Float("le_s", 'f', 3, func(b *histBucket) float64 { return b.le }),
	csvcol.Int("count", func(b *histBucket) int { return b.count }),
	csvcol.Int("cum_count", func(b *histBucket) int { return b.cum }),
}

// writeLatencyHistCSV writes the served-request latency distribution
// (sorted ascending) as cumulative histogram rows. Bucket width is the
// smallest round value keeping the table at or under 40 rows. Bucket k
// ends at (k+1)·width: a running sum of widths drifts below the bound
// it prints, and a latency on that bound would land a row late.
func writeLatencyHistCSV(w io.Writer, lats []float64) error {
	var buckets []histBucket
	if len(lats) > 0 {
		max := lats[len(lats)-1]
		widths := []float64{0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2, 5}
		width := widths[len(widths)-1]
		for _, c := range widths {
			if max <= 40*c {
				width = c
				break
			}
		}
		for k, i := 0, 0; i < len(lats); k++ {
			b := histBucket{le: float64(k+1) * width}
			for i < len(lats) && lats[i] <= b.le {
				b.count++
				i++
			}
			b.cum = i
			buckets = append(buckets, b)
		}
	}
	return csvcol.Write(w, histCols, buckets)
}
