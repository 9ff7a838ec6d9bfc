// Package serve is the wall-clock serving mode: the fleet run as a
// live power-capped server. A Gateway receives requests in real time,
// per-group Admission decides accept-or-shed, a Pacer ties the
// deterministic event engine to the wall clock one quantum behind it,
// and a digital Twin replays what-if scenarios faster than real time
// on the virtual engine, feeding its provisioning recommendation
// forward into the autoscaler (TwinScaler).
//
// Every component takes its time source by injection (clock.Waiter),
// so the whole serving loop — pacing, admission, twin — runs
// deterministically on a clock.Virtual under test; only cmd/fleet
// -serve binds clock.Real.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/fleet"
)

// Config assembles a serving loop.
type Config struct {
	// Supervisor is the live fleet, built on the event timeline and
	// not yet stepped or fed by any other driver (required).
	Supervisor *fleet.Supervisor
	// Clock is the serving time source (required): clock.Real{} in
	// cmd/fleet -serve, a *clock.Virtual in tests.
	Clock clock.Waiter
	// Gateway is the ingress the loop drains each round (required; its
	// clock should be this Config's Clock).
	Gateway *Gateway
	// Admission is the per-group accept-or-shed policy (optional; nil
	// admits everything the intake buffer holds).
	Admission *Admission
	// Twin and TwinScaler close the feed-forward loop (both optional,
	// but Twin requires TwinScaler — and the TwinScaler must be the
	// policy attached to the supervisor for the advice to matter).
	Twin       *Twin
	TwinScaler *TwinScaler
	// AsyncTwin runs the twin in its own goroutine, advising from the
	// previous round's snapshot while the wall clock ticks (the real
	// serving deployment). Unset, the twin advises synchronously
	// before every Step — fully deterministic, the test mode.
	AsyncTwin bool
	// Recent is how many trailing rounds of arrival history snapshots
	// carry (default 5).
	Recent int
}

// Server owns the serving loop: one RunRound per control quantum,
// paced against Config.Clock. The loop itself is single-goroutine;
// only the Gateway (and the async twin, which works on snapshots) are
// touched concurrently.
type Server struct {
	cfg     Config
	pacer   *Pacer
	sigs    []GroupSignals
	scratch []gwReq

	accepted    atomic.Int64
	shed        atomic.Int64
	invalid     atomic.Int64
	completions atomic.Int64
	round       atomic.Int64
	twinErrors  atomic.Int64

	groupIdx map[string]int

	snapCh    chan fleet.FleetSnapshot
	advCh     chan int
	twinDone  chan struct{}
	closeOnce sync.Once
}

// New validates cfg, anchors the pacer at the clock's current instant
// (round 0's wall window opens now), and — with AsyncTwin — starts the
// twin goroutine.
func New(cfg Config) (*Server, error) {
	if cfg.Supervisor == nil {
		return nil, fmt.Errorf("serve: Config.Supervisor is required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("serve: Config.Clock is required")
	}
	if cfg.Gateway == nil {
		return nil, fmt.Errorf("serve: Config.Gateway is required")
	}
	if cfg.Supervisor.Round() != 0 {
		return nil, fmt.Errorf("serve: supervisor already at round %d; serving needs a fresh fleet", cfg.Supervisor.Round())
	}
	if cfg.Twin != nil && cfg.TwinScaler == nil {
		return nil, fmt.Errorf("serve: Twin requires a TwinScaler to feed")
	}
	if cfg.Recent <= 0 {
		cfg.Recent = 5
	}
	names := cfg.Supervisor.GroupNames()
	s := &Server{
		cfg:      cfg,
		pacer:    NewPacer(cfg.Clock, cfg.Supervisor.Quantum()),
		sigs:     make([]GroupSignals, len(names)),
		groupIdx: make(map[string]int, len(names)),
	}
	for gi, name := range names {
		s.groupIdx[name] = gi
	}
	if cfg.Twin != nil && cfg.AsyncTwin {
		s.snapCh = make(chan fleet.FleetSnapshot, 1)
		s.advCh = make(chan int, 1)
		s.twinDone = make(chan struct{})
		go s.twinLoop()
	}
	return s, nil
}

// RunRound serves one control quantum: wait out the round's wall
// window, drain the gateway, admit or shed each request at its true
// receive instant, fold the twin's latest advice into the scaler, and
// step the engine through the round in one burst.
func (s *Server) RunRound() error {
	sup := s.cfg.Supervisor
	r := sup.Round()
	s.pacer.WaitRound(r)

	s.scratch = s.cfg.Gateway.drain(s.scratch[:0])
	for _, req := range s.scratch {
		if req.group < 0 || req.group >= len(s.sigs) {
			s.invalid.Add(1)
			continue
		}
		vAt := s.pacer.Virtual(req.at)
		reason := ""
		if s.cfg.Admission != nil {
			reason = s.cfg.Admission.Admit(req.group, req.at, s.sigs[req.group])
		}
		if reason == "" {
			if _, err := sup.InjectArrivalAt(vAt, req.group, req.iters); err != nil {
				return err
			}
			s.accepted.Add(1)
		} else {
			if err := sup.RecordShed(vAt, req.group); err != nil {
				return err
			}
			s.shed.Add(1)
		}
	}

	if s.cfg.Twin != nil {
		if s.cfg.AsyncTwin {
			select {
			case rec := <-s.advCh:
				s.cfg.TwinScaler.SetAdvice(rec)
			default:
			}
		} else {
			rec, err := s.cfg.Twin.Advise(sup.StateSnapshot(s.cfg.Recent))
			if err != nil {
				return err
			}
			s.cfg.TwinScaler.SetAdvice(rec)
		}
	}

	rs, err := sup.Step(nil)
	if err != nil {
		return err
	}
	for gi := range s.sigs {
		g := rs.Groups[gi]
		s.sigs[gi] = GroupSignals{Accepting: g.Accepting, QueueDepth: g.QueueDepth, P95: g.LatencyP95}
	}
	s.completions.Add(int64(rs.Completions))
	s.round.Store(int64(rs.Round + 1))

	if s.cfg.Twin != nil && s.cfg.AsyncTwin {
		select {
		case s.snapCh <- sup.StateSnapshot(s.cfg.Recent):
		default:
			// The twin is still chewing on an older snapshot; skip this
			// one rather than block the serving loop (latest wins).
		}
	}
	return nil
}

// Run serves the given number of rounds back to back.
func (s *Server) Run(rounds int) error {
	for i := 0; i < rounds; i++ {
		if err := s.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the async twin goroutine, if any. Safe to call more than
// once; the serving loop must not RunRound after Close.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.snapCh != nil {
			close(s.snapCh)
			<-s.twinDone
		}
	})
}

// twinLoop is the async twin: advise on each snapshot the serving loop
// offers, publish the latest recommendation, repeat. A failed advice is
// counted and publishes nothing, so the last good recommendation stays
// in force.
func (s *Server) twinLoop() {
	defer close(s.twinDone)
	for snap := range s.snapCh {
		rec, err := s.cfg.Twin.Advise(snap)
		if err != nil {
			s.twinErrors.Add(1)
			continue
		}
		// Replace any unconsumed advice with the fresh one.
		select {
		case <-s.advCh:
		default:
		}
		select {
		case s.advCh <- rec:
		default:
		}
	}
}

// Accepted returns how many drained requests admission admitted so
// far.
func (s *Server) Accepted() int64 { return s.accepted.Load() }

// Shed returns how many drained requests admission refused so far.
func (s *Server) Shed() int64 { return s.shed.Load() }

// Invalid returns how many drained requests named a group the fleet
// does not have.
func (s *Server) Invalid() int64 { return s.invalid.Load() }

// Completions returns how many requests the fleet has served to
// completion.
func (s *Server) Completions() int64 { return s.completions.Load() }

// Round returns how many rounds the loop has served.
func (s *Server) Round() int64 { return s.round.Load() }

// TwinErrors returns how many snapshots the async twin failed to
// advise on.
func (s *Server) TwinErrors() int64 { return s.twinErrors.Load() }
