// Package heartbeats reimplements the Application Heartbeats framework
// (Hoffmann et al., ICAC 2010) that PowerDial uses as its feedback
// mechanism (Sec. 2.3.1 of the paper).
//
// An application registers a Monitor with a target heart-rate range and
// emits a heartbeat at the top of its main control loop. Observers (the
// PowerDial control system) query windowed and global heart rates. All
// rates are in beats per second of the Monitor's clock, which may be
// virtual for deterministic simulation.
package heartbeats

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/clock"
)

// DefaultWindow is the sliding-window length, in beats, used for windowed
// heart-rate queries. The paper computes performance "as the sliding mean
// of the last twenty times between heartbeats" (Sec. 5.4) and the actuator
// quantum is twenty heartbeats (Sec. 2.3.3).
const DefaultWindow = 20

// Target is an application's desired heart-rate range in beats/sec. For
// the paper's experiments Min == Max == the average heart rate of the
// default configuration (Sec. 2.3.1).
type Target struct {
	Min float64
	Max float64
}

// Valid reports whether the target is a usable range.
func (t Target) Valid() bool { return t.Min > 0 && t.Max >= t.Min }

// Goal returns the single rate the controller steers to: the midpoint of
// the range (equal to Min when Min == Max, the paper's configuration).
func (t Target) Goal() float64 { return (t.Min + t.Max) / 2 }

// Monitor records heartbeats and answers rate queries. It is safe for
// concurrent use: the instrumented application beats while the control
// system reads.
type Monitor struct {
	mu     sync.Mutex
	clk    clock.Clock
	target Target
	window int
	log    io.Writer

	count      uint64
	first      time.Time
	last       time.Time
	intervals  []float64 // ring buffer of the last `window` beat intervals (seconds)
	ringNext   int
	ringFilled int
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithWindow sets the sliding-window length in beats (default
// DefaultWindow).
func WithWindow(n int) Option {
	return func(m *Monitor) { m.window = n }
}

// WithClock sets the time source (default the real clock).
func WithClock(c clock.Clock) Option {
	return func(m *Monitor) { m.clk = c }
}

// WithLog streams one CSV record per heartbeat (beat number, unix
// nanoseconds, last interval seconds, window rate) to w — the external
// observability channel the Application Heartbeats framework provides so
// that system components other than the producing application can read
// its performance.
func WithLog(w io.Writer) Option {
	return func(m *Monitor) { m.log = w }
}

// NewMonitor registers a heartbeat monitor with the given target. It
// returns an error for invalid targets or window sizes, mirroring the
// registration step of the Heartbeats API.
func NewMonitor(target Target, opts ...Option) (*Monitor, error) {
	if !target.Valid() {
		return nil, fmt.Errorf("heartbeats: invalid target [%v, %v]", target.Min, target.Max)
	}
	m := &Monitor{
		clk:    clock.Real{},
		target: target,
		window: DefaultWindow,
	}
	for _, o := range opts {
		o(m)
	}
	if m.window < 1 {
		return nil, errors.New("heartbeats: window must be at least 1 beat")
	}
	m.intervals = make([]float64, m.window)
	return m, nil
}

// Beat registers one heartbeat at the current clock time. The first beat
// establishes the epoch; rates are defined from the second beat onward.
func (m *Monitor) Beat() {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	var lastDT float64
	if m.count == 0 {
		m.first = now
	} else {
		dt := now.Sub(m.last).Seconds()
		if dt < 0 {
			dt = 0
		}
		lastDT = dt
		m.intervals[m.ringNext] = dt
		m.ringNext = (m.ringNext + 1) % m.window
		if m.ringFilled < m.window {
			m.ringFilled++
		}
	}
	m.last = now
	m.count++
	if m.log != nil {
		fmt.Fprintf(m.log, "%d,%d,%.9f,%.6f\n", m.count, now.UnixNano(), lastDT, m.windowRateLocked())
	}
}

// windowRateLocked is WindowRate with m.mu already held.
func (m *Monitor) windowRateLocked() float64 {
	if m.ringFilled == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < m.ringFilled; i++ {
		sum += m.intervals[i]
	}
	if sum <= 0 {
		return 0
	}
	return float64(m.ringFilled) / sum
}

// Count returns the number of heartbeats emitted so far.
func (m *Monitor) Count() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Target returns the registered heart-rate target.
func (m *Monitor) Target() Target { return m.target }

// WindowRate returns the heart rate over the sliding window: the inverse
// of the mean of the last min(window, count-1) beat intervals. It returns
// 0 until two beats have been observed, and +0 is also returned if the
// window spans zero elapsed time.
func (m *Monitor) WindowRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windowRateLocked()
}

// GlobalRate returns the heart rate over the whole execution:
// (count-1) / (last - first). It returns 0 until two beats have been seen.
func (m *Monitor) GlobalRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count < 2 {
		return 0
	}
	elapsed := m.last.Sub(m.first).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count-1) / elapsed
}

// LastInterval returns the duration in seconds between the two most recent
// beats, or 0 if fewer than two beats have been seen.
func (m *Monitor) LastInterval() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ringFilled == 0 {
		return 0
	}
	idx := (m.ringNext - 1 + m.window) % m.window
	return m.intervals[idx]
}

// NormalizedPerformance returns WindowRate divided by the target goal
// rate: 1.0 means exactly on target. This is the quantity plotted on the
// left axis of Fig. 7.
func (m *Monitor) NormalizedPerformance() float64 {
	g := m.target.Goal()
	if g <= 0 {
		return 0
	}
	return m.WindowRate() / g
}

// BelowTarget reports whether the windowed rate has fallen below the
// target minimum (the condition that triggers a speedup in Sec. 1.1).
func (m *Monitor) BelowTarget() bool {
	r := m.WindowRate()
	return r > 0 && r < m.target.Min
}

// AboveTarget reports whether the windowed rate exceeds the target
// maximum.
func (m *Monitor) AboveTarget() bool {
	return m.WindowRate() > m.target.Max
}
