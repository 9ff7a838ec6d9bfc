package heartbeats

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func newTestMonitor(t *testing.T, window int) (*Monitor, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	m, err := NewMonitor(Target{Min: 10, Max: 10}, WithClock(clk), WithWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	return m, clk
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(Target{Min: 0, Max: 1}); err == nil {
		t.Error("want error for zero min target")
	}
	if _, err := NewMonitor(Target{Min: 2, Max: 1}); err == nil {
		t.Error("want error for inverted target")
	}
	if _, err := NewMonitor(Target{Min: 1, Max: 1}, WithWindow(0)); err == nil {
		t.Error("want error for zero window")
	}
}

func TestTargetGoal(t *testing.T) {
	if g := (Target{Min: 10, Max: 10}).Goal(); g != 10 {
		t.Errorf("Goal = %v, want 10", g)
	}
	if g := (Target{Min: 8, Max: 12}).Goal(); g != 10 {
		t.Errorf("Goal = %v, want 10", g)
	}
}

func TestRatesNeedTwoBeats(t *testing.T) {
	m, _ := newTestMonitor(t, 20)
	if m.WindowRate() != 0 || m.GlobalRate() != 0 {
		t.Error("rates before any beat should be 0")
	}
	m.Beat()
	if m.WindowRate() != 0 || m.GlobalRate() != 0 {
		t.Error("rates after a single beat should be 0")
	}
}

func TestSteadyRate(t *testing.T) {
	m, clk := newTestMonitor(t, 20)
	// Beat every 100ms -> 10 beats/sec.
	for i := 0; i < 50; i++ {
		m.Beat()
		clk.Advance(100 * time.Millisecond)
	}
	if got := m.WindowRate(); math.Abs(got-10) > 1e-9 {
		t.Errorf("WindowRate = %v, want 10", got)
	}
	if got := m.GlobalRate(); math.Abs(got-10) > 1e-9 {
		t.Errorf("GlobalRate = %v, want 10", got)
	}
	if got := m.Count(); got != 50 {
		t.Errorf("Count = %v, want 50", got)
	}
}

func TestWindowRateTracksRecentChange(t *testing.T) {
	m, clk := newTestMonitor(t, 4)
	// 10 slow beats (1s apart), then 10 fast beats (0.1s apart).
	for i := 0; i < 10; i++ {
		m.Beat()
		clk.Advance(time.Second)
	}
	for i := 0; i < 10; i++ {
		m.Beat()
		clk.Advance(100 * time.Millisecond)
	}
	// Window of 4 covers only fast intervals now.
	if got := m.WindowRate(); math.Abs(got-10) > 1e-9 {
		t.Errorf("WindowRate = %v, want 10 (fast phase)", got)
	}
	// Global rate is dominated by the slow phase.
	if got := m.GlobalRate(); got > 5 {
		t.Errorf("GlobalRate = %v, want well below window rate", got)
	}
}

func TestLastInterval(t *testing.T) {
	m, clk := newTestMonitor(t, 20)
	m.Beat()
	clk.Advance(250 * time.Millisecond)
	m.Beat()
	if got := m.LastInterval(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("LastInterval = %v, want 0.25", got)
	}
}

func TestNormalizedPerformance(t *testing.T) {
	m, clk := newTestMonitor(t, 20) // target 10 beats/sec
	for i := 0; i < 21; i++ {
		m.Beat()
		clk.Advance(200 * time.Millisecond) // 5 beats/sec
	}
	if got := m.NormalizedPerformance(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("NormalizedPerformance = %v, want 0.5", got)
	}
}

func TestBelowAboveTarget(t *testing.T) {
	m, clk := newTestMonitor(t, 4)
	for i := 0; i < 10; i++ {
		m.Beat()
		clk.Advance(time.Second) // 1 beat/sec, target 10
	}
	if !m.BelowTarget() {
		t.Error("BelowTarget should be true at 1 beat/sec vs target 10")
	}
	if m.AboveTarget() {
		t.Error("AboveTarget should be false")
	}
	for i := 0; i < 10; i++ {
		m.Beat()
		clk.Advance(10 * time.Millisecond) // 100 beats/sec
	}
	if !m.AboveTarget() {
		t.Error("AboveTarget should be true at 100 beats/sec vs target 10")
	}
	if m.BelowTarget() {
		t.Error("BelowTarget should be false")
	}
}

func TestZeroElapsedWindow(t *testing.T) {
	m, _ := newTestMonitor(t, 8)
	m.Beat()
	m.Beat() // no clock advance: zero interval
	if got := m.WindowRate(); got != 0 {
		t.Errorf("WindowRate with zero elapsed time = %v, want 0", got)
	}
}

func TestConcurrentBeatsAndReads(t *testing.T) {
	m, clk := newTestMonitor(t, 20)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			m.Beat()
			clk.Advance(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			_ = m.WindowRate()
			_ = m.GlobalRate()
			_ = m.Count()
		}
	}()
	wg.Wait()
	if m.Count() != 1000 {
		t.Errorf("Count = %d, want 1000", m.Count())
	}
}

func TestHeartbeatLog(t *testing.T) {
	var buf strings.Builder
	clk := clock.NewVirtual(time.Unix(0, 0))
	m, err := NewMonitor(Target{Min: 10, Max: 10}, WithClock(clk), WithWindow(4), WithLog(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.Beat()
		clk.Advance(100 * time.Millisecond)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("log lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	// Each record: beat,unixnano,interval,windowrate.
	last := strings.Split(lines[2], ",")
	if len(last) != 4 {
		t.Fatalf("record fields = %v", last)
	}
	if last[0] != "3" {
		t.Errorf("beat number = %s, want 3", last[0])
	}
	if !strings.HasPrefix(last[2], "0.100") {
		t.Errorf("interval = %s, want 0.1s", last[2])
	}
	if !strings.HasPrefix(last[3], "10.0") {
		t.Errorf("window rate = %s, want 10", last[3])
	}
}
