// Package clock provides real and virtual time sources.
//
// Every PowerDial subsystem that observes time (heartbeats, controllers,
// power meters, cluster simulation) takes a Clock rather than calling
// time.Now directly. Experiments run on a Virtual clock so that results
// are deterministic and so that simulated DVFS frequency changes can
// stretch or shrink the duration of application work.
package clock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonic time source.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// Waiter is a Clock that can also block until a later instant — the
// seam the wall-clock serving mode paces on. Real sleeps on the system
// clock; Virtual advances itself instead, so pacing logic written
// against Waiter runs instantly and deterministically under test.
type Waiter interface {
	Clock
	// Sleep blocks until d has elapsed on this clock (returns
	// immediately for d <= 0).
	Sleep(d time.Duration)
}

// Real is a Clock backed by the system monotonic clock.
type Real struct{}

// Now returns the current wall-clock time.
//
//fleetvet:allow nodeterm Real is the one sanctioned wall-clock boundary; everything else takes a Clock
func (Real) Now() time.Time { return time.Now() }

// Sleep blocks on the system clock.
//
//fleetvet:allow nodeterm Real is the one sanctioned wall-clock boundary; everything else takes a Waiter
func (Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Virtual is a manually advanced Clock. The zero value reads time.Time{}
// (0001-01-01 UTC) and is safe for concurrent use.
//
// The clock is an immutable start plus an atomic offset, so no read or
// advance takes a lock. That is exact: time.Time.Add is integer
// arithmetic on the wall and monotonic readings, so start.Add(d1+…+dn)
// equals start.Add(d1)…Add(dn), location included. The offset spans
// ≈ 292 years; Advance panics rather than wrap past it.
type Virtual struct {
	base time.Time
	off  atomic.Int64 // nanoseconds since base
}

// NewVirtual returns a Virtual clock positioned at start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{base: start}
}

// Now returns the current virtual time.
//
//fleetvet:noalloc
func (v *Virtual) Now() time.Time {
	return v.base.Add(time.Duration(v.off.Load()))
}

// Advance moves the clock forward by d. It panics if d is negative:
// virtual time, like real time, never runs backwards. It also panics if
// the clock would run past the end of its offset range.
//
//fleetvet:noalloc
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("clock: Advance by negative duration %v", d))
	}
	if n := v.off.Add(int64(d)); n < int64(d) {
		panic(fmt.Sprintf("clock: Advance by %v overflows the virtual clock", d))
	}
}

// AdvanceSeconds moves the clock forward by s seconds, a convenience for
// simulation code that works in float64 seconds.
func (v *Virtual) AdvanceSeconds(s float64) {
	v.Advance(time.Duration(s * float64(time.Second)))
}

// Sleep advances the clock by d and returns immediately: virtual
// waiting costs no wall time, which is what makes pacing logic written
// against Waiter deterministic under test.
func (v *Virtual) Sleep(d time.Duration) {
	if d > 0 {
		v.Advance(d)
	}
}

// Set positions the clock at t. It panics if t is earlier than the current
// virtual time, or beyond the clock's offset range. Now then reports t's
// instant in the location of the clock's start.
func (v *Virtual) Set(t time.Time) {
	d := int64(t.Sub(v.base))
	if !v.base.Add(time.Duration(d)).Equal(t) {
		panic(fmt.Sprintf("clock: Set to %v is out of range of a clock that started at %v", t, v.base))
	}
	for {
		cur := v.off.Load()
		if d < cur {
			panic(fmt.Sprintf("clock: Set to %v before current %v", t, v.base.Add(time.Duration(cur))))
		}
		if v.off.CompareAndSwap(cur, d) {
			return
		}
	}
}
