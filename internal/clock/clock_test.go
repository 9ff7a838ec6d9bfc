package clock

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestVirtualStartsAtGivenTime(t *testing.T) {
	start := time.Date(2011, 3, 5, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	if got := v.Now(); !got.Equal(start) {
		t.Fatalf("Now() = %v, want %v", got, start)
	}
}

func TestVirtualAdvance(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewVirtual(start)
	v.Advance(1500 * time.Millisecond)
	want := start.Add(1500 * time.Millisecond)
	if got := v.Now(); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestVirtualAdvanceSeconds(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	v.AdvanceSeconds(2.5)
	if got, want := v.Now().Sub(time.Unix(0, 0)), 2500*time.Millisecond; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

func TestVirtualAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewVirtual(time.Unix(0, 0)).Advance(-time.Second)
}

func TestVirtualSet(t *testing.T) {
	v := NewVirtual(time.Unix(100, 0))
	v.Set(time.Unix(200, 0))
	if got := v.Now(); !got.Equal(time.Unix(200, 0)) {
		t.Fatalf("Now() after Set = %v", got)
	}
}

func TestVirtualSetBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set to the past did not panic")
		}
	}()
	v := NewVirtual(time.Unix(100, 0))
	v.Set(time.Unix(50, 0))
}

// TestVirtualZeroValue pins what an unconstructed Virtual reads: the
// zero time.Time (0001-01-01 UTC), not the Unix epoch.
func TestVirtualZeroValue(t *testing.T) {
	var v Virtual
	if got := v.Now(); got != (time.Time{}) {
		t.Fatalf("zero Virtual reads %v, want time.Time{}", got)
	}
	v.Advance(time.Second)
	if got, want := v.Now(), (time.Time{}).Add(time.Second); got != want {
		t.Fatalf("zero Virtual after Advance(1s) reads %v, want %v", got, want)
	}
}

func TestVirtualAdvanceOverflowPanics(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	v.Advance(math.MaxInt64 - 10)
	v.Advance(10) // exactly at the end of the range: allowed
	defer func() {
		if recover() == nil {
			t.Fatal("Advance past the offset range did not panic")
		}
	}()
	v.Advance(1)
}

func TestVirtualSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set past the offset range did not panic")
		}
	}()
	v := NewVirtual(time.Unix(0, 0))
	v.Set(time.Unix(0, 0).AddDate(300, 0, 0))
}

// TestVirtualAdvanceIsExact holds the lock-free clock to the arithmetic
// of the mutex clock it replaced: after any sequence of Advance and Set,
// Now is == (not merely Equal) the start folded through time.Time.Add
// step by step, so a drift in location or monotonic reading fails.
func TestVirtualAdvanceIsExact(t *testing.T) {
	starts := []struct {
		name  string
		start time.Time
	}{
		{"unix", time.Unix(1_300_000_000, 123_456_789)},
		{"unix-zero", time.Unix(0, 0)},
		{"date-utc", time.Date(2011, 3, 5, 23, 59, 59, 999_999_999, time.UTC)},
		{"date-zone", time.Date(2011, 3, 5, 12, 0, 0, 0, time.FixedZone("ASPLOS", -7*3600))},
		{"now", time.Now()}, // carries a monotonic reading
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range starts {
		name, start := tc.name, tc.start
		for trial := 0; trial < 50; trial++ {
			v := NewVirtual(start)
			want := start
			for step := 0; step < 40; step++ {
				var d time.Duration
				switch rng.Intn(4) {
				case 0:
					d = time.Duration(rng.Int63n(1000)) // sub-microsecond
				case 1:
					d = time.Duration(rng.Int63n(int64(2 * time.Second)))
				case 2:
					d = time.Duration(rng.Int63n(int64(24 * time.Hour)))
				default:
					d = 0
				}
				if rng.Intn(10) == 0 {
					at := want.Add(d)
					v.Set(at)
					want = at
				} else {
					v.Advance(d)
					want = want.Add(d)
				}
				if got := v.Now(); got != want {
					t.Fatalf("%s trial %d step %d: Now() = %#v, want %#v", name, trial, step, got, want)
				}
			}
		}
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	const workers, readers, steps = 8, 4, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for i := 0; i < readers; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			last := v.Now()
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := v.Now()
				if now.Before(last) {
					t.Errorf("reader saw time go backwards: %v then %v", last, now)
					return
				}
				last = now
			}
		}()
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				v.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	want := time.Unix(0, 0).Add(workers * steps * time.Millisecond)
	if got := v.Now(); !got.Equal(want) {
		t.Fatalf("concurrent advance lost updates: Now() = %v, want %v", got, want)
	}
}

func TestRealClockMovesForward(t *testing.T) {
	var r Real
	a := r.Now()
	b := r.Now()
	if b.Before(a) {
		t.Fatalf("real clock ran backwards: %v then %v", a, b)
	}
}
