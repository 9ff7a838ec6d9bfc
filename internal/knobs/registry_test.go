package knobs

import (
	"sync"
	"testing"
)

func TestRegistryApplyWritesRecordedValues(t *testing.T) {
	r := NewRegistry()
	var trials float64
	var weights []float64
	if err := r.RegisterVar("nTrials", func(v Value) { trials = v[0] }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterVar("weights", func(v Value) { weights = v }); err != nil {
		t.Fatal(err)
	}

	fast := Setting{100}
	slow := Setting{1000}
	if err := r.Record(fast, map[string]Value{"nTrials": {100}, "weights": {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Record(slow, map[string]Value{"nTrials": {1000}, "weights": {3, 4}}); err != nil {
		t.Fatal(err)
	}

	if err := r.Apply(fast); err != nil {
		t.Fatal(err)
	}
	if trials != 100 || weights[0] != 1 {
		t.Fatalf("after Apply(fast): trials=%v weights=%v", trials, weights)
	}
	if err := r.Apply(slow); err != nil {
		t.Fatal(err)
	}
	if trials != 1000 || weights[1] != 4 {
		t.Fatalf("after Apply(slow): trials=%v weights=%v", trials, weights)
	}
	if !r.Current().Equal(slow) {
		t.Fatalf("Current = %v, want %v", r.Current(), slow)
	}
	if r.Applies() != 2 {
		t.Fatalf("Applies = %d, want 2", r.Applies())
	}
}

func TestRegistryApplyUnknownSetting(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterVar("x", func(Value) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(Setting{5}); err == nil {
		t.Error("Apply of unrecorded setting should fail")
	}
}

func TestRegistryDuplicateVar(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterVar("x", func(Value) {}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterVar("x", func(Value) {}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := r.RegisterVar("y", nil); err == nil {
		t.Error("nil writer accepted")
	}
}

func TestRegistryRecordConsistencyCheck(t *testing.T) {
	r := NewRegistry()
	_ = r.RegisterVar("a", func(Value) {})
	_ = r.RegisterVar("b", func(Value) {})
	// Missing variable "b": the consistency condition fails.
	if err := r.Record(Setting{1}, map[string]Value{"a": {1}}); err == nil {
		t.Error("incomplete record accepted")
	}
	// Wrong variable name.
	if err := r.Record(Setting{1}, map[string]Value{"a": {1}, "c": {2}}); err == nil {
		t.Error("record with unknown variable accepted")
	}
	// Correct record.
	if err := r.Record(Setting{1}, map[string]Value{"a": {1}, "b": {2}}); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
}

func TestRegistryRecordedKeysSorted(t *testing.T) {
	r := NewRegistry()
	_ = r.RegisterVar("a", func(Value) {})
	_ = r.Record(Setting{2}, map[string]Value{"a": {2}})
	_ = r.Record(Setting{1}, map[string]Value{"a": {1}})
	got := r.Recorded()
	if len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("Recorded = %v", got)
	}
}

func TestRegistryValueIsolation(t *testing.T) {
	r := NewRegistry()
	var got Value
	_ = r.RegisterVar("v", func(v Value) { got = v })
	orig := map[string]Value{"v": {1, 2, 3}}
	_ = r.Record(Setting{1}, orig)
	orig["v"][0] = 99 // mutate caller's copy after recording
	if err := r.Apply(Setting{1}); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("recorded value aliased caller slice: got %v", got)
	}
	got[1] = 42 // mutate receiver's copy
	if err := r.Apply(Setting{1}); err != nil {
		t.Fatal(err)
	}
	if got[1] != 2 {
		t.Fatalf("applied value aliased registry storage: got %v", got)
	}
}

func TestRegistryCurrentNilBeforeApply(t *testing.T) {
	r := NewRegistry()
	if r.Current() != nil {
		t.Error("Current before Apply should be nil")
	}
}

func TestRegistryConcurrentApply(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	val := 0.0
	_ = r.RegisterVar("x", func(v Value) {
		mu.Lock()
		val = v[0]
		mu.Unlock()
	})
	_ = r.Record(Setting{1}, map[string]Value{"x": {1}})
	_ = r.Record(Setting{2}, map[string]Value{"x": {2}})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := Setting{int64(1 + i%2)}
			for j := 0; j < 200; j++ {
				if err := r.Apply(s); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if val != 1 && val != 2 {
		t.Fatalf("val = %v after concurrent applies", val)
	}
}

// TestRegistryApplyAllocs pins a steady-state Apply, alternating two
// recorded settings, at zero allocations.
func TestRegistryApplyAllocs(t *testing.T) {
	r := NewRegistry()
	var trials float64
	_ = r.RegisterVar("nTrials", func(v Value) { trials = v[0] })
	_ = r.RegisterVar("weights", func(Value) {})
	lo, hi := Setting{1, 10}, Setting{2, 20}
	_ = r.Record(lo, map[string]Value{"nTrials": {100}, "weights": {1, 2}})
	_ = r.Record(hi, map[string]Value{"nTrials": {1000}, "weights": {3, 4, 5}})
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		s := lo
		if i%2 == 0 {
			s = hi
		}
		if err := r.Apply(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Apply allocates %v times per call, want 0", allocs)
	}
	if err := r.Apply(lo); err != nil || trials != 100 {
		t.Errorf("after Apply(lo): err=%v nTrials=%v, want nil and 100", err, trials)
	}
}
