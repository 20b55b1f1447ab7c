package parallel

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// Pool counters must be a pure function of the submitted work: equal
// for any worker count, with only gauges/histogram timing differing.
func TestPoolCountersWorkerInvariant(t *testing.T) {
	run := func(workers int) obs.Snapshot {
		r := obs.New()
		Observe(r)
		defer Observe(nil)
		out := make([]int, 100)
		ForEach(workers, len(out), func(i int) { out[i] = i })
		_ = ForEachErr(workers, 40, func(i int) error { return nil })
		_ = ForEachCtx(context.Background(), workers, 25, func(i int) error { return nil })
		ForEachWorker(workers, 10, func(w, i int) {})
		return r.Snapshot()
	}
	s1, s4 := run(1), run(4)
	if !reflect.DeepEqual(s1.StripTimings(), s4.StripTimings()) {
		t.Fatalf("stripped pool snapshots differ between Workers=1 and Workers=4:\n%+v\n%+v",
			s1.StripTimings(), s4.StripTimings())
	}
	if got := s1.Counters["parallel/calls"]; got != 4 {
		t.Fatalf("calls = %d, want 4", got)
	}
	if got := s1.Counters["parallel/tasks"]; got != 175 {
		t.Fatalf("tasks = %d, want 175", got)
	}
	if s4.Gauges["parallel/max_workers"] != 4 {
		t.Fatalf("max_workers gauge = %d, want 4", s4.Gauges["parallel/max_workers"])
	}
	if h := s4.Histograms["parallel/call_wall"]; h.Count != 4 {
		t.Fatalf("call_wall count = %d, want 4", h.Count)
	}
}

func TestPoolObsBusyRecorded(t *testing.T) {
	r := obs.New()
	Observe(r)
	defer Observe(nil)
	sinks := make([]int, 64) // one slot per task: tasks run concurrently
	ForEach(4, 64, func(i int) {
		for k := 0; k < 1000; k++ {
			sinks[i] += k ^ i
		}
	})
	if busy := r.Gauge("parallel/worker_busy_ns").Load(); busy <= 0 {
		t.Fatalf("worker_busy_ns = %d, want > 0", busy)
	}
	_ = sinks
}

// With no observer installed, the sequential dispatch path must not
// allocate — the acceptance gate for disabled-observability hot paths.
func TestForEachDisabledObsZeroAlloc(t *testing.T) {
	Observe(nil)
	out := make([]int, 16)
	fn := func(i int) { out[i] = i }
	allocs := testing.AllocsPerRun(200, func() {
		ForEach(1, len(out), fn)
	})
	if allocs != 0 {
		t.Fatalf("ForEach(workers=1) with disabled obs: %.1f allocs/op, want 0", allocs)
	}
	wfn := func(w, i int) { out[i] = w }
	allocs = testing.AllocsPerRun(200, func() {
		ForEachWorker(1, len(out), wfn)
	})
	if allocs != 0 {
		t.Fatalf("ForEachWorker(workers=1) with disabled obs: %.1f allocs/op, want 0", allocs)
	}
}

// Enabling and disabling the observer mid-flight must be race-free
// (atomic pointer swap) and leave later calls unobserved.
func TestObserveDisableStopsRecording(t *testing.T) {
	r := obs.New()
	Observe(r)
	ForEach(2, 10, func(i int) {})
	Observe(nil)
	before := r.Counter("parallel/calls").Load()
	ForEach(2, 10, func(i int) {})
	if after := r.Counter("parallel/calls").Load(); after != before {
		t.Fatalf("calls moved after disable: %d -> %d", before, after)
	}
}
