package parallel

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// Pool counters must be a pure function of the submitted work: equal
// for any worker count, with only gauges/histogram timing differing.
// Only the calls whose context carries the registry count.
func TestPoolCountersWorkerInvariant(t *testing.T) {
	run := func(workers int) obs.Snapshot {
		r := obs.New()
		ctx := obs.NewContext(context.Background(), r)
		out := make([]int, 100)
		_ = ForEachCtx(ctx, workers, len(out), func(i int) error { out[i] = i; return nil })
		_ = ForEachCtxWorker(ctx, workers, 40, func(w, i int) error { return nil })
		_ = ForEachCtx(ctx, workers, 25, func(i int) error { return nil })
		_ = ForEachCtxWorker(ctx, workers, 10, func(w, i int) error { return nil })
		ForEach(workers, len(out), func(i int) { out[i] = i })
		_ = ForEachCtx(context.Background(), workers, 30, func(i int) error { return nil })
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
	sinks := make([]int, 64) // one slot per task: tasks run concurrently
	_ = ForEachCtx(obs.NewContext(context.Background(), r), 4, 64, func(i int) error {
		for k := 0; k < 1000; k++ {
			sinks[i] += k ^ i
		}
		return nil
	})
	if busy := r.Gauge("parallel/worker_busy_ns").Load(); busy <= 0 {
		t.Fatalf("worker_busy_ns = %d, want > 0", busy)
	}
}

// The uncounted sequential dispatch path must not allocate — the
// acceptance gate for disabled-observability hot paths.
func TestForEachDisabledObsZeroAlloc(t *testing.T) {
	out := make([]int, 16)
	fn := func(i int) { out[i] = i }
	allocs := testing.AllocsPerRun(200, func() {
		ForEach(1, len(out), fn)
	})
	if allocs != 0 {
		t.Fatalf("ForEach(workers=1): %.1f allocs/op, want 0", allocs)
	}
	wfn := func(w, i int) { out[i] = w }
	allocs = testing.AllocsPerRun(200, func() {
		ForEachWorker(1, len(out), wfn)
	})
	if allocs != 0 {
		t.Fatalf("ForEachWorker(workers=1): %.1f allocs/op, want 0", allocs)
	}
}

// A call records into the registry its own context carries and into no
// other: calls on a context without it leave the registry alone.
func TestObserveDisableStopsRecording(t *testing.T) {
	r := obs.New()
	_ = ForEachCtx(obs.NewContext(context.Background(), r), 2, 10, func(i int) error { return nil })
	before := r.Counter("parallel/calls").Load()
	if before != 1 {
		t.Fatalf("calls = %d after one observed call, want 1", before)
	}
	_ = ForEachCtx(context.Background(), 2, 10, func(i int) error { return nil })
	_ = ForEachCtx(obs.NewContext(context.Background(), obs.New()), 2, 10, func(i int) error { return nil })
	if after := r.Counter("parallel/calls").Load(); after != before {
		t.Fatalf("calls moved on other contexts: %d -> %d", before, after)
	}
}
