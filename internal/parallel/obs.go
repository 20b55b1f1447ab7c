package parallel

import (
	"context"
	"time"

	"repro/internal/obs"
)

// poolObs holds the metrics one ForEachCtx-family call records into,
// resolved from the registry its context carries. With no registry the
// call runs its unobserved path untouched: not even time.Now is called.
type poolObs struct {
	// wall histograms the per-call wall time (queue + execution of the
	// whole batch, as seen by the caller).
	wall *obs.Histogram
	// busyNs accumulates per-worker busy time; busyNs / (wall ·
	// max_workers) is the pool occupancy. A timing gauge, excluded from
	// canonical snapshots.
	busyNs *obs.Gauge
}

// obsBegin records the start of one call over n tasks on w resolved
// workers into ctx's registry: "parallel/calls" and "parallel/tasks"
// (deterministic: pipeline code sizes its fan-outs by the problem,
// never by the worker count) and the "parallel/max_workers" gauge.
// Returns (nil, zero time) when ctx carries no registry.
func obsBegin(ctx context.Context, n, w int) (*poolObs, time.Time) {
	r := obs.FromContext(ctx)
	if r == nil {
		return nil, time.Time{}
	}
	r.Counter("parallel/calls").Inc()
	r.Counter("parallel/tasks").Add(int64(n))
	r.Gauge("parallel/max_workers").Max(int64(w))
	return &poolObs{wall: r.Histogram("parallel/call_wall"), busyNs: r.Gauge("parallel/worker_busy_ns")}, time.Now()
}

// end closes the call record opened by obsBegin.
func (o *poolObs) end(start time.Time) {
	if o == nil {
		return
	}
	o.wall.Observe(time.Since(start))
}

// busy accumulates one worker's busy interval.
func (o *poolObs) busy(start time.Time) {
	if o == nil {
		return
	}
	o.busyNs.Add(int64(time.Since(start)))
}
