// Package obs is the dependency-free observability core of the YOUTIAO
// pipeline: atomic counters and gauges, fixed-bucket latency histograms
// with quantile estimation, all collected behind a Registry that
// renders stable-JSON Snapshots (see snapshot.go) and an expvar-style
// HTTP handler (see http.go).
//
// Two contracts shape the design:
//
//   - Disabled is free. Every metric type and the Registry itself are
//     nil-safe: methods on a nil receiver are no-ops that neither
//     allocate nor synchronize, so hot paths (state-vector kernels,
//     worker-pool dispatch) instrument unconditionally and pay only a
//     nil check when observability is off.
//
//   - Counters are deterministic, timing is not. Counter values are
//     pure functions of the work performed — invariant in the worker
//     count, the scheduler and the wall clock — so two runs at the same
//     options and seed produce byte-identical counter sections.
//     Gauges and histogram quantiles and sums measure the execution
//     itself and differ run to run; Snapshot.StripTimings
//     removes exactly those fields, which is what lets CI diff two run
//     manifests. Observability never feeds back into the design:
//     nothing in this package participates in artifact keys or RNG
//     streams.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil Counter
// is a valid no-op, so hot paths can hold a *Counter that is nil while
// observability is disabled.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value: capacity, occupancy,
// accumulated busy time. Unlike counters, gauges carry no determinism
// contract — they may depend on the machine, the worker count and the
// scheduler — so StripTimings drops them from canonical snapshots.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add accumulates v. No-op on a nil receiver.
func (g *Gauge) Add(v int64) {
	if g == nil {
		return
	}
	g.v.Add(v)
}

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. The nil *Registry is the
// disabled registry: every lookup returns a nil metric whose methods
// no-op, so a single `Options.Obs *obs.Registry` field (nil by default)
// switches the whole instrumentation layer.
//
// Metric lookups take a mutex and are meant for setup-time resolution:
// resolve `r.Counter("pkg/op")` once and hold the *Counter in the hot
// path (see internal/parallel's package observer for the pattern).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter, or nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge, or nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named latency histogram,
// or nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}
