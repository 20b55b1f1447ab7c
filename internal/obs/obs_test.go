package obs

import (
	"reflect"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter lookup is not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(3)
	if got := g.Load(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	g.Max(4)
	if got := g.Load(); got != 10 {
		t.Fatalf("Max lowered the gauge to %d", got)
	}
	g.Max(25)
	if got := g.Load(); got != 25 {
		t.Fatalf("Max(25) = %d, want 25", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter loaded non-zero")
	}
	g := r.Gauge("x")
	g.Set(1)
	g.Max(2)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded non-zero")
	}
	h := r.Histogram("x")
	h.Observe(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestSnapshotStripTimings(t *testing.T) {
	r := New()
	r.Counter("jobs").Add(2)
	r.Gauge("busy_ns").Add(12345)
	r.Histogram("lat").Observe(3 * time.Millisecond)

	s := r.Snapshot().StripTimings()
	if s.Counters["jobs"] != 2 {
		t.Fatalf("counter lost: %+v", s)
	}
	if s.Gauges != nil {
		t.Fatalf("gauges survived StripTimings: %v", s.Gauges)
	}
	h := s.Histograms["lat"]
	if h.Count != 1 || h.SumNs != 0 || h.P50Ns != 0 || h.P95Ns != 0 || h.P99Ns != 0 {
		t.Fatalf("histogram timing survived: %+v", h)
	}
}

// Stripped snapshots of two registries that observed the same work must
// be deeply equal even though the raw snapshots differ in timing.
func TestStrippedSnapshotsEqualAcrossRuns(t *testing.T) {
	run := func(sleep time.Duration) Snapshot {
		r := New()
		r.Counter("ops").Add(42)
		h := r.Histogram("lat")
		h.Observe(sleep)
		h.Observe(2 * sleep)
		return r.Snapshot()
	}
	a, b := run(time.Microsecond), run(50*time.Microsecond)
	if reflect.DeepEqual(a, b) {
		t.Fatal("raw snapshots unexpectedly equal (timing should differ)")
	}
	if !reflect.DeepEqual(a.StripTimings(), b.StripTimings()) {
		t.Fatalf("stripped snapshots differ:\n%+v\n%+v", a.StripTimings(), b.StripTimings())
	}
}

// The disabled (nil) registry must be free on the hot path: no
// allocations for counter adds or histogram observes.
func TestDisabledRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("x")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled-registry hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		return r
	}
	j1, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", j1, j2)
	}
}
