package experiments

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stage"
)

// designSnapshot runs a full faulted design at the given worker count
// with a fresh registry capturing both the per-build stage metrics and
// the package counters of the work its stages execute, and returns the
// stripped (deterministic-subset) snapshot.
func designSnapshot(t *testing.T, workers int) obs.Snapshot {
	t.Helper()
	reg := obs.New()
	opts := Options{
		Seed:    3,
		Workers: workers,
		Faults:  faults.UniformSpec(0.02),
		Obs:     reg,
	}
	if _, err := BuildPipeline(chip.Square(5, 5), opts); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot().StripTimings()
}

// The observability determinism contract: every counter and histogram
// count of a design is a pure function of (chip, options, seed) — the
// worker budget moves only timings and gauges, which StripTimings
// removes.
func TestDesignSnapshotWorkerInvariant(t *testing.T) {
	seq := designSnapshot(t, 1)
	par := designSnapshot(t, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("stripped snapshots differ across worker counts:\nworkers=1: %+v\nworkers=4: %+v", seq, par)
	}
	if seq.Counters["stage/misses"] == 0 {
		t.Error("stage/misses stayed 0 across a cold design")
	}
	for _, name := range []string{"faults/pairs", "crosstalk/fits", "crosstalk/predictions", "parallel/tasks"} {
		if seq.Counters[name] == 0 {
			t.Errorf("%s stayed 0 across a cold faulted design", name)
		}
	}
	if h := seq.Histograms["build/design"]; h.Count != 1 || h.SumNs != 0 {
		t.Errorf("build/design histogram = %+v, want one build with its timing stripped", h)
	}
}

// A warm Redesign through a Designer must hit the cache and say so.
func TestRedesignHitCounters(t *testing.T) {
	reg := obs.New()
	d := NewDesigner(chip.Square(4, 4))
	opts := Options{Seed: 2, Obs: reg}
	if _, err := d.Redesign(opts); err != nil {
		t.Fatal(err)
	}
	cold := reg.Snapshot()
	if _, err := d.Redesign(opts); err != nil {
		t.Fatal(err)
	}
	warm := reg.Snapshot()
	if warm.Counters["stage/hits"] <= cold.Counters["stage/hits"] {
		t.Errorf("warm redesign added no stage/hits (cold %d, warm %d)",
			cold.Counters["stage/hits"], warm.Counters["stage/hits"])
	}
	if warm.Counters["stage/misses"] != cold.Counters["stage/misses"] {
		t.Errorf("warm redesign re-executed stages: misses %d -> %d",
			cold.Counters["stage/misses"], warm.Counters["stage/misses"])
	}
}

// Digest identifies the designed artifact, so the execution-only knobs
// — Workers, Fit.Workers and Obs — must not move it, while any
// design-relevant option must.
func TestOptionsDigestExcludesExecutionKnobs(t *testing.T) {
	base := Options{Seed: 2}
	same := Options{Seed: 2, Workers: 8, Obs: obs.New()}
	same.Fit.Workers = 4
	if base.Digest() != same.Digest() {
		t.Error("Workers/Obs moved the options digest")
	}
	for name, other := range map[string]Options{
		"seed":  {Seed: 3},
		"theta": {Seed: 2, Theta: 2, HasTheta: true},
		"fdm":   {Seed: 2, FDMCapacity: 3},
		"fault": {Seed: 2, Faults: faults.UniformSpec(0.01)},
	} {
		if other.Digest() == base.Digest() {
			t.Errorf("%s change left the digest unchanged", name)
		}
	}
}

// packageCounters are the package counters a cold build's stages drive:
// the fit, the calibration campaign and the worker pool.
var packageCounters = []string{"crosstalk/fits", "faults/pairs", "parallel/tasks"}

// soloCounters designs ch alone, on a fresh cache, and returns the
// packageCounters its registry received.
func soloCounters(t *testing.T, ch *chip.Chip, seed int64) map[string]int64 {
	t.Helper()
	r := obs.New()
	if _, err := NewDesignCache().Designer(ch).Redesign(Options{Seed: seed, Obs: r}); err != nil {
		t.Fatal(err)
	}
	c := r.Snapshot().Counters
	out := make(map[string]int64, len(packageCounters))
	for _, name := range packageCounters {
		if c[name] == 0 {
			t.Fatalf("%s = 0 after a cold design of %s", name, ch.Name)
		}
		out[name] = c[name]
	}
	return out
}

// Concurrent builds on one shared cache each count their own stage
// outcomes and package counters into the registry they carry. Build A
// is held inside its partition stage until build B, a different chip
// on the same store, has finished; every stage outcome of A (before
// and after B) must still land in A's registry, and B's in B's, and
// each build's package counters must equal what the same build counts
// when it runs alone.
func TestConcurrentBuildsCountIntoOwnRegistries(t *testing.T) {
	chipA, chipB := chip.Square(3, 3), chip.Square(3, 4)
	want := map[string]map[string]int64{"A": soloCounters(t, chipA, 1), "B": soloCounters(t, chipB, 2)}

	dc := NewDesignCache()
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	dc.Store().Wrap(func(name string, _ stage.Key, fn func(context.Context) (any, error)) func(context.Context) (any, error) {
		if name != StagePartition || !held.CompareAndSwap(false, true) {
			return fn
		}
		return func(ctx context.Context) (any, error) {
			close(entered)
			<-release
			return fn(ctx)
		}
	})
	ra, rb := obs.New(), obs.New()
	errA := make(chan error, 1)
	go func() {
		_, err := dc.Designer(chipA).Redesign(Options{Seed: 1, Obs: ra})
		errA <- err
	}()
	select {
	case <-entered:
	case err := <-errA:
		t.Fatalf("build A ended before its partition stage: %v", err)
	}
	_, errB := dc.Designer(chipB).Redesign(Options{Seed: 2, Obs: rb})
	close(release)
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	if errB != nil {
		t.Fatal(errB)
	}
	// A fault-free build without anneal executes nine stages.
	const executed = 9
	for name, r := range map[string]*obs.Registry{"A": ra, "B": rb} {
		c := r.Snapshot().Counters
		if got := c["stage/hits"] + c["stage/misses"] + c["stage/disk_hits"]; got != executed {
			t.Errorf("build %s's registry counted %d stage outcomes (%d hits, %d misses), want %d",
				name, got, c["stage/hits"], c["stage/misses"], executed)
		}
		for counter, v := range want[name] {
			if c[counter] != v {
				t.Errorf("build %s's registry counted %s = %d, want %d as when it runs alone", name, counter, c[counter], v)
			}
		}
	}
}
