package experiments

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/xmon"
)

// TestRedesignColdWarmBitIdentity is the incremental-redesign contract:
// a warm Designer.Redesign at new options must be bit-identical to a
// cold BuildPipeline at those options, across seeds and worker counts.
// The 6×6 chip with a small partition target exercises the partitioned
// path; the Theta change makes the warm build mix cached artifacts
// (models, partition, frequency plan) with a fresh TDM grouping.
func TestRedesignColdWarmBitIdentity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 4} {
			opts := Options{
				Seed:                seed,
				Workers:             workers,
				PartitionTargetSize: 16,
				Theta:               4,
				HasTheta:            true,
			}
			d := NewDesigner(chip.Square(6, 6))
			if _, err := d.Redesign(opts); err != nil {
				t.Fatalf("seed %d workers %d: cold designer build: %v", seed, workers, err)
			}
			opts.Theta = 6
			warm, err := d.Redesign(opts)
			if err != nil {
				t.Fatalf("seed %d workers %d: warm redesign: %v", seed, workers, err)
			}
			cold, err := BuildPipeline(chip.Square(6, 6), opts)
			if err != nil {
				t.Fatalf("seed %d workers %d: cold build: %v", seed, workers, err)
			}
			if got, want := designFingerprint(warm), designFingerprint(cold); got != want {
				t.Errorf("seed %d workers %d: warm redesign differs from cold build:\n--- warm ---\n%s--- cold ---\n%s",
					seed, workers, got, want)
			}
		}
	}
}

// TestRedesignThetaInvalidatesOnlyTDM asserts the invalidation scope of
// a Theta change: only the tdm stage re-executes (Theta appears in no
// other stage's key), every upstream artifact is recalled — the
// Theta-independent tdm-gates analysis included — and in particular
// zero crosstalk measurements or fits happen: the acceptance criterion
// of the incremental engine.
func TestRedesignThetaInvalidatesOnlyTDM(t *testing.T) {
	opts := Options{Seed: 1, PartitionTargetSize: 16, Theta: 4, HasTheta: true}
	d := NewDesigner(chip.Square(6, 6))
	if _, err := d.Redesign(opts); err != nil {
		t.Fatal(err)
	}
	before := d.Report()
	opts.Theta = 6
	if _, err := d.Redesign(opts); err != nil {
		t.Fatal(err)
	}
	delta := d.Report().Sub(before)
	gatesHit := false
	for _, st := range delta.Stages {
		if st.Name == StageTDM {
			if st.Misses != 1 {
				t.Errorf("tdm stage executed %d times on the warm redesign, want 1", st.Misses)
			}
			continue
		}
		if st.Name == StageTDMGates {
			gatesHit = st.Runs == 1 && st.Hits == 1
		}
		if st.Misses != 0 {
			t.Errorf("stage %s re-executed on a Theta-only change (%d misses)", st.Name, st.Misses)
		}
		if st.Runs > 0 && st.Hits != st.Runs {
			t.Errorf("stage %s: %d of %d runs missed the cache", st.Name, st.Runs-st.Hits, st.Runs)
		}
	}
	if !gatesHit {
		t.Error("the warm redesign did not recall the tdm-gates artifact exactly once")
	}

	// The declared stage graph agrees: tdm consumes the ZZ model, and
	// nothing downstream of tdm exists to invalidate.
	if ds := PipelineStageGraph.Downstream(StageCharacterizeZZ); len(ds) == 0 || ds[len(ds)-1] != StageTDM {
		t.Errorf("graph: Downstream(characterize-zz) = %v, want it to end at tdm", ds)
	}
	if ds := PipelineStageGraph.Downstream(StageTDM); len(ds) != 0 {
		t.Errorf("graph: tdm has downstream stages %v; a Theta change must invalidate them too", ds)
	}
}

// TestRedesignTDMGatesLineage: the Theta-independent tdm-gates stage
// re-executes, and tdm with it, when its fault or ZZ lineage moves: a
// new fault spec, or a new sample cap for the characterization fits.
func TestRedesignTDMGatesLineage(t *testing.T) {
	base := Options{Seed: 1, PartitionTargetSize: 16}
	d := NewDesigner(chip.Square(6, 6))
	if _, err := d.Redesign(base); err != nil {
		t.Fatal(err)
	}
	withFaults, fewerSamples := base, base
	withFaults.Faults = faults.UniformSpec(0.02)
	fewerSamples.MaxFitSamples = 400
	for _, tc := range []struct {
		name string
		opts Options
	}{{"fault spec", withFaults}, {"ZZ lineage", fewerSamples}} {
		before := d.Report()
		if _, err := d.Redesign(tc.opts); err != nil {
			t.Fatal(err)
		}
		misses := map[string]int{}
		for _, st := range d.Report().Sub(before).Stages {
			misses[st.Name] = st.Misses
		}
		for _, name := range []string{StageCharacterizeZZ, StageTDMGates, StageTDM} {
			if misses[name] != 1 {
				t.Errorf("%s change: stage %s executed %d times, want 1", tc.name, name, misses[name])
			}
		}
	}
	for _, upstream := range []string{StageFaults, StagePartition, StageCharacterizeZZ} {
		if ds := PipelineStageGraph.Downstream(upstream); !slices.Contains(ds, StageTDMGates) || !slices.Contains(ds, StageTDM) {
			t.Errorf("graph: Downstream(%s) = %v, want tdm-gates and tdm in it", upstream, ds)
		}
	}
}

// TestRedesignSameOptionsFullyCached: repeating identical options
// recalls every stage.
func TestRedesignSameOptionsFullyCached(t *testing.T) {
	opts := Options{Seed: 2}
	d := NewDesigner(chip.Square(4, 4))
	p1, err := d.Redesign(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Report()
	p2, err := d.Redesign(opts)
	if err != nil {
		t.Fatal(err)
	}
	delta := d.Report().Sub(before)
	if delta.Misses != 0 {
		t.Errorf("identical redesign executed %d stages, want 0", delta.Misses)
	}
	if designFingerprint(p1) != designFingerprint(p2) {
		t.Error("identical redesigns differ")
	}
}

// TestDesignerDoesNotMutateChip: the prototype handed to NewDesigner
// keeps zero base frequencies; fabrication happens on a clone.
func TestDesignerDoesNotMutateChip(t *testing.T) {
	c := chip.Square(4, 4)
	d := NewDesigner(c)
	p, err := d.Redesign(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range c.Qubits {
		if q.BaseFreq != 0 {
			t.Fatalf("designer mutated the prototype chip (q%d BaseFreq=%v)", q.ID, q.BaseFreq)
		}
	}
	if p.Chip == c {
		t.Fatal("pipeline chip is the prototype, want a fabricated clone")
	}
	if p.Chip.Qubits[0].BaseFreq == 0 {
		t.Fatal("fabricated clone has no base frequencies")
	}
}

// TestDesignCacheSharesIdenticalChips: two distinct chip values with
// equal fingerprints share every artifact through one DesignCache.
func TestDesignCacheSharesIdenticalChips(t *testing.T) {
	cache := NewDesignCache()
	opts := Options{Seed: 3}
	p1, err := cache.Designer(chip.Square(4, 4)).Redesign(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Report()
	p2, err := cache.Designer(chip.Square(4, 4)).Redesign(opts)
	if err != nil {
		t.Fatal(err)
	}
	delta := cache.Report().Sub(before)
	if delta.Misses != 0 {
		t.Errorf("second identical chip executed %d stages, want 0", delta.Misses)
	}
	if designFingerprint(p1) != designFingerprint(p2) {
		t.Error("designs differ across identical chips")
	}
}

// TestDesignerOnDeviceBitIdentity: the device-mode Designer reproduces
// BuildPipelineOnDevice bit for bit and caches across redesigns.
func TestDesignerOnDeviceBitIdentity(t *testing.T) {
	c := chip.Square(4, 4)
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(9)))
	opts := Options{Seed: 5}
	cold, err := BuildPipelineOnDevice(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDesignerOnDevice(dev)
	warm, err := d.Redesign(opts)
	if err != nil {
		t.Fatal(err)
	}
	if designFingerprint(cold) != designFingerprint(warm) {
		t.Error("device designer differs from BuildPipelineOnDevice")
	}
	before := d.Report()
	if _, err := d.Redesign(opts); err != nil {
		t.Fatal(err)
	}
	if delta := d.Report().Sub(before); delta.Misses != 0 {
		t.Errorf("repeated device redesign executed %d stages", delta.Misses)
	}
}

// TestBuildPipelineOnDeviceCtxCancel: device builds honor their context
// (the satellite fix — they used to hardwire context.Background()).
func TestBuildPipelineOnDeviceCtxCancel(t *testing.T) {
	c := chip.Square(4, 4)
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(1)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildPipelineOnDeviceCtx(ctx, dev, Options{Seed: 1}); err == nil {
		t.Fatal("canceled context did not abort the device build")
	}
}

// TestDefectSweepCacheCounts: a repeated rate is served entirely from
// the artifact store, and the point logs it.
func TestDefectSweepCacheCounts(t *testing.T) {
	points, err := DefectSweep(context.Background(), chip.Square(4, 4), []float64{0.02, 0.02}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].CacheMisses == 0 {
		t.Error("first point reports zero executed stages")
	}
	if points[1].CacheMisses != 0 {
		t.Errorf("repeated rate executed %d stages, want 0", points[1].CacheMisses)
	}
	if points[1].CacheHits == 0 {
		t.Error("repeated rate reports zero cache hits")
	}
	if points[0].XYLines != points[1].XYLines || points[0].GateFidelity != points[1].GateFidelity {
		t.Error("repeated rate produced a different design")
	}
}

// TestRedesignAllHitAllocs bounds the per-build overhead of a redesign
// that recalls every stage from memory: keying, scheduling and the
// Pipeline assembly, with no stage executing. Warm serving traffic pays
// this on every request.
func TestRedesignAllHitAllocs(t *testing.T) {
	for _, tc := range []struct {
		workers int
		max     float64
	}{{1, 32}, {2, 32}} {
		d := NewDesigner(chip.Square(5, 5))
		opts := Options{Seed: 1, Workers: tc.workers}
		if _, err := d.Redesign(opts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.Redesign(opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers %d: %.0f allocs per all-hit redesign", tc.workers, allocs)
		if allocs > tc.max {
			t.Errorf("workers %d: %.0f allocs per all-hit redesign, want <= %.0f", tc.workers, allocs, tc.max)
		}
	}
}
