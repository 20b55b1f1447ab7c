package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// persistOpts exercises every codec on its rich variant: injected
// faults, a real partition, annealed allocation.
func persistOpts() Options {
	return Options{
		Seed:                2,
		Faults:              faults.UniformSpec(0.02),
		AnnealSteps:         25,
		PartitionTargetSize: 9,
	}
}

// TestDiskWarmColdProcessBitIdentical is the tentpole acceptance test:
// a cold process (fresh DesignCache, empty memory tier) pointed at a
// warm disk cache must produce a design bit-identical to the purely
// in-memory run, with every stage recalled from disk and none
// re-executed.
func TestDiskWarmColdProcessBitIdentical(t *testing.T) {
	ctx := context.Background()
	opts := persistOpts()

	// Reference: memory-only.
	ref, err := NewDesigner(chip.Square(5, 5)).RedesignCtx(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}

	// First persistent process: executes everything, writes through.
	dir := t.TempDir()
	warm, err := OpenDesignCache(dir, stage.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Designer(chip.Square(5, 5)).RedesignCtx(ctx, opts); err != nil {
		t.Fatal(err)
	}
	stages := PipelineStageGraph.Len()
	if rep := warm.Report(); rep.Misses != stages || rep.DiskHits != 0 {
		t.Fatalf("first persistent run: %d misses, %d disk hits; want %d, 0",
			rep.Misses, rep.DiskHits, stages)
	}
	if bs := warm.Store().BackendStats(); bs.Entries != stages {
		t.Fatalf("write-through persisted %d artifacts, want %d", bs.Entries, stages)
	}

	// Cold process, warm disk: zero executions, everything from disk.
	cold, err := OpenDesignCache(dir, stage.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cold.Designer(chip.Square(5, 5)).RedesignCtx(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := cold.Report()
	if rep.Misses != 0 {
		t.Fatalf("disk-warm run re-executed %d stages", rep.Misses)
	}
	if rep.DiskHits != stages {
		t.Fatalf("disk-warm run took %d disk hits, want %d", rep.DiskHits, stages)
	}

	if got, want := designFingerprint(p), designFingerprint(ref); got != want {
		t.Errorf("disk-warm design differs from in-memory design:\n--- warm ---\n%s--- memory ---\n%s", got, want)
	}
	if p.Calib != ref.Calib {
		t.Errorf("calibration stats differ: %+v != %+v", p.Calib, ref.Calib)
	}
	// The decoded device must carry the full fabricated physics, not
	// just the plan: crosstalk matrices are derived from the disorder
	// fields the codec persists.
	if !reflect.DeepEqual(p.Device.CrosstalkMatrix(xmon.XY), ref.Device.CrosstalkMatrix(xmon.XY)) {
		t.Error("decoded device's XY crosstalk differs from the fabricated one")
	}
	if !reflect.DeepEqual(p.Device.CrosstalkMatrix(xmon.ZZ), ref.Device.CrosstalkMatrix(xmon.ZZ)) {
		t.Error("decoded device's ZZ crosstalk differs from the fabricated one")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("disk-warm design fails validation: %v", err)
	}
}

// A replica sharing the cache directory of a live writer sees its
// artifacts: the two stores coordinate through atomic file renames,
// no locks.
func TestReplicasShareOneCacheDir(t *testing.T) {
	ctx := context.Background()
	opts := persistOpts()
	dir := t.TempDir()

	a, err := OpenDesignCache(dir, stage.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDesignCache(dir, stage.Config{}, 0) // opened before a writes
	if err != nil {
		t.Fatal(err)
	}
	pa, err := a.Designer(chip.Square(4, 4)).RedesignCtx(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Designer(chip.Square(4, 4)).RedesignCtx(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep := b.Report(); rep.Misses != 0 || rep.DiskHits == 0 {
		t.Fatalf("replica re-executed despite shared dir: %+v", rep)
	}
	if designFingerprint(pa) != designFingerprint(pb) {
		t.Error("replica design differs from writer design")
	}
}

// With codecs stripped to a subset, the covered stages persist and the
// rest silently stay memory-only — a partial-codec store degrades to
// partial warmth, never to an error.
func TestPartialCodecsDegradeGracefully(t *testing.T) {
	ctx := context.Background()
	opts := persistOpts()
	dir := t.TempDir()

	open := func() *DesignCache {
		dc, err := OpenDesignCache(dir, stage.Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		only := map[string]stage.Codec{StageFabricate: StageCodecs()[StageFabricate]}
		return NewDesignCacheWithStore(stage.NewStoreWith(stage.Config{
			Backend: dc.Store().Backend(),
			Codecs:  only,
		}))
	}
	if _, err := open().Designer(chip.Square(4, 4)).RedesignCtx(ctx, opts); err != nil {
		t.Fatal(err)
	}
	second := open()
	if _, err := second.Designer(chip.Square(4, 4)).RedesignCtx(ctx, opts); err != nil {
		t.Fatal(err)
	}
	rep := second.Report()
	if rep.DiskHits != 1 {
		t.Fatalf("fabricate-only codec map took %d disk hits, want 1", rep.DiskHits)
	}
	if rep.Misses != PipelineStageGraph.Len()-1 {
		t.Fatalf("uncovered stages: %d misses, want %d", rep.Misses, PipelineStageGraph.Len()-1)
	}
}
