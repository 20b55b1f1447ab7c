package xmon

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/hypo/testkit"
)

// TestMeasureSeededWorkerCountInvariant: the parallel calibration
// campaign must return byte-identical samples for Workers=1 and
// Workers=4 across several seeds — each pair's noise comes from its
// own split stream, never from a shared generator.
func TestMeasureSeededWorkerCountInvariant(t *testing.T) {
	d := NewDevice(chip.Square(5, 5), DefaultParams(), rand.New(rand.NewSource(1)))
	testkit.SeedMatrix(t, []int64{1, 2, 3}, func(t *testing.T, seed int64) {
		for _, kind := range []CrosstalkKind{XY, ZZ} {
			testkit.WorkerInvariant(t, 1, []int{4}, func(workers int) []Sample {
				return measureSeeded(t, d, kind, 0.05, seed, workers)
			})
		}
	})
}

// TestMeasureSeededPairOrderMatchesMeasure: the parallel campaign must
// keep Measure's (i<j) pair enumeration so downstream subsampling and
// fitting see the same dataset shape.
func TestMeasureSeededPairOrderMatchesMeasure(t *testing.T) {
	d := NewDevice(chip.Square(4, 4), DefaultParams(), rand.New(rand.NewSource(2)))
	ref := d.Measure(XY, 0, rand.New(rand.NewSource(9)))
	got := measureSeeded(t, d, XY, 0, 9, 4)
	if len(got) != len(ref) {
		t.Fatalf("%d vs %d samples", len(got), len(ref))
	}
	for p := range ref {
		if got[p].I != ref[p].I || got[p].J != ref[p].J {
			t.Fatalf("pair %d: (%d,%d) vs (%d,%d)", p, got[p].I, got[p].J, ref[p].I, ref[p].J)
		}
		// With noiseRel = 0 the measured values are the latent
		// crosstalk, independent of any RNG scheme.
		if got[p].Value != ref[p].Value {
			t.Fatalf("pair %d: noiseless values differ", p)
		}
	}
}

// TestMeasureSeededSeedSensitivity: different seeds must produce
// different noise realizations (the streams are real randomness, not
// a constant).
func TestMeasureSeededSeedSensitivity(t *testing.T) {
	d := NewDevice(chip.Square(4, 4), DefaultParams(), rand.New(rand.NewSource(3)))
	a := measureSeeded(t, d, XY, 0.05, 1, 4)
	b := measureSeeded(t, d, XY, 0.05, 2, 4)
	same := 0
	for p := range a {
		if a[p].Value == b[p].Value {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 1 and 2 produced identical campaigns")
	}
}

// measureSeeded runs d's seeded campaign on a background context.
func measureSeeded(t *testing.T, d *Device, kind CrosstalkKind, noiseRel float64, seed int64, workers int) []Sample {
	t.Helper()
	samples, err := d.MeasureSeeded(context.Background(), kind, noiseRel, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}
