package crosstalk

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/xmon"
)

// measure runs dev's sequential seeded campaign on a background
// context.
func measure(t *testing.T, dev *xmon.Device, kind xmon.CrosstalkKind, noiseRel float64, seed int64) []xmon.Sample {
	t.Helper()
	samples, err := dev.MeasureSeeded(context.Background(), kind, noiseRel, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestFitClassesCounter: crosstalk/fit_classes counts the CV forests a
// fit grows, one per ordinal class of weight candidates plus one per
// candidate the midpoint check re-runs alone, and is the same for any
// worker count. The fit counts into the registry its context carries.
func TestFitClassesCounter(t *testing.T) {
	hex, err := chip.ByTopology("hexagon", 36)
	if err != nil {
		t.Fatal(err)
	}
	hexDev := xmon.NewDevice(hex, xmon.DefaultParams(), rand.New(rand.NewSource(7)))
	cases := []struct {
		name    string
		c       *chip.Chip
		samples []xmon.Sample
		want    int64
	}{
		// 15 candidates in 7 classes, no fallback.
		{"hexagon-36", hex, measure(t, hexDev, xmon.XY, 0.05, 13), 7},
		// 15 candidates in 2 classes; the 12-member class's
		// representative rounds a midpoint up, so 11 members fall back.
		{"ulp-line", ulpLineChip(t), ulpLineSamples(), 13},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			r := obs.New()
			cfg := catalogFitConfig()
			cfg.Workers = workers
			if _, err := FitCtx(obs.NewContext(context.Background(), r), tc.c, tc.samples, cfg); err != nil {
				t.Fatal(err)
			}
			s := r.Snapshot()
			if got := s.Counters["crosstalk/fit_classes"]; got != tc.want {
				t.Errorf("%s, workers %d: fit_classes = %d, want %d", tc.name, workers, got, tc.want)
			}
			if got := s.Counters["crosstalk/fit_candidates"]; got != 15 {
				t.Errorf("%s, workers %d: fit_candidates = %d, want 15", tc.name, workers, got)
			}
			if got := s.Counters["crosstalk/fits"]; got != 1 {
				t.Errorf("%s, workers %d: fits = %d, want 1", tc.name, workers, got)
			}
		}
	}
}

// TestFitSequentialWorkers: a Workers: 1 fit runs every fan-out on one
// worker, the topology-distance matrix included.
func TestFitSequentialWorkers(t *testing.T) {
	c := chip.Square(5, 5)
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(7)))
	samples := measure(t, dev, xmon.ZZ, 0.05, 13)
	cfg := catalogFitConfig()
	cfg.Workers = 1
	r := obs.New()
	if _, err := FitCtx(obs.NewContext(context.Background(), r), c, samples, cfg); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if got := s.Gauges["parallel/max_workers"]; got != 1 {
		t.Errorf("parallel/max_workers = %d in a Workers: 1 fit, want 1", got)
	}
	// The distance table and the grid search: both fan-outs counted.
	if got := s.Counters["parallel/calls"]; got != 2 {
		t.Errorf("parallel/calls = %d in one fit, want 2", got)
	}
}
