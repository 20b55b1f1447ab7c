package crosstalk

import (
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/xmon"
)

// TestFitClassesCounter: crosstalk/fit_classes counts the CV forests a
// fit grows, one per ordinal class of weight candidates plus one per
// candidate the midpoint check re-runs alone, and is the same for any
// worker count.
func TestFitClassesCounter(t *testing.T) {
	cases := []struct {
		name string
		fit  func(cfg FitConfig) *Model
		want int64
	}{
		// 15 candidates in 7 classes, no fallback.
		{"hexagon-36", func(cfg FitConfig) *Model { return fitCatalogChip(t, "hexagon", 36, xmon.XY, cfg) }, 7},
		// 15 candidates in 2 classes; the 12-member class's
		// representative rounds a midpoint up, so 11 members fall back.
		{"ulp-line", func(cfg FitConfig) *Model {
			m, err := Fit(ulpLineChip(t), ulpLineSamples(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, 13},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			r := obs.New()
			Observe(r)
			cfg := catalogFitConfig()
			cfg.Workers = workers
			tc.fit(cfg)
			Observe(nil)
			s := r.Snapshot()
			if got := s.Counters["crosstalk/fit_classes"]; got != tc.want {
				t.Errorf("%s, workers %d: fit_classes = %d, want %d", tc.name, workers, got, tc.want)
			}
			if got := s.Counters["crosstalk/fit_candidates"]; got != 15 {
				t.Errorf("%s, workers %d: fit_candidates = %d, want 15", tc.name, workers, got)
			}
		}
	}
}

// TestFitSequentialWorkers: a Workers: 1 fit runs every fan-out on one
// worker, the topology-distance matrix included.
func TestFitSequentialWorkers(t *testing.T) {
	c := chip.Square(5, 5)
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(7)))
	samples := dev.MeasureSeeded(xmon.ZZ, 0.05, 13, 1)
	cfg := catalogFitConfig()
	cfg.Workers = 1
	r := obs.New()
	parallel.Observe(r)
	defer parallel.Observe(nil)
	if _, err := Fit(c, samples, cfg); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Gauges["parallel/max_workers"]; got != 1 {
		t.Errorf("parallel/max_workers = %d in a Workers: 1 fit, want 1", got)
	}
}
