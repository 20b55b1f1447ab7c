package crosstalk

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/xmon"
)

func calibSamples(t *testing.T, c *chip.Chip) []xmon.Sample {
	t.Helper()
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(9)))
	return measure(t, dev, xmon.XY, 0.02, 11)
}

func TestTrimOutliersDeterministicAndOrdered(t *testing.T) {
	c := chip.Square(4, 4)
	samples := calibSamples(t, c)
	// Corrupt three samples with huge values, as a faulty campaign would.
	corrupted := append([]xmon.Sample(nil), samples...)
	for _, i := range []int{5, 40, 77} {
		corrupted[i].Value *= 1e4
	}
	frac := 3.0 / float64(len(corrupted))
	kept, err := trimOutliers(corrupted, frac)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(corrupted)-3 {
		t.Fatalf("kept %d of %d, want %d", len(kept), len(corrupted), len(corrupted)-3)
	}
	for _, s := range kept {
		if s.Value > 1e3 {
			t.Errorf("outlier value %v survived trimming", s.Value)
		}
	}
	again, err := trimOutliers(corrupted, frac)
	if err != nil {
		t.Fatal(err)
	}
	for i := range kept {
		if kept[i] != again[i] {
			t.Fatalf("trim not deterministic at sample %d", i)
		}
	}
}

func TestTrimOutliersValidation(t *testing.T) {
	c := chip.Square(3, 3)
	samples := calibSamples(t, c)
	if _, err := trimOutliers(samples, -0.1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := trimOutliers(samples, 1.0); err == nil {
		t.Error("fraction 1.0 accepted")
	}
	kept, err := trimOutliers(samples, 0)
	if err != nil || len(kept) != len(samples) {
		t.Errorf("zero fraction changed samples: %v, %d", err, len(kept))
	}
	// Fraction that would drop everything keeps at least one sample.
	kept, err = trimOutliers(samples[:2], 0.99)
	if err != nil || len(kept) != 1 {
		t.Errorf("near-total trim: got %d samples, err %v", len(kept), err)
	}
}

// TestFitTrimRecoversModel: with heavy-tailed outliers injected, the
// trimmed fit must land on a model close to the clean fit, while the
// untrimmed fit sees a much larger CV error.
func TestFitTrimRecoversModel(t *testing.T) {
	c := chip.Square(4, 4)
	samples := calibSamples(t, c)
	corrupted := append([]xmon.Sample(nil), samples...)
	for i := 0; i < len(corrupted); i += 17 {
		corrupted[i].Value *= 500
	}
	cfg := DefaultFitConfig()
	cfg.Workers = 1

	clean, err := Fit(c, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Fit(c, corrupted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TrimOutlierFraction = 0.1
	trimmed, err := Fit(c, corrupted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.CVError <= clean.CVError*10 {
		t.Fatalf("outliers did not hurt the untrimmed fit: dirty %g vs clean %g", dirty.CVError, clean.CVError)
	}
	if trimmed.CVError >= dirty.CVError {
		t.Errorf("trimming did not help: trimmed %g vs dirty %g", trimmed.CVError, dirty.CVError)
	}
}

func TestFitCtxCancelled(t *testing.T) {
	c := chip.Square(4, 4)
	samples := calibSamples(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := FitCtx(ctx, c, samples, DefaultFitConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
