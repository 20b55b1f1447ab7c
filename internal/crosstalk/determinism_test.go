package crosstalk

import (
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/hypo/testkit"
	"repro/internal/xmon"
)

// TestFitWorkerCountInvariant: the parallel weight-grid search must
// select the same model — weights, CV error, and every forest
// prediction — with 4 workers as with 1, across several seeds. Each
// candidate's CV is independently seeded and selection scans in grid
// order, so worker scheduling cannot leak into the result.
func TestFitWorkerCountInvariant(t *testing.T) {
	c := chip.Square(4, 4)
	// The invariance compares everything selection depends on: the
	// chosen weights, the model's CV error, and the full prediction row
	// from qubit 0 (forest behaviour, not just grid choice).
	type fitResult struct {
		Weights chip.EquivWeights
		CVError float64
		Preds   []float64
	}
	testkit.SeedMatrix(t, []int64{1, 2, 3}, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dev := xmon.NewDevice(c, xmon.DefaultParams(), rng)
		samples := measure(t, dev, xmon.XY, 0.05, seed)

		testkit.WorkerInvariant(t, 1, []int{4}, func(workers int) fitResult {
			cfg := fastFitConfig()
			cfg.Workers = workers
			m, err := Fit(c, samples, cfg)
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			p := m.On(c)
			preds := make([]float64, 0, c.NumQubits()-1)
			for i := 1; i < c.NumQubits(); i++ {
				preds = append(preds, p.Predict(0, i))
			}
			return fitResult{Weights: m.Weights, CVError: m.CVError, Preds: preds}
		})
	})
}
