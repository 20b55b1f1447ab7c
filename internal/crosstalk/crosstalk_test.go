package crosstalk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/mlfit"
	"repro/internal/xmon"
)

func fastFitConfig() FitConfig {
	return FitConfig{
		WeightGrid: []float64{0, 0.5, 1.0},
		Folds:      5,
		Forest: mlfit.ForestConfig{
			NumTrees: 8,
			Tree:     mlfit.TreeConfig{MaxDepth: 8, MinLeafSize: 3},
			Seed:     1,
		},
	}
}

func fitOn(t *testing.T, c *chip.Chip, seed int64) (*Model, *xmon.Device) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rng)
	samples := dev.Measure(xmon.XY, 0.05, rng)
	m, err := Fit(c, samples, fastFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, dev
}

func TestFitValidation(t *testing.T) {
	c := chip.Square(3, 3)
	if _, err := Fit(c, nil, fastFitConfig()); err == nil {
		t.Error("no samples accepted")
	}
	cfg := fastFitConfig()
	cfg.Folds = 1
	if _, err := Fit(c, []xmon.Sample{{I: 0, J: 1, Value: 1}}, cfg); err == nil {
		t.Error("1 fold accepted")
	}
	mixed := []xmon.Sample{
		{I: 0, J: 1, Kind: xmon.XY, Value: 1},
		{I: 0, J: 2, Kind: xmon.ZZ, Value: 1},
	}
	if _, err := Fit(c, mixed, fastFitConfig()); err == nil {
		t.Error("mixed sample kinds accepted")
	}
	bad := []xmon.Sample{{I: 0, J: 99, Value: 1}}
	if _, err := Fit(c, bad, fastFitConfig()); err == nil {
		t.Error("out-of-range pair accepted")
	}
}

func TestFitSelectsNonZeroWeights(t *testing.T) {
	m, _ := fitOn(t, chip.Square(4, 4), 1)
	if m.Weights.WPhy == 0 && m.Weights.WTop == 0 {
		t.Error("fit selected the degenerate all-zero weights")
	}
	if m.CVError <= 0 {
		t.Errorf("CV error should be positive with measurement noise, got %v", m.CVError)
	}
}

func TestPredictorReproducesDecay(t *testing.T) {
	c := chip.Square(4, 4)
	m, dev := fitOn(t, c, 1)
	p := m.On(c)
	// Averaged over rows, the prediction must decay with distance just
	// like the underlying crosstalk.
	var near, far float64
	for r := 0; r < 4; r++ {
		near += p.Predict(4*r, 4*r+1)
		far += p.Predict(4*r, 4*r+3)
	}
	if near <= far {
		t.Errorf("prediction should decay with distance: near %.3g far %.3g", near, far)
	}
	// And correlate with the truth on adjacent pairs.
	var truthSum, predSum float64
	for _, e := range c.Graph().Edges() {
		truthSum += dev.Crosstalk(xmon.XY, e[0], e[1])
		predSum += p.Predict(e[0], e[1])
	}
	ratio := predSum / truthSum
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("aggregate prediction off by %vx", ratio)
	}
}

func TestPredictorDiagonalZero(t *testing.T) {
	c := chip.Square(3, 3)
	m, _ := fitOn(t, c, 2)
	p := m.On(c)
	for q := 0; q < c.NumQubits(); q++ {
		if p.Predict(q, q) != 0 {
			t.Errorf("self-prediction not zero for q%d", q)
		}
		if p.EquivDistance(q, q) != 0 {
			t.Errorf("self equivalent distance not zero for q%d", q)
		}
	}
}

func TestPredictorSymmetric(t *testing.T) {
	c := chip.Square(3, 3)
	m, _ := fitOn(t, c, 3)
	p := m.On(c)
	for i := 0; i < c.NumQubits(); i++ {
		for j := i + 1; j < c.NumQubits(); j++ {
			if p.Predict(i, j) != p.Predict(j, i) {
				t.Fatalf("prediction asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// TestMatrixMatchesPredict pins what lets the tdm stage read ZZ
// crosstalk from Matrix instead of calling Predict: every entry, in
// either index order, equals Predict bit for bit on every topology.
// It holds because d_equiv is exactly symmetric — the physical
// distance squares its coordinate differences and the multi-path
// topological distance is a path count times a length.
func TestMatrixMatchesPredict(t *testing.T) {
	for _, c := range chip.Table2Chips() {
		m, _ := fitOn(t, c, 4)
		p := m.On(c)
		mat := p.Matrix()
		for i := range mat {
			for j := range mat[i] {
				if math.Float64bits(mat[i][j]) != math.Float64bits(p.Predict(i, j)) {
					t.Fatalf("%s: matrix mismatch at (%d,%d)", c.Name, i, j)
				}
			}
		}
	}
}

func TestPredictedValuesCount(t *testing.T) {
	c := chip.Square(3, 3)
	m, _ := fitOn(t, c, 5)
	vals := m.On(c).PredictedValues()
	n := c.NumQubits()
	if len(vals) != n*(n-1)/2 {
		t.Fatalf("got %d values, want %d", len(vals), n*(n-1)/2)
	}
	for i, v := range vals {
		if v < 0 {
			t.Errorf("negative predicted crosstalk at %d", i)
		}
	}
}

func TestModelTransfer(t *testing.T) {
	// A model trained on a 4×4 chip must bind to and predict on a 5×5
	// chip of the same family, with decay preserved.
	m, _ := fitOn(t, chip.Square(4, 4), 1)
	other := chip.Square(5, 5)
	p := m.On(other)
	var near, far float64
	for r := 0; r < 5; r++ {
		near += p.Predict(5*r, 5*r+1)
		far += p.Predict(5*r, 5*r+4)
	}
	if near <= far {
		t.Errorf("transferred prediction should decay: near %.3g far %.3g", near, far)
	}
}

func TestFitDeterministic(t *testing.T) {
	c := chip.Square(4, 4)
	m1, _ := fitOn(t, c, 7)
	m2, _ := fitOn(t, c, 7)
	if m1.Weights != m2.Weights {
		t.Errorf("weights differ across identical runs: %+v vs %+v", m1.Weights, m2.Weights)
	}
	if m1.CVError != m2.CVError {
		t.Errorf("CV errors differ: %v vs %v", m1.CVError, m2.CVError)
	}
	p1, p2 := m1.On(c), m2.On(c)
	for i := 0; i < 5; i++ {
		if p1.Predict(0, i+1) != p2.Predict(0, i+1) {
			t.Fatal("predictions differ across identical runs")
		}
	}
}

func TestDefaultFitConfig(t *testing.T) {
	cfg := DefaultFitConfig()
	if cfg.Folds != 5 {
		t.Errorf("paper uses 5-fold CV, got %d", cfg.Folds)
	}
	if len(cfg.WeightGrid) == 0 {
		t.Error("empty weight grid")
	}
}
