package mlfit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitTreeValidation(t *testing.T) {
	if _, err := FitTree(nil, nil, TreeConfig{}, nil); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := FitTree([][]float64{{1}}, []float64{1, 2}, TreeConfig{}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitTree([][]float64{{1}, {1, 2}}, []float64{1, 2}, TreeConfig{}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestTreeFitsStepFunction(t *testing.T) {
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := float64(i) / 100
		X = append(X, []float64{x})
		if x < 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 3)
		}
	}
	tree, err := FitTree(X, y, TreeConfig{MaxDepth: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{0.2}); math.Abs(got-1) > 1e-9 {
		t.Errorf("left side: got %v, want 1", got)
	}
	if got := tree.Predict([]float64{0.8}); math.Abs(got-3) > 1e-9 {
		t.Errorf("right side: got %v, want 3", got)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, math.Sin(10*x)+rng.NormFloat64()*0.01)
	}
	for _, depth := range []int{1, 2, 4} {
		tree, err := FitTree(X, y, TreeConfig{MaxDepth: depth}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := tree.Depth(); d > depth {
			t.Errorf("depth %d exceeds cap %d", d, depth)
		}
	}
}

func TestTreeConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tree, err := FitTree(X, y, TreeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 0 {
		t.Errorf("constant target should give a leaf, depth %d", tree.Depth())
	}
	if got := tree.Predict([]float64{99}); got != 7 {
		t.Errorf("got %v, want 7", got)
	}
}

func TestTreeInterpolatesTraining(t *testing.T) {
	// With unlimited depth and MinLeafSize 1, distinct inputs are
	// predicted exactly.
	X := [][]float64{{1}, {2}, {3}, {4}, {5}}
	y := []float64{5, 3, 8, 1, 9}
	tree, err := FitTree(X, y, TreeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if got := tree.Predict(x); math.Abs(got-y[i]) > 1e-9 {
			t.Errorf("training point %d: got %v, want %v", i, got, y[i])
		}
	}
}

func TestTreeMultiFeature(t *testing.T) {
	// y depends only on feature 1; the tree should find it.
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		if b < 0.5 {
			y = append(y, 0)
		} else {
			y = append(y, 10)
		}
	}
	tree, err := FitTree(X, y, TreeConfig{MaxDepth: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{0.9, 0.1}); math.Abs(got) > 0.5 {
		t.Errorf("got %v, want ~0", got)
	}
	if got := tree.Predict([]float64{0.1, 0.9}); math.Abs(got-10) > 0.5 {
		t.Errorf("got %v, want ~10", got)
	}
}

func TestMSEAndR2(t *testing.T) {
	pred := []float64{1, 2, 3}
	actual := []float64{1, 2, 5}
	if got := MSE(pred, actual); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("MSE: got %v", got)
	}
	if got := MSE(actual, actual); got != 0 {
		t.Errorf("perfect MSE: got %v", got)
	}
	if got := R2(actual, actual); got != 1 {
		t.Errorf("perfect R2: got %v", got)
	}
	if got := R2([]float64{2, 2, 2}, []float64{1, 2, 3}); got >= 1 {
		t.Errorf("mean predictor should have R2 <= ... got %v", got)
	}
	if MSE(nil, nil) != 0 {
		t.Error("empty MSE should be 0")
	}
}

func TestMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MSE should panic on length mismatch")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestForestValidation(t *testing.T) {
	if _, err := FitForest(nil, nil, DefaultForestConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	cfg := DefaultForestConfig()
	cfg.NumTrees = 0
	if _, err := FitForest([][]float64{{1}}, []float64{1}, cfg); err == nil {
		t.Error("zero trees accepted")
	}
}

func TestForestLearnsSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []float64
	f := func(x float64) float64 { return 2*x*x - x }
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 2
		X = append(X, []float64{x})
		y = append(y, f(x)+rng.NormFloat64()*0.02)
	}
	forest, err := FitForest(X, y, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for x := 0.1; x < 1.9; x += 0.1 {
		if e := math.Abs(forest.Predict([]float64{x}) - f(x)); e > worst {
			worst = e
		}
	}
	if worst > 0.25 {
		t.Errorf("forest error %.3f too large", worst)
	}
	if forest.NumTrees() != DefaultForestConfig().NumTrees {
		t.Errorf("NumTrees %d", forest.NumTrees())
	}
}

func TestForestDeterministicInSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, x*x)
	}
	cfg := DefaultForestConfig()
	f1, _ := FitForest(X, y, cfg)
	f2, _ := FitForest(X, y, cfg)
	for x := 0.0; x < 1; x += 0.05 {
		if f1.Predict([]float64{x}) != f2.Predict([]float64{x}) {
			t.Fatal("identical seeds produced different forests")
		}
	}
}

func TestPredictAll(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{1, 2, 3}
	f, err := FitForest(X, y, DefaultForestConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := f.PredictAll(X)
	if len(out) != 3 {
		t.Fatalf("got %d predictions", len(out))
	}
	for i, x := range X {
		if out[i] != f.Predict(x) {
			t.Errorf("PredictAll[%d] differs from Predict", i)
		}
	}
}

func TestKFoldMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []float64
	for i := 0; i < 120; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, 3*x+rng.NormFloat64()*0.05)
	}
	cfg := DefaultForestConfig()
	cfg.NumTrees = 10
	mse, err := KFoldMSE(X, y, 5, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mse < 0 || mse > 0.1 {
		t.Errorf("CV MSE %.4f implausible for a nearly-linear target", mse)
	}
	if _, err := KFoldMSE(X, y, 1, cfg, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := KFoldMSE(X[:3], y[:3], 5, cfg, 1); err == nil {
		t.Error("k > n accepted")
	}
}

func TestKFoldDiscriminates(t *testing.T) {
	// An informative feature must cross-validate better than a useless
	// one.
	rng := rand.New(rand.NewSource(6))
	var Xgood, Xbad [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		x := rng.Float64()
		Xgood = append(Xgood, []float64{x})
		Xbad = append(Xbad, []float64{rng.Float64()})
		y = append(y, math.Exp(-3*x))
	}
	cfg := DefaultForestConfig()
	cfg.NumTrees = 10
	good, err := KFoldMSE(Xgood, y, 5, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := KFoldMSE(Xbad, y, 5, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if good >= bad {
		t.Errorf("informative feature (MSE %.4g) should beat noise (MSE %.4g)", good, bad)
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 0.4, 0.6, 1.0}, 0, 1, 2)
	if math.Abs(h[0]-0.5) > 1e-12 || math.Abs(h[1]-0.5) > 1e-12 {
		t.Errorf("histogram: %v", h)
	}
	// Out-of-range values clamp into boundary bins.
	h = Histogram([]float64{-5, 5}, 0, 1, 2)
	if h[0] != 0.5 || h[1] != 0.5 {
		t.Errorf("clamping: %v", h)
	}
	// Empty input: uniform.
	h = Histogram(nil, 0, 1, 4)
	for _, v := range h {
		if v != 0.25 {
			t.Errorf("empty input should be uniform: %v", h)
		}
	}
	// Degenerate range: all mass in bin 0.
	h = Histogram([]float64{1, 1}, 1, 1, 3)
	if h[0] != 1 {
		t.Errorf("degenerate range: %v", h)
	}
	sum := 0.0
	for _, v := range Histogram([]float64{0.1, 0.2, 0.9}, 0, 1, 7) {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("histogram mass %v != 1", sum)
	}
}

func TestJSDivergenceProperties(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0, 0.5, 0.5}
	if d := JSDivergence(p, p); d != 0 {
		t.Errorf("JS(p,p) = %v", d)
	}
	d1, d2 := JSDivergence(p, q), JSDivergence(q, p)
	if d1 != d2 {
		t.Errorf("JS not symmetric: %v vs %v", d1, d2)
	}
	if d1 <= 0 || d1 > 1 {
		t.Errorf("JS out of (0,1]: %v", d1)
	}
	// Disjoint distributions reach the maximum (1 bit).
	a := []float64{1, 0}
	b := []float64{0, 1}
	if d := JSDivergence(a, b); math.Abs(d-1) > 1e-12 {
		t.Errorf("disjoint JS = %v, want 1", d)
	}
}

func TestJSDivergenceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := range p {
			p[i], q[i] = r.Float64(), r.Float64()
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		d := JSDivergence(p, q)
		return d >= -1e-12 && d <= 1+1e-12 && math.Abs(d-JSDivergence(q, p)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestJSDivergencePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("JSDivergence should panic on bin mismatch")
		}
	}()
	JSDivergence([]float64{1}, []float64{0.5, 0.5})
}

func TestJSDivergenceSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var a, b, c []float64
	for i := 0; i < 500; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64())
		c = append(c, rng.NormFloat64()+5)
	}
	near := JSDivergenceSamples(a, b, 20)
	far := JSDivergenceSamples(a, c, 20)
	if near >= far {
		t.Errorf("same-distribution JS (%v) should be below shifted JS (%v)", near, far)
	}
	if d := JSDivergenceSamples(nil, nil, 10); d != 0 {
		t.Errorf("empty samples: %v", d)
	}
}

func TestHistogramPanicsOnBadBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Histogram should panic on nBins <= 0")
		}
	}()
	Histogram([]float64{1}, 0, 1, 0)
}

// TestFitForestAllocs bounds FitForest's allocations: one growth arena
// serves the whole forest, so past a fixed set of buffers each tree
// costs exactly one allocation, its exact-size node slice.
func TestFitForestAllocs(t *testing.T) {
	X, y := tieHeavyData(300, 8)
	cfg := ForestConfig{NumTrees: 20, Tree: TreeConfig{MaxDepth: 8, MinLeafSize: 2, MaxFeatures: 2}, Seed: 2}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FitForest(X, y, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(cfg.NumTrees + 16); allocs > limit {
		t.Errorf("FitForest made %.0f allocations, want <= %.0f (NumTrees + 16)", allocs, limit)
	}
	t.Logf("%.0f allocations for %d trees", allocs, cfg.NumTrees)
}
