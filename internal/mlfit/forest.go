package mlfit

import (
	"fmt"
	"math/rand"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	NumTrees int
	Tree     TreeConfig
	// Seed makes training deterministic.
	Seed int64
}

// DefaultForestConfig is a small forest suitable for the few-thousand-
// sample crosstalk calibration datasets used here.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{
		NumTrees: 40,
		Tree:     TreeConfig{MaxDepth: 12, MinLeafSize: 3, MaxFeatures: 0},
		Seed:     1,
	}
}

// Forest is a bagged ensemble of regression trees.
type Forest struct {
	trees []Tree
}

// FitForest trains a random forest on X, y with bootstrap sampling.
func FitForest(X [][]float64, y []float64, cfg ForestConfig) (*Forest, error) {
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("mlfit: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	if err := checkTrainingSet(X, y); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{trees: make([]Tree, 0, cfg.NumTrees)}
	n := len(X)
	// One bootstrap buffer and one growth arena serve every tree: a
	// tree reads the rows during growth and retains nothing but its
	// own copy of its nodes, so the next tree may overwrite them.
	bx := make([][]float64, n)
	by := make([]float64, n)
	c := newGrowCtx(n, len(X[0]), cfg.Tree, rng)
	for t := 0; t < cfg.NumTrees; t++ {
		for i := 0; i < n; i++ {
			k := rng.Intn(n)
			bx[i] = X[k]
			by[i] = y[k]
		}
		f.trees = append(f.trees, c.fit(bx, by))
	}
	return f, nil
}

// Predict returns the forest's mean prediction for x.
func (f *Forest) Predict(x []float64) float64 {
	var s float64
	for i := range f.trees {
		s += f.trees[i].Predict(x)
	}
	return s / float64(len(f.trees))
}

// PredictAll predicts every row of X.
func (f *Forest) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = f.Predict(x)
	}
	return out
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// KFoldMSE estimates generalization error by k-fold cross-validation:
// it returns the mean held-out MSE over the k folds. The fold split is
// deterministic in seed.
func KFoldMSE(X [][]float64, y []float64, k int, cfg ForestConfig, seed int64) (float64, error) {
	n := len(X)
	if k < 2 || k > n {
		return 0, fmt.Errorf("mlfit: k=%d invalid for %d samples", k, n)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	var total float64
	// Fold buffers are sized once and resliced per fold; FitForest
	// retains nothing from its inputs.
	trX := make([][]float64, 0, n)
	teX := make([][]float64, 0, (n+k-1)/k)
	trY := make([]float64, 0, n)
	teY := make([]float64, 0, cap(teX))
	for fold := 0; fold < k; fold++ {
		trX, teX, trY, teY = trX[:0], teX[:0], trY[:0], teY[:0]
		for i, p := range perm {
			if i%k == fold {
				teX = append(teX, X[p])
				teY = append(teY, y[p])
			} else {
				trX = append(trX, X[p])
				trY = append(trY, y[p])
			}
		}
		f, err := FitForest(trX, trY, cfg)
		if err != nil {
			return 0, fmt.Errorf("mlfit: fold %d: %w", fold, err)
		}
		total += MSE(f.PredictAll(teX), teY)
	}
	return total / float64(k), nil
}
