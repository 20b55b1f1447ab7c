package mlfit

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
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
	f := &Forest{trees: make([]Tree, 0, cfg.NumTrees)}
	c := newGrowCtx(len(X), len(X[0]), cfg.Tree, nil)
	c.bag(X, y, cfg, func([]int) { f.trees = append(f.trees, c.tree()) })
	return f, nil
}

// bag grows FitForest's cfg.NumTrees bootstrap trees on the validated
// X, y, of at most the arena's row count, and calls each after every
// tree while the tree is still in the arena; draw[i] is the row of X
// that the tree's sample i was drawn from. One bootstrap buffer serves
// every tree: a tree reads the rows during growth and retains nothing,
// so the next tree may overwrite them.
//
// X's rows are ranked once per feature, so each tree's root lists come
// from a counting pass over draw rather than a sort: the samples go
// into buckets by the rank of their row's value, each bucket in sample
// order, which is exactly compareKeyed order.
func (c *growCtx) bag(X [][]float64, y []float64, cfg ForestConfig, each func(draw []int)) {
	n, stride := len(X), len(c.idx)
	if cap(c.draw) < n {
		c.bx, c.by, c.draw = make([][]float64, n), make([]float64, n), make([]int, n)
		c.rank = make([]int32, (len(X[0])+1)*stride)
	}
	bx, by, draw := c.bx[:n], c.by[:n], c.draw[:n]
	for f := range X[0] {
		c.rankRows(X, f)
	}
	count := c.rank[len(X[0])*stride:][:n]
	c.rng = rand.New(rand.NewSource(cfg.Seed))
	for t := 0; t < cfg.NumTrees; t++ {
		for i := range draw {
			k := c.rng.Intn(n)
			draw[i], bx[i], by[i] = k, X[k], y[k]
		}
		for f := range X[0] {
			rank, keys := c.rank[f*stride:][:n], c.list(f)[:n]
			clear(count)
			for _, k := range draw {
				count[rank[k]]++
			}
			var at int32
			for r, m := range count {
				count[r], at = at, at+m
			}
			for i, k := range draw {
				r := rank[k]
				keys[count[r]] = keyed{x: X[k][f], i: i}
				count[r]++
			}
		}
		c.growTree(bx, by)
		each(draw)
	}
}

// rankRows stores in feature f's rank slice the dense rank of every
// row's value among X's values of f under cmp.Compare, so equal values
// share a rank. Feature f's key list serves as the sort scratch.
func (c *growCtx) rankRows(X [][]float64, f int) {
	keys, rank := c.list(f)[:len(X)], c.rank[f*len(c.idx):]
	for i, row := range X {
		keys[i] = keyed{x: row[f], i: i}
	}
	slices.SortFunc(keys, func(a, b keyed) int { return cmp.Compare(a.x, b.x) })
	var r int32
	for k, kv := range keys {
		if k > 0 && cmp.Compare(keys[k-1].x, kv.x) != 0 {
			r++
		}
		rank[kv.i] = r
	}
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
	perm, err := foldPerm(len(X), k, seed)
	if err != nil {
		return 0, err
	}
	var total float64
	// Fold buffers are sized once and resliced per fold; FitForest
	// retains nothing from its inputs.
	n, nte := len(X), (len(X)+k-1)/k
	tr, te := make([]int, 0, n), make([]int, 0, nte)
	trX, teX := make([][]float64, 0, n), make([][]float64, 0, nte)
	trY, teY := make([]float64, 0, n), make([]float64, 0, nte)
	for fold := 0; fold < k; fold++ {
		tr, te = foldSplit(perm, k, fold, tr, te)
		trX, teX = trX[:0], teX[:0]
		for _, r := range tr {
			trX = append(trX, X[r])
		}
		for _, r := range te {
			teX = append(teX, X[r])
		}
		trY, teY = gather(trY, y, tr), gather(teY, y, te)
		f, err := FitForest(trX, trY, cfg)
		if err != nil {
			return 0, fmt.Errorf("mlfit: fold %d: %w", fold, err)
		}
		total += MSE(f.PredictAll(teX), teY)
	}
	return total / float64(k), nil
}

// foldPerm returns the seeded sample permutation whose positions
// assign n samples to k cross-validation folds.
func foldPerm(n, k int, seed int64) ([]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("mlfit: k=%d invalid for %d samples", k, n)
	}
	return rand.New(rand.NewSource(seed)).Perm(n), nil
}

// foldSplit reslices tr and te to the samples fold trains on and holds
// out: the held-out samples are those at the perm positions i with
// i%k == fold, and both lists keep perm order.
func foldSplit(perm []int, k, fold int, tr, te []int) ([]int, []int) {
	tr, te = tr[:0], te[:0]
	for i, p := range perm {
		if i%k == fold {
			te = append(te, p)
		} else {
			tr = append(tr, p)
		}
	}
	return tr, te
}

// gather reslices dst to y at the given rows.
func gather(dst, y []float64, rows []int) []float64 {
	dst = dst[:0]
	for _, r := range rows {
		dst = append(dst, y[r])
	}
	return dst
}
