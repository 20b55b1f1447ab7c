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
	n, nf := len(X), len(X[0])
	f := &Forest{trees: make([]Tree, 0, cfg.NumTrees)}
	c := newGrowCtx(n, nf, n, cfg.Tree, nil) // ≤ n leaves, as in FitTree
	floats, rank := make([]float64, (nf+1)*n), make([]int32, nf*n)
	xs := floats[:nf*n]
	c.by = floats[nf*n:]
	nrank := 0
	for j := 0; j < nf; j++ {
		col := xs[j*n : (j+1)*n]
		for i, row := range X {
			col[i] = row[j]
		}
		nrank = max(nrank, c.rankRows(col, rank[j*n:(j+1)*n]))
	}
	c.bag(xs, rank, nrank, y, nil, cfg, func([]int32) { f.trees = append(f.trees, c.tree()) })
	return f, nil
}

// bag grows cfg.NumTrees bootstrap trees on a validated training set
// of len(y) rows of at most the arena's row count, and calls each after
// every tree while the tree is still in the arena; draw[i] is the row
// that the tree's sample i was drawn from. The set is stored feature
// by feature: feature f's values are xs[f*n:(f+1)*n], and rank holds,
// at the same offsets, the rows' dense value ranks, all below nrank.
// One bootstrap buffer serves every tree: a tree reads its rows during
// growth and retains nothing, so the next tree may overwrite them.
//
// Tree t's rows are draws[t*n:(t+1)*n]. A nil draws takes them from a
// fresh rand.NewSource(cfg.Seed), tree by tree, the stream also
// drawing each split's feature subset; a single-feature tree draws no
// subset, so its rows are the stream's Intn draws alone, which is what
// a CVPlan holds.
//
// Each tree's root lists come from a counting pass over draw rather
// than a sort: the samples go into buckets by the rank of their row's
// value, each bucket in sample order, which is exactly compareKeyed
// order. Only the ranks' order matters, so gaps among them are free.
func (c *growCtx) bag(xs []float64, rank []int32, nrank int, y []float64, draws []int32, cfg ForestConfig, each func(draw []int32)) {
	n := len(y)
	nf := len(xs) / n
	if cap(c.by) < n {
		c.by = make([]float64, n)
	}
	ints := nrank
	if draws == nil {
		ints += n
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if len(c.ints) < ints {
		// A list of nrank distinct values has fewer boundaries, NaNs
		// aside, so the boundary buffer is sized once here.
		c.ints, c.bnds = make([]int32, ints), make([]boundary, 0, nrank)
	}
	by, count, draw := c.by[:n], c.ints[:nrank], c.ints[nrank:ints]
	for t := 0; t < cfg.NumTrees; t++ {
		if draws != nil {
			draw = draws[t*n : (t+1)*n]
		} else {
			drawRows(c.rng, draw)
		}
		for i, k := range draw {
			by[i] = y[k]
		}
		for f := 0; f < nf; f++ {
			rank, col := rank[f*n:(f+1)*n], xs[f*n:(f+1)*n]
			keys, ys := c.list(f, 0, n)
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
				keys[count[r]] = keyed{x: col[k], i: i}
				ys[count[r]] = by[i]
				count[r]++
			}
		}
		c.growTree(nf, by)
		each(draw)
	}
}

// drawRows fills draw with one tree's bootstrap rows, each drawn
// uniformly from [0, len(draw)) by rng.Intn.
func drawRows(rng *rand.Rand, draw []int32) {
	for i := range draw {
		draw[i] = int32(rng.Intn(len(draw)))
	}
}

// rankRows stores in rank the dense rank of every value of col among
// col's values under cmp.Compare, so equal values share a rank, and
// returns the number of distinct values. Feature 0's key list serves as
// the sort scratch.
func (c *growCtx) rankRows(col []float64, rank []int32) int {
	keys, _ := c.list(0, 0, len(col))
	for i, x := range col {
		keys[i] = keyed{x: x, i: i}
	}
	slices.SortFunc(keys, func(a, b keyed) int { return cmp.Compare(a.x, b.x) })
	var r int32
	for k, kv := range keys {
		if k > 0 && cmp.Compare(keys[k-1].x, kv.x) != 0 {
			r++
		}
		rank[kv.i] = r
	}
	return int(r) + 1
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

// NumFeatures returns the feature arity of the rows the forest was
// fitted on, the width Predict reads.
func (f *Forest) NumFeatures() int { return f.trees[0].nFeature }

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
	return permFolds(rand.New(rand.NewSource(seed)), n, k)
}

// permFolds returns the permutation of n samples that rng draws next,
// whose positions assign the samples to k cross-validation folds.
func permFolds(rng *rand.Rand, n, k int) ([]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("mlfit: k=%d invalid for %d samples", k, n)
	}
	return rng.Perm(n), nil
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
