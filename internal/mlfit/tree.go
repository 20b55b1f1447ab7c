// Package mlfit is the from-scratch machine-learning substrate the
// crosstalk characterization model is built on: CART regression trees,
// bagged random-forest regression, k-fold cross-validation, mean squared
// error, and distribution comparison via Jensen–Shannon divergence.
//
// Only the features the paper's pipeline needs are implemented, but they
// are implemented completely: variance-reduction splits, bootstrap
// sampling, per-tree feature subsampling and deterministic seeding.
package mlfit

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// treeNode is one node of a regression tree. Leaves have feature == -1.
// Nodes live in their tree's slice in preorder (root at 0) and link to
// their children by index.
type treeNode struct {
	feature     int     // split feature index, -1 for leaf
	threshold   float64 // go left when x[feature] <= threshold
	value       float64 // leaf prediction (mean of targets)
	left, right int32   // child indices; unused for leaves
}

// Tree is a CART regression tree.
type Tree struct {
	nodes    []treeNode // preorder, root at 0
	nFeature int
}

// TreeConfig controls tree growth.
type TreeConfig struct {
	MaxDepth    int // maximum depth; 0 means unlimited
	MinLeafSize int // minimum samples in a leaf; 0 means 1
	// MaxFeatures is the number of features considered per split;
	// 0 means all features.
	MaxFeatures int
}

func (cfg TreeConfig) normalized() TreeConfig {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 1 << 30
	}
	if cfg.MinLeafSize <= 0 {
		cfg.MinLeafSize = 1
	}
	return cfg
}

// FitTree grows a regression tree on rows X (features) and targets y.
// rng draws the per-split feature subset when cfg.MaxFeatures restricts
// the split search; with a nil rng every split considers the full
// feature set.
func FitTree(X [][]float64, y []float64, cfg TreeConfig, rng *rand.Rand) (*Tree, error) {
	if err := checkTrainingSet(X, y); err != nil {
		return nil, err
	}
	c := newGrowCtx(len(X), len(X[0]), cfg, rng)
	c.sortRoots(X)
	c.growTree(X, y)
	t := c.tree()
	return &t, nil
}

// checkTrainingSet rejects an empty, mismatched or ragged training set.
func checkTrainingSet(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return fmt.Errorf("mlfit: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("mlfit: %d rows but %d targets", len(X), len(y))
	}
	nf := len(X[0])
	for i, row := range X {
		if len(row) != nf {
			return fmt.Errorf("mlfit: row %d has %d features, want %d", i, len(row), nf)
		}
	}
	return nil
}

func mean(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// keyed is one sample of a split search: its feature value x and its
// row index i in the tree's training set.
type keyed struct {
	x float64
	i int
}

// compareKeyed is the split search's total order: by value, then by
// row. Equal values keep their rows in ascending order, so the keys of
// any subset of rows, filtered stably out of a sorted list, are
// themselves sorted.
func compareKeyed(a, b keyed) int {
	if c := cmp.Compare(a.x, b.x); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}

// growCtx is the growth arena of one FitForest, FitTree or
// KFoldMSEShared call: the feature, row-index, key-list, partition and
// rank scratch plus the node storage, shared by every node of every
// tree grown on at most n rows.
//
// A tree sorts its keys once, at the root: keys holds one list per
// feature, every list the tree's rows in compareKeyed order. A node
// owns the segment [lo,hi) of idx and of every list; its split
// partitions each of them stably, so both children inherit sorted
// lists and no node sorts. One buffer of each kind serves the whole
// forest; growth itself allocates nothing, and each finished tree
// copies out only its used nodes.
type growCtx struct {
	X        [][]float64
	y        []float64
	cfg      TreeConfig
	rng      *rand.Rand
	features []int
	idx      []int   // the rows of every node's segment, ascending
	part     []int   // staging for the right block of an idx split
	keys     []keyed // feature f's list is keys[f*n : (f+1)*n]
	kpart    []keyed // staging for the right block of a list split; lazy
	left     []bool  // left[i]: row i goes left at the current split
	nodes    []treeNode

	// bounds, when non-nil, records for every split node (by node
	// index) the rows of X holding the two adjacent sorted keys its
	// threshold lies between, and inexact is set once a chosen
	// threshold is not strictly below the upper key. KFoldMSEShared
	// reads both to re-derive the tree for every column that ranks the
	// rows alike.
	bounds  [][2]int
	inexact bool

	// bx, by and draw are the bootstrap buffers of bag; rank holds
	// each feature's dense value ranks over bag's rows (stride n) and,
	// after them, the counting buckets of one root list.
	bx   [][]float64
	by   []float64
	draw []int
	rank []int32
}

func newGrowCtx(n, nf int, cfg TreeConfig, rng *rand.Rand) *growCtx {
	rows := make([]int, 2*n)
	return &growCtx{
		cfg:      cfg.normalized(),
		rng:      rng,
		features: make([]int, nf),
		idx:      rows[:n],
		part:     rows[n:n],
		keys:     make([]keyed, nf*n),
		left:     make([]bool, n),
		// Every leaf holds ≥1 distinct sample (splits require both
		// sides non-empty), so a tree over n samples has ≤ n leaves
		// and ≤ 2n-1 nodes.
		nodes: make([]treeNode, 0, 2*n-1),
	}
}

// list returns feature f's key list; a tree over m rows uses its first
// m entries.
func (c *growCtx) list(f int) []keyed {
	n := len(c.idx)
	return c.keys[f*n : (f+1)*n]
}

// sortRoots fills every feature's root list with the rows of X in
// compareKeyed order by sorting them: FitTree's single tree needs no
// more than one sort per feature.
func (c *growCtx) sortRoots(X [][]float64) {
	for f := range X[0] {
		keys := c.list(f)[:len(X)]
		for i, row := range X {
			keys[i] = keyed{x: row[f], i: i}
		}
		slices.SortFunc(keys, compareKeyed)
	}
}

// growTree grows one tree on the validated training set X, y of at
// most the arena's row count into the arena's node storage. Every
// feature's root list must already hold X's rows in compareKeyed order
// (see sortRoots and bag).
func (c *growCtx) growTree(X [][]float64, y []float64) {
	c.X, c.y = X, y
	idx := c.idx[:len(X)]
	for i := range idx {
		idx[i] = i
	}
	c.nodes = c.nodes[:0]
	c.grow(0, len(X), 0)
}

// tree copies the arena's last grown tree out into an exact-size Tree,
// so the arena may grow the next tree at once.
func (c *growCtx) tree() Tree {
	nodes := make([]treeNode, len(c.nodes))
	copy(nodes, c.nodes)
	return Tree{nodes: nodes, nFeature: len(c.X[0])}
}

// leaf appends a leaf node and returns its index.
func (c *growCtx) leaf(val float64) int32 {
	c.nodes = append(c.nodes, treeNode{feature: -1, value: val})
	return int32(len(c.nodes) - 1)
}

// grow appends the subtree over the rows of segment [lo,hi) to the
// arena in preorder and returns its root's index.
func (c *growCtx) grow(lo, hi, depth int) int32 {
	X, y, cfg := c.X, c.y, c.cfg
	idx := c.idx[lo:hi]
	val := mean(y, idx)
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeafSize {
		return c.leaf(val)
	}

	nf := len(X[0])
	features := c.features[:nf]
	for i := range features {
		features[i] = i
	}
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < nf && c.rng != nil {
		c.rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.MaxFeatures]
	}
	// A segment whose sorted keys start and end on one value holds no
	// two distinct values, so the scan below could not split it. NaN
	// never equals itself, so a segment holding one is scanned.
	constant := true
	for _, f := range features {
		keys := c.list(f)[lo:hi]
		if keys[0].x != keys[len(keys)-1].x {
			constant = false
			break
		}
	}
	if constant {
		return c.leaf(val)
	}

	bestGain := 0.0
	bestFeature := -1
	bestThreshold := 0.0
	bestLo, bestHi := 0, 0
	var parentSSE float64 // the sum of squared errors around val
	for _, i := range idx {
		d := y[i] - val
		parentSSE += d * d
	}

	for _, f := range features {
		keys := c.list(f)[lo:hi]

		// Prefix sums allow O(1) variance evaluation of every split.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, kv := range keys {
			v := y[kv.i]
			sumR += v
			sumSqR += v * v
		}
		for k := 0; k < len(keys)-1; k++ {
			v := y[keys[k].i]
			sumL += v
			sumSqL += v * v
			sumR -= v
			sumSqR -= v * v
			// Only split between distinct feature values.
			if keys[k].x == keys[k+1].x {
				continue
			}
			nl, nr := k+1, len(keys)-k-1
			if nl < cfg.MinLeafSize || nr < cfg.MinLeafSize {
				continue
			}
			sseL := sumSqL - sumL*sumL/float64(nl)
			sseR := sumSqR - sumR*sumR/float64(nr)
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (keys[k].x + keys[k+1].x) / 2
				bestLo, bestHi = keys[k].i, keys[k+1].i
			}
		}
	}

	if bestFeature < 0 || bestGain <= 1e-15 {
		return c.leaf(val)
	}
	if c.bounds != nil && !(bestThreshold < X[bestHi][bestFeature]) {
		c.inexact = true
	}

	// Mark each row's side from the split feature's own list, which
	// holds the values the threshold compares; then partition idx
	// stably in place: the left block keeps its order in place, the
	// right block is staged in the scratch and copied behind it. The
	// parent no longer reads its segment after this point, so the
	// children own the two halves.
	for _, kv := range c.list(bestFeature)[lo:hi] {
		c.left[kv.i] = kv.x <= bestThreshold
	}
	part := c.part[:0]
	nl := 0
	for _, i := range idx {
		if c.left[i] {
			idx[nl] = i
			nl++
		} else {
			part = append(part, i)
		}
	}
	copy(idx[nl:], part)
	c.part = part
	if nl == 0 || nl == len(idx) {
		return c.leaf(val)
	}
	// Every key list splits the same way, stably, so each child's
	// lists stay sorted. The split feature's list already divides at
	// nl unless it holds a NaN, which compareKeyed puts first but the
	// threshold sends right; a single-feature tree without NaNs thus
	// never needs the staging list.
	for f := 0; f < nf; f++ {
		keys := c.list(f)[lo:hi]
		if f == bestFeature && !math.IsNaN(keys[0].x) {
			continue
		}
		if c.kpart == nil {
			c.kpart = make([]keyed, 0, len(c.idx))
		}
		kpart := c.kpart[:0]
		k := 0
		for _, kv := range keys {
			if c.left[kv.i] {
				keys[k] = kv
				k++
			} else {
				kpart = append(kpart, kv)
			}
		}
		copy(keys[k:], kpart)
	}
	at := len(c.nodes)
	c.nodes = append(c.nodes, treeNode{feature: bestFeature, threshold: bestThreshold, value: val})
	if c.bounds != nil {
		c.bounds[at] = [2]int{bestLo, bestHi}
	}
	left := c.grow(lo, lo+nl, depth+1)
	right := c.grow(lo+nl, hi, depth+1)
	c.nodes[at].left, c.nodes[at].right = left, right
	return int32(at)
}

// Predict returns the tree's prediction for feature vector x.
func (t *Tree) Predict(x []float64) float64 {
	nodes := t.nodes
	n := &nodes[0]
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = &nodes[n.left]
		} else {
			n = &nodes[n.right]
		}
	}
	return n.value
}

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return t.depth(0) }

func (t *Tree) depth(i int32) int {
	n := &t.nodes[i]
	if n.feature < 0 {
		return 0
	}
	l, r := t.depth(n.left), t.depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// MSE returns the mean squared error between predictions and targets,
// E = (1/N) Σ (y_i - ŷ_i)², the paper's fitting loss.
func MSE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("mlfit: MSE length mismatch %d vs %d", len(pred), len(actual)))
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - actual[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// R2 returns the coefficient of determination of pred against actual.
func R2(pred, actual []float64) float64 {
	if len(actual) == 0 {
		return 0
	}
	var m float64
	for _, v := range actual {
		m += v
	}
	m /= float64(len(actual))
	var ssRes, ssTot float64
	for i := range actual {
		ssRes += (actual[i] - pred[i]) * (actual[i] - pred[i])
		ssTot += (actual[i] - m) * (actual[i] - m)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}
