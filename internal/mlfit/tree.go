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
	// Every leaf holds ≥1 sample (splits require both sides
	// non-empty), so a tree over n samples has ≤ n leaves and ≤ 2n-1
	// nodes.
	c := newGrowCtx(len(X), len(X[0]), len(X), cfg, rng)
	c.sortRoots(X, y)
	c.growTree(len(X[0]), y)
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

// boundary is one admissible split of a scanned key list: keys[k] is
// the last key on its left, and sseL and sseR are the sums of squared
// errors of the two sides.
type boundary struct {
	k          int
	sseL, sseR float64
}

// growCtx is the growth arena of one FitForest or FitTree call, or of
// a CVPlan.KFoldMSEAtoms or CVPlan.Refit call on a NaN column (other
// columns grow on bins, see binGrower): the feature, row-index,
// key-list, partition and boundary scratch plus the node storage,
// shared by every node of every tree grown on at most n rows.
//
// A tree sorts its keys once, at the root: keys holds one list per
// feature, every list the tree's rows in compareKeyed order, and ys
// beside it each key's target, ys[k] = y[keys[k].i]. A node owns the
// segment [lo,hi) of idx and of every list; its split partitions each
// of them stably, so both children inherit sorted lists and no node
// sorts. One buffer of each kind serves the whole forest; growth itself
// allocates nothing once the boundary buffer has reached the largest
// node's count, and each finished tree copies out only its used nodes.
type growCtx struct {
	nf       int // the grown tree's feature count
	y        []float64
	cfg      TreeConfig
	rng      *rand.Rand
	features []int
	idx      []int      // the rows of every node's segment, ascending
	part     []int      // staging for the right block of an idx split
	keys     []keyed    // feature f's list is keys[f*n : (f+1)*n]
	ys       []float64  // feature f's targets are ys[f*n : (f+1)*n]
	kpart    []keyed    // staging for the right block of a list split; lazy
	left     []uint8    // left[i]: 1 if row i goes left at the current split
	bnds     []boundary // one scanned list's admissible boundaries; lazy
	nodes    []treeNode

	// by and ints are the bootstrap buffers of bag: each tree's
	// targets in sample order, and the counting buckets of one root
	// list followed by the tree's rows when bag draws them itself.
	by   []float64
	ints []int32
}

// newGrowCtx returns an arena for trees of nf features over at most n
// rows and at most leaves leaves.
func newGrowCtx(n, nf, leaves int, cfg TreeConfig, rng *rand.Rand) *growCtx {
	rows := make([]int, 2*n)
	return &growCtx{
		cfg:      cfg.normalized(),
		rng:      rng,
		features: make([]int, nf),
		idx:      rows[:n],
		part:     rows[n:],
		keys:     make([]keyed, nf*n),
		ys:       make([]float64, nf*n),
		left:     make([]uint8, n),
		nodes:    make([]treeNode, 0, 2*leaves-1),
	}
}

// list returns the segment [lo,hi) of feature f's key list and of its
// targets; a tree over m rows uses their first m entries.
func (c *growCtx) list(f, lo, hi int) ([]keyed, []float64) {
	n := len(c.idx)
	return c.keys[f*n+lo : f*n+hi], c.ys[f*n+lo : f*n+hi]
}

// sortRoots fills every feature's root list with the rows of X in
// compareKeyed order by sorting them, and its targets from y: FitTree's
// single tree needs no more than one sort per feature.
func (c *growCtx) sortRoots(X [][]float64, y []float64) {
	for f := range X[0] {
		keys, ys := c.list(f, 0, len(X))
		for i, row := range X {
			keys[i] = keyed{x: row[f], i: i}
		}
		slices.SortFunc(keys, compareKeyed)
		for k, kv := range keys {
			ys[k] = y[kv.i]
		}
	}
}

// growTree grows one tree of nf features on the targets y of at most
// the arena's row count into the arena's node storage. Every feature's
// root list must already hold the tree's rows in compareKeyed order,
// with their targets (see sortRoots and bag).
func (c *growCtx) growTree(nf int, y []float64) {
	c.nf, c.y = nf, y
	idx := c.idx[:len(y)]
	for i := range idx {
		idx[i] = i
	}
	c.nodes = c.nodes[:0]
	c.grow(0, len(y), 0)
}

// tree copies the arena's last grown tree out into an exact-size Tree,
// so the arena may grow the next tree at once.
func (c *growCtx) tree() Tree {
	nodes := make([]treeNode, len(c.nodes))
	copy(nodes, c.nodes)
	return Tree{nodes: nodes, nFeature: c.nf}
}

// leaf appends a leaf node and returns its index.
func (c *growCtx) leaf(val float64) int32 {
	c.nodes = append(c.nodes, treeNode{feature: -1, value: val})
	return int32(len(c.nodes) - 1)
}

// grow appends the subtree over the rows of segment [lo,hi) to the
// arena in preorder and returns its root's index.
//
// The hot loops live in small functions of their own (sums, scan,
// sseAround, partitionRows), kept out of line so that their
// accumulators and counters stay in registers. Every sum keeps the
// operands and the order of the direct search: the node's mean sums y
// in idx order, the scan sums each list's targets in key order, and
// the gains are evaluated after the scan over the recorded boundaries,
// in scan order, with the same strict '>'.
func (c *growCtx) grow(lo, hi, depth int) int32 {
	y, cfg, nf := c.y, c.cfg, c.nf
	idx := c.idx[lo:hi]
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeafSize {
		return c.leaf(mean(y, idx))
	}

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
		keys, _ := c.list(f, lo, hi)
		if keys[0].x != keys[len(keys)-1].x {
			constant = false
			break
		}
	}
	if constant {
		return c.leaf(mean(y, idx))
	}

	// The first feature's totals pass yields the node's mean and so
	// parentSSE, the sum of squared errors around it.
	var val, parentSSE float64
	bestGain, bestFeature, bestK := 0.0, -1, 0
	for fi, f := range features {
		keys, ys := c.list(f, lo, hi)
		sumR, sumSqR, s := sums(ys, y, idx)
		if fi == 0 {
			val = s / float64(len(idx))
			parentSSE = sseAround(y, idx, val)
		}
		c.bnds = scan(keys, ys, sumR, sumSqR, cfg.MinLeafSize, c.bnds[:0])
		for _, b := range c.bnds {
			if gain := parentSSE - b.sseL - b.sseR; gain > bestGain {
				bestGain, bestFeature, bestK = gain, f, b.k
			}
		}
	}

	if bestFeature < 0 || bestGain <= 1e-15 {
		return c.leaf(val)
	}
	keys, _ := c.list(bestFeature, lo, hi)
	bestThreshold := (keys[bestK].x + keys[bestK+1].x) / 2

	// Mark each row's side from the split feature's own list, which
	// holds the values the threshold compares; then partition idx
	// stably in place. The parent no longer reads its segment after
	// this point, so the children own the two halves.
	for _, kv := range keys {
		var l uint8
		if kv.x <= bestThreshold {
			l = 1
		}
		c.left[kv.i] = l
	}
	nl := partitionRows(idx, c.left, c.part)
	if nl == 0 || nl == len(idx) {
		return c.leaf(val)
	}
	// Every key list splits the same way, stably, so each child's
	// lists stay sorted. The split feature's list already divides at
	// nl unless it holds a NaN, which compareKeyed puts first but the
	// threshold sends right; a single-feature tree without NaNs thus
	// never needs the staging list.
	for f := 0; f < nf; f++ {
		keys, ys := c.list(f, lo, hi)
		if f == bestFeature && !math.IsNaN(keys[0].x) {
			continue
		}
		if c.kpart == nil {
			c.kpart = make([]keyed, len(c.idx))
		}
		partitionList(keys, c.left, c.kpart)
		for k, kv := range keys {
			ys[k] = y[kv.i]
		}
	}
	at := len(c.nodes)
	c.nodes = append(c.nodes, treeNode{feature: bestFeature, threshold: bestThreshold, value: val})
	left := c.grow(lo, lo+nl, depth+1)
	right := c.grow(lo+nl, hi, depth+1)
	c.nodes[at].left, c.nodes[at].right = left, right
	return int32(at)
}

// sums returns the sum of ys and the sum of their squares, in order,
// and the sum of y over idx, in idx order: the node's mean sum, an
// independent chain in the same pass.
//
//go:noinline
func sums(ys, y []float64, idx []int) (s, sq, rows float64) {
	idx = idx[:len(ys)]
	for k, v := range ys {
		s += v
		sq += v * v
		rows += y[idx[k]]
	}
	return s, sq, rows
}

// sseAround returns the sum of squared errors of y over idx around m,
// in idx order.
//
//go:noinline
func sseAround(y []float64, idx []int, m float64) float64 {
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

// scan appends to out, in key order, every admissible boundary of the
// sorted list keys with targets ys, whose sum and sum of squares are
// sumR and sumSqR: a boundary lies between two distinct values and
// leaves at least minLeaf keys on either side. Prefix sums give each
// side's sum of squared errors in O(1).
func scan(keys []keyed, ys []float64, sumR, sumSqR float64, minLeaf int, out []boundary) []boundary {
	var sumL, sumSqL float64
	ys = ys[:len(keys)]
	for k := 0; k < len(keys)-1; k++ {
		v := ys[k]
		sumL += v
		sumSqL += v * v
		sumR -= v
		sumSqR -= v * v
		// Only split between distinct feature values.
		if keys[k].x == keys[k+1].x {
			continue
		}
		nl, nr := k+1, len(keys)-k-1
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		out = append(out, boundary{k: k, sseL: sumSqL - sumL*sumL/float64(nl), sseR: sumSqR - sumR*sumR/float64(nr)})
	}
	return out
}

// partitionRows stably partitions idx by left, in place, and returns
// the size of the left block. Every row is written to both blocks and
// each block advances by its side's bit, so the loop has no branch;
// part, at least as long as idx, stages the right block.
//
//go:noinline
func partitionRows(idx []int, left []uint8, part []int) int {
	part = part[:len(idx)]
	nl, nr := 0, 0
	for _, i := range idx {
		b := int(left[i])
		idx[nl] = i
		part[nr] = i
		nl += b
		nr += 1 - b
	}
	copy(idx[nl:], part[:nr])
	return nl
}

// partitionList stably partitions a key list by the side of each
// key's row, as partitionRows does idx; kpart stages the right block.
func partitionList(keys []keyed, left []uint8, kpart []keyed) {
	kpart = kpart[:len(keys)]
	nl, nr := 0, 0
	for _, kv := range keys {
		b := int(left[kv.i])
		keys[nl] = kv
		kpart[nr] = kv
		nl += b
		nr += 1 - b
	}
	copy(keys[nl:], kpart[:nr])
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
