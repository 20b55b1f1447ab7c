package mlfit

import "math"

// certSlack is the constant c of the certification bound
// E = c·n·(√n·u·Q + 2⁻¹⁰⁷⁴) (see binGrower.certify): the derived
// rounding bound on |row-level gain − binned gain| is below
// 47·n·√n·u·Q, so c = 128 leaves more than 2x slack.
const certSlack = 128

// bin is one dense rank's share of a bootstrap tree: the samples drawn
// from rows of that rank.
type bin struct {
	sum, sq     float64 // Σy and Σy² over the bin's samples, in sample order
	n           int32   // samples drawn
	first, last int32   // smallest and largest sample index drawn
	rank        int32
}

// binGrower grows the single-feature bootstrap trees of
// CVPlan.KFoldMSEAtoms and CVPlan.Refit for a column without NaNs. A
// split sends every sample of one rank the same way, so a node is a
// run [blo,bhi) of the ranks present in the tree (bins), its key list
// is the matching segment of the root's, and a node's decisions need
// per-rank sums, not rows. The grower decides every split from the bins wherever a
// rounding-error bound proves the row-level search (growCtx.grow)
// would decide the same, and runs that search on the node's rows
// otherwise; leaf values come from one pass over the draw in sample
// order, the chain mean sums. The trees are growCtx's, bit for bit,
// except for internal-node values, which CV routing never reads and
// which are left zero until fillInternal fills them. One grower serves
// every class of a CVWorkspace, reset per class.
type binGrower struct {
	cfg TreeConfig

	// The current tree: its training values, ranks and targets, and its
	// bootstrap draw (sample i is training row draw[i]).
	xs, y []float64
	rank  []int32
	draw  []int32

	byRank []bin     // the tree's bins by rank; cleared per tree
	bins   []bin     // the ranks present, ascending
	at     []int32   // at[j]: the samples in bins[:j]
	binOf  []int32   // binOf[r]: the index in bins of rank r, if present
	leafOf []int32   // leafOf[r]: the leaf holding rank r
	sufS   []float64 // the current node's suffix sums of bins' sum, sq
	sufQ   []float64
	leaves []leafSize

	nodes  []treeNode
	bounds [][2]int32 // per split node: the sample indices of the two keys its threshold lies between
	count  []int32    // per node: its samples (fillInternal)
	// inexact is set once a chosen threshold is not strictly below its
	// upper key; it stays set until the next reset.
	inexact bool

	// Row-level fallback scratch, allocated on the first fallback and
	// regrown when a fold's training set, or pos the ranks, outgrow it.
	keys []keyed
	ys   []float64
	idx  []int
	pos  []int32
	bnds []boundary
	// fallbacks counts the nodes decided by the row-level search; only
	// tests read it.
	fallbacks int
}

// leafSize is one leaf of the current tree and its sample count.
type leafSize struct {
	node, n int32
}

// newBinGrower returns a grower for trees over ranks below nrank.
func newBinGrower(nrank int, cfg TreeConfig) *binGrower {
	g := new(binGrower)
	g.reset(nrank, nrank, cfg)
	return g
}

// reset readies the grower for the trees of one class, over ranks below
// nrank: the per-class state (inexact, fallbacks) clears, and when
// nrank outgrows the rank-sized buffers they regrow, to size ranks
// (at least nrank). The row-level fallback scratch is kept; rowSearch
// regrows it.
func (g *binGrower) reset(nrank, size int, cfg TreeConfig) {
	g.cfg, g.inexact, g.fallbacks = cfg.normalized(), false, 0
	if cap(g.byRank) < nrank {
		i32 := make([]int32, 3*size+1)
		f64 := make([]float64, 2*size)
		bins := make([]bin, 2*size)
		g.byRank, g.bins = bins[:size:size], bins[size:size]
		g.at, g.binOf, g.leafOf = i32[:0:size+1], i32[size+1:2*size+1], i32[2*size+1:]
		g.sufS, g.sufQ = f64[:size], f64[size:]
		g.leaves = make([]leafSize, 0, size)
		g.nodes = make([]treeNode, 0, 2*size-1)
		g.bounds = make([][2]int32, 2*size-1)
	}
	g.byRank = g.byRank[:nrank]
}

// growTree grows the tree on draw over training values xs, ranks rank
// and targets y into the grower's nodes and bounds.
func (g *binGrower) growTree(xs []float64, rank []int32, y []float64, draw []int32) {
	g.xs, g.rank, g.y, g.draw = xs, rank, y, draw
	byRank := g.byRank
	clear(byRank)
	for i, row := range draw {
		b := &byRank[rank[row]]
		v := y[row]
		if b.n == 0 {
			b.first = int32(i)
		}
		b.n++
		b.last = int32(i)
		b.sum += v
		b.sq += v * v
	}
	g.bins, g.at = g.bins[:0], append(g.at[:0], 0)
	for r, b := range byRank {
		if b.n == 0 {
			continue
		}
		b.rank = int32(r)
		g.binOf[r] = int32(len(g.bins))
		g.bins = append(g.bins, b)
		g.at = append(g.at, g.at[len(g.at)-1]+b.n)
	}
	g.nodes, g.leaves = g.nodes[:0], g.leaves[:0]
	g.grow(0, len(g.bins), 0)

	// Each leaf's value is the sum of its samples' targets in sample
	// order over their count: the chain mean(y, idx) sums, idx being
	// ascending. Internal nodes keep value 0.
	nodes, leafOf := g.nodes, g.leafOf
	for _, row := range draw {
		nodes[leafOf[rank[row]]].value += y[row]
	}
	for _, l := range g.leaves {
		nodes[l.node].value /= float64(l.n)
	}
}

// fillInternal sets every internal node of the tree just grown to the
// value growCtx.grow gives it, the mean of its samples' targets: one
// pass over the draw in sample order adds each sample's target to every
// internal node on its root-to-leaf path, so a node sums its samples in
// ascending sample order, the chain mean(y, idx), and its sample count
// then divides. A sample's path is the one its value takes, since each
// split sends exactly the bins valued at most its threshold left.
func (g *binGrower) fillInternal() {
	nodes := g.nodes
	count := grow(g.count, len(nodes))
	g.count = count
	clear(count)
	for _, row := range g.draw {
		x, v := g.xs[row], g.y[row]
		for j := int32(0); nodes[j].feature >= 0; {
			nodes[j].value += v
			count[j]++
			if x <= nodes[j].threshold {
				j = nodes[j].left
			} else {
				j = nodes[j].right
			}
		}
	}
	for j := range nodes {
		if nodes[j].feature >= 0 {
			nodes[j].value /= float64(count[j])
		}
	}
}

// leaf appends a leaf over bins [blo,bhi) and returns its index.
func (g *binGrower) leaf(blo, bhi int) int32 {
	at := int32(len(g.nodes))
	g.nodes = append(g.nodes, treeNode{feature: -1})
	g.leaves = append(g.leaves, leafSize{node: at, n: g.at[bhi] - g.at[blo]})
	for _, b := range g.bins[blo:bhi] {
		g.leafOf[b.rank] = at
	}
	return at
}

// value returns the training value of bin j.
func (g *binGrower) value(j int) float64 {
	return g.xs[g.draw[g.bins[j].first]]
}

// grow appends the subtree over bins [blo,bhi) in preorder and returns
// its root's index. The depth, leaf-size and single-value checks count
// samples and bins, which is exact; the split comes from certify, or
// from rowSearch when certify cannot vouch for its answer.
func (g *binGrower) grow(blo, bhi, depth int) int32 {
	n := int(g.at[bhi] - g.at[blo])
	if depth >= g.cfg.MaxDepth || n < 2*g.cfg.MinLeafSize || bhi-blo == 1 {
		return g.leaf(blo, bhi)
	}
	j, ok := g.certify(blo, bhi, n)
	if !ok {
		j = g.rowSearch(blo, bhi, n)
	}
	if j < 0 {
		return g.leaf(blo, bhi)
	}
	// The last key left of the boundary is bin j's last sample and the
	// first key right of it bin j+1's first: keys[bestK] and
	// keys[bestK+1] of the row-level list.
	lower, upper := g.bins[j].last, g.bins[j+1].first
	hi := g.xs[g.draw[upper]]
	thr := (g.xs[g.draw[lower]] + hi) / 2
	if !(thr < hi) {
		g.inexact = true
	}
	// The row-level split sends x <= thr left: the bins whose value is
	// at most thr, a prefix of the node's. That is bins[blo:j+1] unless
	// the midpoint rounds up to hi, which sends bin j+1 left too, or
	// the sum overflows (±Inf) or is NaN; a side left empty makes the
	// node a leaf, as it does at the row level.
	split := j + 1
	for split > blo && !(g.value(split-1) <= thr) {
		split--
	}
	for split < bhi && g.value(split) <= thr {
		split++
	}
	if split == blo || split == bhi {
		return g.leaf(blo, bhi)
	}
	at := len(g.nodes)
	g.nodes = append(g.nodes, treeNode{threshold: thr})
	g.bounds[at] = [2]int32{lower, upper}
	left := g.grow(blo, split, depth+1)
	right := g.grow(split, bhi, depth+1)
	g.nodes[at].left, g.nodes[at].right = left, right
	return int32(at)
}

// certify decides the split of the node over bins [blo,bhi) of n
// samples from the bins alone, when it can prove the row-level search
// decides the same. It returns the bin left of the chosen boundary, or
// -1 for a leaf, and ok; !ok means the bins cannot settle it.
//
// Each admissible boundary's gain is evaluated from bin sums, the
// right side's as suffix sums:
//
//	g̃ = (Q − S²/n) − (Q_L − S_L²/n_L) − (Q_R − S_R²/n_R)
//
// where Q = Σy² over the node. The row-level gain and g̃ are the same
// real number evaluated in two orders, and together they differ by at
// most E = certSlack·n·(√n·u·Q + 2⁻¹⁰⁷⁴), u = 2⁻⁵³ (DESIGN.md derives
// the bound). So the row-level search picks the best g̃ boundary if its
// gain clears 1e-15 by E and every other gain by 2E, and makes a leaf
// if the best gain is below 1e-15 by E. A NaN or infinite gain or Q
// certifies nothing.
func (g *binGrower) certify(blo, bhi, n int) (int, bool) {
	bins, minLeaf := g.bins, g.cfg.MinLeafSize
	var s, q float64
	for j := bhi - 1; j > blo; j-- {
		s += bins[j].sum
		q += bins[j].sq
		g.sufS[j], g.sufQ[j] = s, q
	}
	s += bins[blo].sum
	q += bins[blo].sq
	fn := float64(n)
	parent := q - s*s/fn
	best, g1, g2 := -1, math.Inf(-1), math.Inf(-1)
	var sL, qL float64
	for j := blo; j < bhi-1; j++ {
		sL += bins[j].sum
		qL += bins[j].sq
		nl := int(g.at[j+1] - g.at[blo])
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		sR, qR := g.sufS[j+1], g.sufQ[j+1]
		gain := parent - (qL - sL*sL/float64(nl)) - (qR - sR*sR/float64(nr))
		if math.IsNaN(gain) || math.IsInf(gain, 0) {
			return 0, false
		}
		if gain > g1 {
			best, g1, g2 = j, gain, g1
		} else if gain > g2 {
			g2 = gain
		}
	}
	if best < 0 {
		return -1, true // no admissible boundary: exact
	}
	e := certSlack * fn * (math.Sqrt(fn)*q*0x1p-53 + 0x1p-1074)
	switch {
	case g1-e > 1e-15 && g1-g2 > 2*e:
		return best, true
	case g1+e < 1e-15:
		return -1, true
	}
	return 0, false
}

// rowSearch runs the row-level split search of growCtx.grow on the
// node over bins [blo,bhi) of n samples and returns the bin left of
// the chosen boundary, or -1 for a leaf. It rebuilds the node's key
// list (bins in order, each in sample order) and its rows in
// ascending sample order from the draw, and evaluates them with the
// same sums, sseAround and scan, the same strict '>' and 1e-15 floor.
func (g *binGrower) rowSearch(blo, bhi, n int) int {
	g.fallbacks++
	if m := len(g.draw); cap(g.idx) < m {
		g.keys, g.ys, g.idx = make([]keyed, m), make([]float64, m), make([]int, 0, m)
	}
	if len(g.pos) < len(g.byRank) {
		g.pos = make([]int32, len(g.byRank))
	}
	keys, ys, idx, pos := g.keys[:n], g.ys[:n], g.idx[:0], g.pos[blo:bhi]
	for j := range pos {
		pos[j] = g.at[blo+j] - g.at[blo]
	}
	for i, row := range g.draw {
		j := int(g.binOf[g.rank[row]])
		if j < blo || j >= bhi {
			continue
		}
		k := pos[j-blo]
		pos[j-blo]++
		keys[k] = keyed{x: g.xs[row], i: i}
		ys[k] = g.y[row]
		idx = append(idx, int(row))
	}
	sumR, sumSqR, s := sums(ys, g.y, idx)
	parentSSE := sseAround(g.y, idx, s/float64(n))
	g.bnds = scan(keys, ys, sumR, sumSqR, g.cfg.MinLeafSize, g.bnds[:0])
	bestGain, bestK := 0.0, -1
	for _, b := range g.bnds {
		if gain := parentSSE - b.sseL - b.sseR; gain > bestGain {
			bestGain, bestK = gain, b.k
		}
	}
	if bestK < 0 || bestGain <= 1e-15 {
		return -1
	}
	j := blo
	for int(g.at[j+1]-g.at[blo]) != bestK+1 {
		j++
	}
	return j
}
