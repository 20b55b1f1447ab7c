package mlfit

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// OrdinalClasses groups the columns (each one feature over the same
// samples) by the exact rank vector they give the samples, ties
// included. Classes come in the grid order of their first member, and
// members stay in grid order. A column holding a NaN has no rank
// vector; over two or more samples it forms a class of its own.
//
// A CART split reads its feature only through '<' and '==', so the
// columns of one class grow trees that differ only in their
// thresholds, and CVPlan.KFoldMSEShared cross-validates a class at the cost
// of one column.
func OrdinalClasses(cols [][]float64) [][]int {
	var classes [][]int
	var orders [][]int // orders[c]: the samples sorted by class c's first column
	for j, col := range cols {
		joined := false
		for c, class := range classes {
			if sameOrder(orders[c], cols[class[0]], col) {
				classes[c] = append(class, j)
				joined = true
				break
			}
		}
		if !joined {
			classes = append(classes, []int{j})
			orders = append(orders, sortedOrder(col))
		}
	}
	return classes
}

// sortedOrder returns the sample indices sorted by col.
func sortedOrder(col []float64) []int {
	order := make([]int, len(col))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(p, q int) int { return cmp.Compare(col[p], col[q]) })
	return order
}

// sameOrder reports whether b ranks the samples exactly as a does, ties
// included, given order, the samples sorted by a: every step along order
// must rise in both columns or stay level in both. It is false when
// either column holds a NaN.
func sameOrder(order []int, a, b []float64) bool {
	for k := 1; k < len(order); k++ {
		p, q := order[k-1], order[k]
		if !(a[p] < a[q] && b[p] < b[q]) && !(a[p] == a[q] && b[p] == b[q]) {
			return false
		}
	}
	return true
}

// CVPlan is the part of a single-feature k-fold cross-validation that
// does not depend on the feature's values: the fold split and every
// fold forest's bootstrap draws. A plan is read-only once built, so the
// CVs of every ordinal class of one fit may share it across goroutines.
type CVPlan struct {
	n, k int
	cfg  ForestConfig
	perm []int // the seeded sample permutation that assigns the folds
	// sizes holds the distinct training-set sizes of the folds (at
	// most two), and draws[s] the cfg.NumTrees×sizes[s] bootstrap rows
	// of a forest on sizes[s] rows, tree by tree.
	sizes []int
	draws [][]int32
}

// NewCVPlan builds the plan of a k-fold CV of forests grown under cfg
// over n samples, its folds assigned by seed as KFoldMSE assigns them.
//
// FitForest reseeds its stream from cfg.Seed on every call, and a
// single-feature tree draws no feature subset from it, so every fold
// forest of one training-set size draws the same rows: the Intn stream
// of a fresh rand.NewSource(cfg.Seed). The plan draws it once per size.
func NewCVPlan(n, k int, cfg ForestConfig, seed int64) (*CVPlan, error) {
	perm, err := foldPerm(n, k, seed)
	if err != nil {
		return nil, err
	}
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("mlfit: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	p := &CVPlan{n: n, k: k, cfg: cfg, perm: perm}
	for fold := 0; fold < k; fold++ {
		m := p.trainSize(fold)
		if slices.Contains(p.sizes, m) {
			continue
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		draws := make([]int32, cfg.NumTrees*m)
		for t := 0; t < cfg.NumTrees; t++ {
			drawRows(rng, draws[t*m:(t+1)*m])
		}
		p.sizes, p.draws = append(p.sizes, m), append(p.draws, draws)
	}
	return p, nil
}

// trainSize returns the number of samples fold trains on: all but the
// perm positions i with i%k == fold.
func (p *CVPlan) trainSize(fold int) int {
	return p.n - (p.n-fold+p.k-1)/p.k
}

// drawsFor returns the bootstrap draws of a forest on m training rows.
func (p *CVPlan) drawsFor(m int) []int32 {
	return p.draws[slices.Index(p.sizes, m)]
}

// KFoldMSEShared returns, for each column cols[m] of members, the
// k-fold CV error KFoldMSE returns for the single-feature matrix
// X[i] = [cols[m][i]] under the plan's fold count, forest config and
// fold seed, bit for bit. The members must form one ordinal class (see
// OrdinalClasses); the first is the class representative.
//
// Every fold's forest is grown once, on the representative: on its
// per-rank bins with certified splits (binGrower) for a class without
// NaNs, and by the row-level grower for a NaN column, which is always
// a class of its own. The bins grower records each split's two
// boundary samples. A member's tree is the representative's with each
// threshold rebuilt from the member's own values of those samples; its
// held-out rows are routed through the shared nodes and their
// predictions accumulated tree by tree, as Forest.Predict does. That
// reproduces the member's own training partitions only if every
// rebuilt midpoint stays strictly below the upper boundary value; a
// member whose midpoint rounds up at any shared split (or, in a class
// whose representative's does, every other member) is re-run as a
// class of its own. The second result counts the CVs grown: one plus
// one per such fallback.
//
// The class's dense ranks, which route held-out rows, also order each
// fold's root lists and bins: restricted to the fold's training rows
// they sort them exactly as compareKeyed does, so no fold sorts.
//
// Held-out rows of one representative value hold one value in every
// member, so they take one path through every tree: each distinct
// held-out value is routed once, and its prediction sum stands for all
// its rows.
func (p *CVPlan) KFoldMSEShared(cols [][]float64, members []int, y []float64) ([]float64, int, error) {
	return p.kFoldMSEShared(cols, members, y, nil)
}

// kFoldMSEShared is KFoldMSEShared; a non-nil fallbacks gains the
// count of nodes the bins grower of every CV grown left to the
// row-level search.
func (p *CVPlan) kFoldMSEShared(cols [][]float64, members []int, y []float64, fallbacks *int) ([]float64, int, error) {
	n, k, cfg := p.n, p.k, p.cfg
	if len(members) == 0 {
		return nil, 0, fmt.Errorf("mlfit: empty ordinal class")
	}
	if len(y) != n {
		return nil, 0, fmt.Errorf("mlfit: %d targets, want %d", len(y), n)
	}
	rep := cols[members[0]]
	for _, m := range members {
		if len(cols[m]) != n {
			return nil, 0, fmt.Errorf("mlfit: column %d has %d samples, want %d", m, len(cols[m]), n)
		}
	}
	order := sortedOrder(rep)
	for _, m := range members[1:] {
		if !sameOrder(order, rep, cols[m]) {
			return nil, 0, fmt.Errorf("mlfit: column %d does not rank the samples as column %d does", m, members[0])
		}
	}
	nte := (n + k - 1) / k
	// rank[i] is the dense rank of rep[i] under cmp.Compare; the class
	// gives rows of one rank equal values in every member. Of a fold's
	// held-out values, slot maps a rank to its index among them, dist
	// holds one held-out row of each, at[r] is the index of held-out
	// row r's value, and sums holds each member's prediction sum per
	// value; trRank holds the ranks of the fold's training rows. One
	// int32 and one float64 buffer serve every fold.
	ints := make([]int32, 3*n+2*nte)
	rank, slot, trRank := ints[:n], ints[n:2*n], ints[2*n:2*n:3*n]
	dist, at := ints[3*n:3*n:3*n+nte], ints[3*n+nte:3*n+nte]
	var r int32
	for k, i := range order {
		if k > 0 && cmp.Compare(rep[order[k-1]], rep[i]) != 0 {
			r++
		}
		rank[i] = r
	}
	nrank := int(r) + 1
	floats := make([]float64, (len(members)+1)*nte+3*n)
	sums, pred := floats[:len(members)*nte], floats[len(members)*nte:(len(members)+1)*nte]
	floats = floats[(len(members)+1)*nte:]
	trX, trY, teY := floats[:0:n], floats[n:n:2*n], floats[2*n:2*n]

	// One grower and the fold buffers serve every fold; a member's
	// thresholds and predictions are rebuilt in reused scratch. A split
	// sends every row of one value the same way, so each leaf holds
	// whole values, at least one: a tree has at most nrank leaves.
	// cmp.Compare ranks NaN first, so a NaN column has one at rank 0.
	var c *growCtx
	var g *binGrower
	if math.IsNaN(rep[order[0]]) {
		c = newGrowCtx(n, 1, nrank, cfg.Tree, nil)
	} else {
		g = newBinGrower(nrank, cfg.Tree)
	}
	tr, te := make([]int, 0, n), make([]int, 0, nte)
	thresholds := make([]float64, 2*nrank-1)
	solo := make([]bool, len(members)) // members to re-run alone
	mses := make([]float64, len(members))
	for fold := 0; fold < k; fold++ {
		tr, te = foldSplit(p.perm, k, fold, tr, te)
		trX, trY, teY = gather(trX, rep, tr), gather(trY, y, tr), gather(teY, y, te)
		trRank = trRank[:0]
		for _, row := range tr {
			trRank = append(trRank, rank[row])
		}
		for _, row := range te {
			slot[rank[row]] = -1
		}
		dist, at = dist[:0], at[:0]
		for _, row := range te {
			s := &slot[rank[row]]
			if *s < 0 {
				*s = int32(len(dist))
				dist = append(dist, int32(row))
			}
			at = append(at, *s)
		}
		nd := len(dist)
		sums := sums[:len(members)*nd]
		clear(sums)
		// addTree routes every member's held-out values through one
		// grown tree. The representative's thresholds are the tree's
		// own; every other member's are rebuilt from bounds, the
		// sample indices of each split's boundary keys, and must stay
		// below their upper boundary value. A NaN class has no other
		// member, so its row-level trees record no bounds.
		addTree := func(nodes []treeNode, bounds [][2]int32, inexact bool, draw []int32) {
			for mi, m := range members {
				if mi > 0 && (inexact || solo[mi]) {
					solo[mi] = true
					continue
				}
				col := cols[m]
				for j, nd := range nodes {
					if nd.feature < 0 {
						continue
					}
					if mi == 0 {
						thresholds[j] = nd.threshold
						continue
					}
					lo, hi := col[tr[draw[bounds[j][0]]]], col[tr[draw[bounds[j][1]]]]
					mid := (lo + hi) / 2
					if !(mid < hi) {
						solo[mi] = true
						break
					}
					thresholds[j] = mid
				}
				if !solo[mi] {
					route(nodes, thresholds, col, dist, sums[mi*nd:(mi+1)*nd])
				}
			}
		}
		draws := p.drawsFor(len(tr))
		if c != nil {
			c.bag(trX, trRank, nrank, trY, draws, cfg, func(draw []int32) {
				addTree(c.nodes, nil, false, draw)
			})
		} else {
			m := len(tr)
			for t := 0; t < cfg.NumTrees; t++ {
				draw := draws[t*m : (t+1)*m]
				g.growTree(trX, trRank, trY, draw)
				addTree(g.nodes, g.bounds, g.inexact, draw)
			}
		}
		// Every held-out row's prediction is its value's sum: the same
		// leaf values, added in the same tree order.
		pred := pred[:len(te)]
		for mi := range members {
			if solo[mi] {
				continue
			}
			ps := sums[mi*nd : (mi+1)*nd]
			for r, d := range at {
				pred[r] = ps[d] / float64(cfg.NumTrees)
			}
			mses[mi] += MSE(pred, teY)
		}
	}
	if g != nil && fallbacks != nil {
		*fallbacks += g.fallbacks
	}
	grown := 1
	for mi, m := range members {
		if !solo[mi] {
			mses[mi] /= float64(k)
			continue
		}
		single, gr, err := p.kFoldMSEShared(cols, []int{m}, y, fallbacks)
		if err != nil {
			return nil, 0, err
		}
		mses[mi] = single[0]
		grown += gr
	}
	return mses, grown, nil
}

// route adds to ps[d], for every held-out row dist[d], the value of the
// leaf that col[dist[d]] reaches in nodes when split j sends x left
// for x <= thresholds[j].
func route(nodes []treeNode, thresholds, col []float64, dist []int32, ps []float64) {
	for d, row := range dist {
		x, j := col[row], int32(0)
		for nodes[j].feature >= 0 {
			if x <= thresholds[j] {
				j = nodes[j].left
			} else {
				j = nodes[j].right
			}
		}
		ps[d] += nodes[j].value
	}
}
