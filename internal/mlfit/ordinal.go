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
// vector; it forms a class of its own.
//
// A CART split reads its feature only through '<' and '==', so the
// columns of one class grow trees that differ only in their
// thresholds, and CVPlan.KFoldMSEAtoms cross-validates a class at the
// cost of one column.
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
	return sortOrder(make([]int, len(col)), col)
}

// sortOrder fills order with the indices of col sorted by col's values
// under cmp.Compare and returns it.
func sortOrder(order []int, col []float64) []int {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(p, q int) int { return cmp.Compare(col[p], col[q]) })
	return order
}

// sameOrder reports whether b ranks the samples exactly as a does, ties
// included, given order, the samples sorted by a: every step along order
// must rise in both columns or stay level in both. It is false when
// either column holds a NaN; cmp.Compare sorts a's first.
func sameOrder(order []int, a, b []float64) bool {
	if len(order) > 0 {
		if p := order[0]; math.IsNaN(a[p]) || math.IsNaN(b[p]) {
			return false
		}
	}
	for k := 1; k < len(order); k++ {
		p, q := order[k-1], order[k]
		if !(a[p] < a[q] && b[p] < b[q]) && !(a[p] == a[q] && b[p] == b[q]) {
			return false
		}
	}
	return true
}

// Atoms lays single-feature columns out over the distinct feature
// values of a sample set, its atoms: column c's value at sample i is
// Cols[c][Of[i]], and every atom must be some sample's. Samples of one
// atom hold one value in every column, so two columns rank the samples
// alike exactly when they rank the atoms alike, and a class's dense
// sample ranks are its atoms' ranks, read through Of.
type Atoms struct {
	Cols [][]float64
	Of   []int32
}

// CVPlan is the part of a single-feature k-fold cross-validation that
// does not depend on the feature's values: the fold split and every
// fold forest's bootstrap draws. A plan is read-only once built, so the
// CVs of every ordinal class of one fit may share it across goroutines;
// only Refit reseeds its source.
type CVPlan struct {
	n, k int
	cfg  ForestConfig
	perm []int // the seeded sample permutation that assigns the folds
	// sizes holds the distinct training-set sizes of the folds (at
	// most two), and draws[s] the cfg.NumTrees×sizes[s] bootstrap rows
	// of a forest on sizes[s] rows, tree by tree.
	sizes []int
	draws [][]int32
	// rng is the plan's one source: it drew perm, then every size's
	// draws, reseeded to cfg.Seed for each as rand.NewSource would be.
	rng *rand.Rand
}

// NewCVPlan builds the plan of a k-fold CV of forests grown under cfg
// over n samples, its folds assigned by seed as KFoldMSE assigns them.
//
// FitForest reseeds its stream from cfg.Seed on every call, and a
// single-feature tree draws no feature subset from it, so every fold
// forest of one training-set size draws the same rows: the Intn stream
// of a fresh rand.NewSource(cfg.Seed). The plan draws it once per size.
func NewCVPlan(n, k int, cfg ForestConfig, seed int64) (*CVPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	perm, err := permFolds(rng, n, k)
	if err != nil {
		return nil, err
	}
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("mlfit: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	p := &CVPlan{n: n, k: k, cfg: cfg, perm: perm, rng: rng}
	for fold := 0; fold < k; fold++ {
		m := p.trainSize(fold)
		if slices.Contains(p.sizes, m) {
			continue
		}
		rng.Seed(cfg.Seed)
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

// CVWorkspace is the scratch of the CVs and refits that one goroutine
// runs, one class after another: its buffers grow to the largest call
// they serve, and every call resets what it reads. The zero value is
// ready; a workspace must not be used by two goroutines at once.
type CVWorkspace struct {
	order      []int // the atoms sorted by the current column
	ints       []int32
	floats     []float64
	tr, te     []int
	thresholds []float64
	solo       []bool
	g          binGrower
	fallbacks  int // nodes its CVs left to the row-level search; only tests read it
}

// grow returns buf resliced to n elements, reallocated when its
// capacity is short; the contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// rankAtoms sorts the atoms by col into w.order and stores in rank each
// atom's dense rank under cmp.Compare; it returns the number of ranks.
func (w *CVWorkspace) rankAtoms(col []float64, rank []int32) int {
	w.order = sortOrder(grow(w.order, len(col)), col)
	var r int32
	for k, a := range w.order {
		if k > 0 && cmp.Compare(col[w.order[k-1]], col[a]) != 0 {
			r++
		}
		rank[a] = r
	}
	return int(r) + 1
}

// checkAtoms checks that a maps the plan's n samples, with targets y,
// onto atoms of every column of members.
func (p *CVPlan) checkAtoms(a Atoms, members []int, y []float64) error {
	na := len(a.Cols[members[0]])
	if len(y) != p.n || len(a.Of) != p.n {
		return fmt.Errorf("mlfit: %d targets and %d atom indices, want %d", len(y), len(a.Of), p.n)
	}
	if slices.ContainsFunc(a.Of, func(at int32) bool { return at < 0 || int(at) >= na }) {
		return fmt.Errorf("mlfit: an atom index is outside [0,%d)", na)
	}
	for _, m := range members {
		if len(a.Cols[m]) != na {
			return fmt.Errorf("mlfit: column %d has %d atoms, want %d", m, len(a.Cols[m]), na)
		}
	}
	return nil
}

// KFoldMSEAtoms stores in mses[m], for each column a.Cols[m] of
// members, the k-fold CV error KFoldMSE returns for the single-feature
// matrix X[i] = [a.Cols[m][a.Of[i]]] under the plan's fold count, forest
// config and fold seed, bit for bit, and returns the count of CVs
// grown: one plus one per fallback (below). The members must form one
// ordinal class (see OrdinalClasses); the first is the class
// representative. The call's scratch is w.
//
// The class's dense ranks come from one sort of the representative's
// atoms. Every fold's forest is grown once, on the representative: on
// its per-rank bins with certified splits (binGrower) for a class
// without NaNs, and by the row-level grower for a NaN column, which is
// always a class of its own. The bins grower records each split's two
// boundary samples. A member's tree is the representative's with each
// threshold rebuilt from the member's own values of those samples; its
// held-out atoms are routed through the shared nodes and their
// predictions accumulated tree by tree, as Forest.Predict does. That
// reproduces the member's own training partitions only if every
// rebuilt midpoint stays strictly below the upper boundary value; a
// member whose midpoint rounds up at any shared split (or, in a class
// whose representative's does, every other member) is re-run as a
// class of its own.
//
// The ranks, which route held-out rows, also order each fold's root
// lists and bins: restricted to the fold's training rows they sort
// them exactly as compareKeyed does, so no fold sorts.
//
// Held-out rows of one rank hold one value in every member, so they
// take one path through every tree: each distinct held-out rank is
// routed once, at one of its atoms, and its prediction sum stands for
// all its rows.
func (p *CVPlan) KFoldMSEAtoms(w *CVWorkspace, a Atoms, members []int, y, mses []float64) (int, error) {
	n, k, cfg := p.n, p.k, p.cfg
	if len(members) == 0 {
		return 0, fmt.Errorf("mlfit: empty ordinal class")
	}
	if err := p.checkAtoms(a, members, y); err != nil {
		return 0, err
	}
	cols, of, rep := a.Cols, a.Of, a.Cols[members[0]]
	na, nte := len(rep), (n+k-1)/k
	// rank[a] is the dense rank of rep[a] under cmp.Compare; the class
	// gives atoms of one rank equal values in every member. Of a fold's
	// held-out ranks, slot maps a rank to its index among them, dist
	// holds one atom of each, at[r] is the index of held-out row r's
	// rank, and sums holds each member's prediction sum per rank;
	// trRank holds the ranks of the fold's training rows. One int32 and
	// one float64 buffer serve every fold.
	w.ints = grow(w.ints, 2*na+n+2*nte)
	rank, slot := w.ints[:na], w.ints[na:2*na]
	trRank, dist, at := w.ints[2*na:2*na:2*na+n], w.ints[2*na+n:2*na+n:2*na+n+nte], w.ints[2*na+n+nte:2*na+n+nte]
	nrank := w.rankAtoms(rep, rank)
	for _, m := range members[1:] {
		if !sameOrder(w.order, rep, cols[m]) {
			return 0, fmt.Errorf("mlfit: column %d does not rank the samples as column %d does", m, members[0])
		}
	}
	w.floats = grow(w.floats, (len(members)+2)*nte+2*n)
	sums, pred := w.floats[:len(members)*nte], w.floats[len(members)*nte:(len(members)+1)*nte]
	floats := w.floats[(len(members)+1)*nte:]
	trX, trY, teY := floats[:0:n], floats[n:n:2*n], floats[2*n:2*n]

	// One grower and the fold buffers serve every fold; a member's
	// thresholds and predictions are rebuilt in reused scratch. A split
	// sends every row of one value the same way, so each leaf holds
	// whole values, at least one: a tree has at most nrank leaves.
	// cmp.Compare ranks NaN first, so a NaN column has one at rank 0.
	var c *growCtx
	g := &w.g
	if math.IsNaN(rep[w.order[0]]) {
		c = newGrowCtx(n, 1, nrank, cfg.Tree, nil)
	} else {
		g.reset(nrank, na, cfg.Tree) // no class of these atoms has more ranks
	}
	tr, te := grow(w.tr, n)[:0], grow(w.te, nte)[:0]
	thresholds := grow(w.thresholds, 2*nrank-1)
	solo := grow(w.solo, len(members)) // members to re-run alone
	clear(solo)
	for _, m := range members {
		mses[m] = 0
	}
	for fold := 0; fold < k; fold++ {
		tr, te = foldSplit(p.perm, k, fold, tr, te)
		trX, trY, trRank = trX[:0], gather(trY, y, tr), trRank[:0]
		for _, row := range tr {
			trX, trRank = append(trX, rep[of[row]]), append(trRank, rank[of[row]])
		}
		teY = gather(teY, y, te)
		for _, row := range te {
			slot[rank[of[row]]] = -1
		}
		dist, at = dist[:0], at[:0]
		for _, row := range te {
			s := &slot[rank[of[row]]]
			if *s < 0 {
				*s = int32(len(dist))
				dist = append(dist, of[row])
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
					lo, hi := col[of[tr[draw[bounds[j][0]]]]], col[of[tr[draw[bounds[j][1]]]]]
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
		// Every held-out row's prediction is its rank's sum: the same
		// leaf values, added in the same tree order.
		pred := pred[:len(te)]
		for mi, m := range members {
			if solo[mi] {
				continue
			}
			ps := sums[mi*nd : (mi+1)*nd]
			for r, d := range at {
				pred[r] = ps[d] / float64(cfg.NumTrees)
			}
			mses[m] += MSE(pred, teY)
		}
	}
	w.tr, w.te, w.thresholds, w.solo = tr, te, thresholds, solo
	if c == nil {
		w.fallbacks += g.fallbacks
	}
	var rerun []int // the members to re-run alone, which reuses w
	for mi, m := range members {
		if solo[mi] {
			rerun = append(rerun, mi)
		} else {
			mses[m] /= float64(k)
		}
	}
	grown := 1
	for _, mi := range rerun {
		gr, err := p.KFoldMSEAtoms(w, a, members[mi:mi+1], y, mses)
		if err != nil {
			return 0, err
		}
		grown += gr
	}
	return grown, nil
}

// route adds to ps[d], for every held-out atom dist[d], the value of
// the leaf that col[dist[d]] reaches in nodes when split j sends x left
// for x <= thresholds[j].
func route(nodes []treeNode, thresholds, col []float64, dist []int32, ps []float64) {
	for d, atom := range dist {
		x, j := col[atom], int32(0)
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

// Refit grows the forest FitForest grows under the plan's forest
// config on the single-feature matrix X[i] = [a.Cols[col][a.Of[i]]]
// and targets y, bit for bit: the refit of a fit's winning column. A
// single-feature forest's rows are the Intn stream of
// rand.NewSource(cfg.Seed) over the plan's n samples, which Refit draws
// from the plan's source, reseeded. A column without NaNs grows on its
// bins (binGrower), the internal nodes' values filled from the draw
// (binGrower.fillInternal); a NaN column grows row by row. Refit uses
// the plan's source, so it must not run beside another Refit on the
// same plan.
func (p *CVPlan) Refit(w *CVWorkspace, a Atoms, col int, y []float64) (*Forest, error) {
	if err := p.checkAtoms(a, []int{col}, y); err != nil {
		return nil, err
	}
	n, cfg, vals := p.n, p.cfg, a.Cols[col]
	w.ints = grow(w.ints, len(vals)+2*n)
	atomRank, rank, draw := w.ints[:len(vals)], w.ints[len(vals):len(vals)+n], w.ints[len(vals)+n:]
	nrank := w.rankAtoms(vals, atomRank)
	xs := grow(w.floats, n)
	w.floats = xs
	for i, at := range a.Of {
		xs[i], rank[i] = vals[at], atomRank[at]
	}
	f := &Forest{trees: make([]Tree, 0, cfg.NumTrees)}
	if math.IsNaN(vals[w.order[0]]) {
		c := newGrowCtx(n, 1, n, cfg.Tree, nil)
		c.bag(xs, rank, nrank, y, nil, cfg, func([]int32) { f.trees = append(f.trees, c.tree()) })
		return f, nil
	}
	g := &w.g
	g.reset(nrank, len(vals), cfg.Tree)
	p.rng.Seed(cfg.Seed)
	for t := 0; t < cfg.NumTrees; t++ {
		drawRows(p.rng, draw)
		g.growTree(xs, rank, y, draw)
		g.fillInternal()
		f.trees = append(f.trees, Tree{nodes: slices.Clone(g.nodes), nFeature: 1})
	}
	return f, nil
}
