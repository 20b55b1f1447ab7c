package mlfit

import (
	"cmp"
	"fmt"
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
// thresholds, and KFoldMSEShared cross-validates a class at the cost
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

// KFoldMSEShared returns, for each column cols[m] of members, the
// k-fold CV error KFoldMSE returns for the single-feature matrix
// X[i] = [cols[m][i]], bit for bit. The members must form one ordinal
// class (see OrdinalClasses); the first is the class representative.
//
// Every fold's forest is grown once, on the representative, and the
// arena records each split's two boundary samples. A member's tree is
// the representative's with each threshold rebuilt from the member's
// own values of those samples; its held-out rows are routed through the
// shared nodes and their predictions accumulated tree by tree, as
// Forest.Predict does. That reproduces the member's own training
// partitions only if every rebuilt midpoint stays strictly below the
// upper boundary value; a member whose midpoint rounds up at any shared
// split (or, in a class whose representative's does, every other
// member) is re-run as a class of its own. The second result counts the
// CVs grown: one plus one per such fallback.
func KFoldMSEShared(cols [][]float64, members []int, y []float64, k int, cfg ForestConfig, seed int64) ([]float64, int, error) {
	n := len(y)
	if len(members) == 0 {
		return nil, 0, fmt.Errorf("mlfit: empty ordinal class")
	}
	perm, err := foldPerm(n, k, seed)
	if err != nil {
		return nil, 0, err
	}
	if cfg.NumTrees <= 0 {
		return nil, 0, fmt.Errorf("mlfit: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	rep := cols[members[0]]
	for _, m := range members {
		if len(cols[m]) != n {
			return nil, 0, fmt.Errorf("mlfit: column %d has %d samples, want %d", m, len(cols[m]), n)
		}
	}
	if len(members) > 1 {
		order := sortedOrder(rep)
		for _, m := range members[1:] {
			if !sameOrder(order, rep, cols[m]) {
				return nil, 0, fmt.Errorf("mlfit: column %d does not rank the samples as column %d does", m, members[0])
			}
		}
	}

	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = rep[i : i+1 : i+1]
	}
	// One arena, its bootstrap buffers and the fold buffers serve every
	// fold; a member's thresholds and predictions are rebuilt in reused
	// scratch.
	c := newGrowCtx(n, 1, cfg.Tree, nil)
	c.bounds = make([][2]int, cap(c.nodes))
	nte := (n + k - 1) / k
	tr, te := make([]int, 0, n), make([]int, 0, nte)
	trX, trY, teY := make([][]float64, 0, n), make([]float64, 0, n), make([]float64, 0, nte)
	thresholds := make([]float64, cap(c.nodes))
	pred := make([]float64, len(members)*nte)
	solo := make([]bool, len(members)) // members to re-run alone
	mses := make([]float64, len(members))
	for fold := 0; fold < k; fold++ {
		tr, te = foldSplit(perm, k, fold, tr, te)
		trX = trX[:0]
		for _, r := range tr {
			trX = append(trX, rows[r])
		}
		trY, teY = gather(trY, y, tr), gather(teY, y, te)
		pred := pred[:len(members)*len(te)]
		clear(pred)
		c.bag(trX, trY, cfg, func(draw []int) {
			for mi, m := range members {
				// The representative's rebuilt thresholds are its
				// tree's own; every other member must keep each
				// rebuilt midpoint below its upper boundary value.
				if mi > 0 && (c.inexact || solo[mi]) {
					solo[mi] = true
					continue
				}
				col := cols[m]
				for j, nd := range c.nodes {
					if nd.feature < 0 {
						continue
					}
					lo, hi := col[tr[draw[c.bounds[j][0]]]], col[tr[draw[c.bounds[j][1]]]]
					mid := (lo + hi) / 2
					if mi > 0 && !(mid < hi) {
						solo[mi] = true
						break
					}
					thresholds[j] = mid
				}
				if solo[mi] {
					continue
				}
				p := pred[mi*len(te) : (mi+1)*len(te)]
				for r, row := range te {
					x, j := col[row], int32(0)
					for c.nodes[j].feature >= 0 {
						if x <= thresholds[j] {
							j = c.nodes[j].left
						} else {
							j = c.nodes[j].right
						}
					}
					p[r] += c.nodes[j].value
				}
			}
		})
		for mi := range members {
			if solo[mi] {
				continue
			}
			p := pred[mi*len(te) : (mi+1)*len(te)]
			for r := range p {
				p[r] /= float64(cfg.NumTrees)
			}
			mses[mi] += MSE(p, teY)
		}
	}
	grown := 1
	for mi, m := range members {
		if !solo[mi] {
			mses[mi] /= float64(k)
			continue
		}
		single, g, err := KFoldMSEShared(cols, []int{m}, y, k, cfg, seed)
		if err != nil {
			return nil, 0, err
		}
		mses[mi] = single[0]
		grown += g
	}
	return mses, grown, nil
}
