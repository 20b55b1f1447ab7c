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
//
// Held-out rows of one representative value hold one value in every
// member, so they take one path through every tree: each distinct
// held-out value is routed once, and its prediction sum stands for all
// its rows.
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
	// value. One int32 and one float64 buffer serve every fold.
	ints := make([]int32, 2*n+2*nte)
	rank, slot := ints[:n], ints[n:2*n]
	dist, at := ints[2*n:2*n:2*n+nte], ints[2*n+nte:2*n+nte]
	var r int32
	for k, i := range order {
		if k > 0 && cmp.Compare(rep[order[k-1]], rep[i]) != 0 {
			r++
		}
		rank[i] = r
	}
	sums := make([]float64, (len(members)+1)*nte)
	sums, pred := sums[:len(members)*nte], sums[len(members)*nte:]

	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = rep[i : i+1 : i+1]
	}
	// One arena, its bootstrap buffers and the fold buffers serve every
	// fold; a member's thresholds and predictions are rebuilt in reused
	// scratch.
	c := newGrowCtx(n, 1, cfg.Tree, nil)
	c.bounds = make([][2]int, cap(c.nodes))
	tr, te := make([]int, 0, n), make([]int, 0, nte)
	trX, trY, teY := make([][]float64, 0, n), make([]float64, 0, n), make([]float64, 0, nte)
	thresholds := make([]float64, cap(c.nodes))
	solo := make([]bool, len(members)) // members to re-run alone
	mses := make([]float64, len(members))
	for fold := 0; fold < k; fold++ {
		tr, te = foldSplit(perm, k, fold, tr, te)
		trX = trX[:0]
		for _, r := range tr {
			trX = append(trX, rows[r])
		}
		trY, teY = gather(trY, y, tr), gather(teY, y, te)
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
				p := sums[mi*nd : (mi+1)*nd]
				for d, row := range dist {
					x, j := col[row], int32(0)
					for c.nodes[j].feature >= 0 {
						if x <= thresholds[j] {
							j = c.nodes[j].left
						} else {
							j = c.nodes[j].right
						}
					}
					p[d] += c.nodes[j].value
				}
			}
		})
		// Every held-out row's prediction is its value's sum: the same
		// leaf values, added in the same tree order.
		pred := pred[:len(te)]
		for mi := range members {
			if solo[mi] {
				continue
			}
			p := sums[mi*nd : (mi+1)*nd]
			for r, d := range at {
				pred[r] = p[d] / float64(cfg.NumTrees)
			}
			mses[mi] += MSE(pred, teY)
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
