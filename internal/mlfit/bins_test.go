package mlfit

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
)

// denseRanks returns the dense rank of every value of xs under
// cmp.Compare and the number of distinct values.
func denseRanks(xs []float64) ([]int32, int) {
	order := sortedOrder(xs)
	rank := make([]int32, len(xs))
	var r int32
	for k, i := range order {
		if k > 0 && cmp.Compare(xs[order[k-1]], xs[i]) != 0 {
			r++
		}
		rank[i] = r
	}
	return rank, int(r) + 1
}

// checkBinnedTree grows the tree of one bootstrap draw over the
// training values xs and targets y both ways, with the row-level
// grower (growCtx.bag, as FitForest grows it) and with g, and fails
// unless the two trees route and predict alike: the same nodes in the
// same order, the same split thresholds and the same leaf values, bit
// for bit. The internal-node values, which the bins grower leaves zero
// until fillInternal, must then match too.
func checkBinnedTree(t *testing.T, name string, g *binGrower, xs, y []float64, draw []int32, cfg TreeConfig) {
	t.Helper()
	rank, nrank := denseRanks(xs)
	c := newGrowCtx(len(xs), 1, len(xs), cfg, nil)
	var want Tree
	c.bag(xs, rank, nrank, y, draw, ForestConfig{NumTrees: 1, Tree: cfg}, func([]int32) { want = c.tree() })
	g.growTree(xs, rank, y, draw)
	got := g.nodes
	if len(got) != len(want.nodes) {
		t.Fatalf("%s: bins grew %d nodes, row level %d", name, len(got), len(want.nodes))
	}
	for j, w := range want.nodes {
		b := got[j]
		switch {
		case b.feature != w.feature:
			t.Fatalf("%s: node %d feature %d, row level %d", name, j, b.feature, w.feature)
		case w.feature < 0 && math.Float64bits(b.value) != math.Float64bits(w.value):
			t.Fatalf("%s: leaf %d value %v, row level %v", name, j, b.value, w.value)
		case w.feature >= 0 && (math.Float64bits(b.threshold) != math.Float64bits(w.threshold) || b.left != w.left || b.right != w.right):
			t.Fatalf("%s: split %d (%v, %d, %d), row level (%v, %d, %d)", name, j, b.threshold, b.left, b.right, w.threshold, w.left, w.right)
		}
	}
	g.fillInternal()
	for j, w := range want.nodes {
		if b := got[j]; math.Float64bits(b.value) != math.Float64bits(w.value) {
			t.Fatalf("%s: node %d value %v after fillInternal, row level %v", name, j, b.value, w.value)
		}
	}
}

// checkRefit fails unless the binned refit of the column xs encodes to
// the bytes FitForest grows on it.
func checkRefit(t *testing.T, name string, w *CVWorkspace, xs, y []float64, cfg ForestConfig) {
	t.Helper()
	plan, err := NewCVPlan(len(xs), 2, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Refit(w, Atoms{Cols: [][]float64{xs}, Of: identity(len(xs))}, 0, y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := FitForest(asRows(xs), y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if forestDigest(got) != forestDigest(want) {
		t.Fatalf("%s: the binned refit's bytes differ from FitForest's", name)
	}
}

// identity returns the draw that takes every training row once.
func identity(m int) []int32 {
	draw := make([]int32, m)
	for i := range draw {
		draw[i] = int32(i)
	}
	return draw
}

// TestBinnedTreeMatchesRowLevel compares single trees grown on bins
// against the row-level grower on the cases where the certification
// decides: exactly tied gains, gains a few ulps apart that the two
// summation orders may rank differently, best gains within a few E of
// the 1e-15 floor, signed zeros, targets whose squares overflow, and
// random bootstrap draws of tie-heavy data. On every case the binned
// refit (CVPlan.Refit, on one workspace for all cases) also encodes to
// FitForest's bytes, internal nodes included. The row-level fallback
// must have run, or the certified path alone was tested.
func TestBinnedTreeMatchesRowLevel(t *testing.T) {
	deep := TreeConfig{MaxDepth: 8, MinLeafSize: 1}
	rng := rand.New(rand.NewSource(17))
	fallbacks := 0
	var w CVWorkspace
	check := func(name string, xs, y []float64, draw []int32, cfg TreeConfig) {
		t.Helper()
		_, nrank := denseRanks(xs)
		g := newBinGrower(nrank, cfg)
		checkBinnedTree(t, name, g, xs, y, draw, cfg)
		fallbacks += g.fallbacks
		checkRefit(t, name, &w, xs, y, ForestConfig{NumTrees: 3, Tree: cfg, Seed: int64(len(xs))})
	}

	// Mirrored targets give the mirrored boundaries mathematically
	// equal gains; inexact targets make the two summation orders round
	// them apart by an ulp or two, or leave them exactly tied.
	for trial := 0; trial < 200; trial++ {
		k := 3 + rng.Intn(6)
		half := make([]float64, k)
		for i := range half {
			half[i] = float64(rng.Intn(7)) / 10
		}
		var xs, y []float64
		for v := 0; v < 2*k; v++ {
			target := half[min(v, 2*k-1-v)]
			for r := 0; r < 1+trial%3; r++ {
				xs, y = append(xs, float64(v)), append(y, target)
			}
		}
		check("mirrored", xs, y, identity(len(xs)), deep)
	}

	// Two values whose gain n_L·n_R/n·δ² sweeps, ulp by ulp of δ,
	// across the 1e-15 floor: the row-level and binned gains straddle
	// it in opposite ways for some δ.
	for _, counts := range [][2]int{{3, 5}, {7, 2}, {11, 13}} {
		nl, nr := counts[0], counts[1]
		n := nl + nr
		d0 := math.Sqrt(1e-15 * float64(n) / float64(nl*nr))
		xs := make([]float64, n)
		for i := nl; i < n; i++ {
			xs[i] = 1
		}
		d := d0
		for range 64 {
			d = math.Nextafter(d, 0)
		}
		for range 128 {
			d = math.Nextafter(d, 1)
			y := make([]float64, n)
			for i := range y {
				y[i] = 0.3
				if i >= nl {
					y[i] = 0.3 + d
				}
			}
			check("near-floor", xs, y, identity(n), TreeConfig{MinLeafSize: 1})
		}
	}

	// Signed zeros share a rank, as values and as targets; and targets
	// so large that Q overflows, which certifies nothing.
	zeros := []float64{math.Copysign(0, -1), 0, 1, -2, 0, math.Copysign(0, -1), 3, 1}
	zy := []float64{math.Copysign(0, -1), 1, 0, 2, math.Copysign(0, -1), 1, 0, 2}
	check("signed-zero", zeros, zy, identity(len(zeros)), deep)
	huge := []float64{1e200, -3e200, 2e200, 1e200, 5e199, -1e200, 4e200, 1e200}
	check("overflow", []float64{0, 1, 2, 3, 4, 5, 6, 7}, huge, identity(8), deep)
	check("overflow-ties", []float64{0, 0, 1, 1, 2, 2, 3, 3}, huge, identity(8), TreeConfig{MinLeafSize: 2})

	// Random draws of tie-heavy data at several leaf sizes, the
	// bootstrap repeating and dropping rows as a CV fold does.
	for trial := 0; trial < 300; trial++ {
		m := 8 + rng.Intn(40)
		xs, y := make([]float64, m), make([]float64, m)
		for i := range xs {
			xs[i] = float64(rng.Intn(6))
			y[i] = float64(rng.Intn(4)) / 10
		}
		draw := make([]int32, m)
		drawRows(rng, draw)
		check("bootstrap", xs, y, draw, TreeConfig{MaxDepth: 1 + trial%7, MinLeafSize: 1 + trial%3})
	}
	if fallbacks == 0 {
		t.Fatal("no node fell back to the row-level search")
	}
}

// TestKFoldMSESharedFallsBack runs the shared CV where certification
// fails at every split, constant and near-constant targets whose gains
// are rounding noise: every fold's forest falls back node by node, at
// both training sizes of a sample count k does not divide, and must
// still return KFoldMSE's errors bit for bit.
func TestKFoldMSESharedFallsBack(t *testing.T) {
	const n, k = 53, 5
	rng := rand.New(rand.NewSource(23))
	base := make([]float64, n)
	for i := range base {
		base[i] = float64(rng.Intn(8))
	}
	cols := [][]float64{base, make([]float64, n)}
	for i, v := range base {
		cols[1][i] = 0.5 * v
	}
	cfg := ForestConfig{NumTrees: 4, Tree: TreeConfig{MaxDepth: 6, MinLeafSize: 1}, Seed: 5}
	plan, err := NewCVPlan(n, k, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.sizes) != 2 {
		t.Fatalf("%d training sizes, want 2", len(plan.sizes))
	}
	for name, y := range map[string][]float64{
		"constant": func() []float64 {
			y := make([]float64, n)
			for i := range y {
				y[i] = 0.1
			}
			return y
		}(),
		"ulp-apart": func() []float64 {
			y := make([]float64, n)
			for i, v := range base {
				y[i] = 0.1 + float64(int(v)%2)*0x1p-55
			}
			return y
		}(),
	} {
		var fallbacks int
		mses, _, err := plan.kFoldMSEShared(cols, []int{0, 1}, y, &fallbacks)
		if err != nil {
			t.Fatal(err)
		}
		if fallbacks < cfg.NumTrees*k {
			t.Errorf("%s: %d nodes fell back, want at least one per tree", name, fallbacks)
		}
		for j, m := range []int{0, 1} {
			want, err := KFoldMSE(asRows(cols[m]), y, k, cfg, 9)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(mses[j]) != math.Float64bits(want) {
				t.Errorf("%s column %d: shared MSE %v, KFoldMSE %v", name, m, mses[j], want)
			}
		}
	}
}
