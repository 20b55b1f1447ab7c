package mlfit

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refGrower grows a tree the direct way: every node gathers its rows'
// keys and sorts them by compareKeyed, then splits into freshly
// appended halves. The arena's presorted lists must grow exactly the
// same nodes.
type refGrower struct {
	X     [][]float64
	y     []float64
	cfg   TreeConfig
	rng   *rand.Rand
	nodes []treeNode
}

func (g *refGrower) grow(idx []int, depth int) int32 {
	val := mean(g.y, idx)
	leaf := func() int32 {
		g.nodes = append(g.nodes, treeNode{feature: -1, value: val})
		return int32(len(g.nodes) - 1)
	}
	if depth >= g.cfg.MaxDepth || len(idx) < 2*g.cfg.MinLeafSize {
		return leaf()
	}
	nf := len(g.X[0])
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if g.cfg.MaxFeatures > 0 && g.cfg.MaxFeatures < nf && g.rng != nil {
		g.rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:g.cfg.MaxFeatures]
	}
	bestGain, bestFeature, bestThreshold := 0.0, -1, 0.0
	parentSSE := sse(g.y, idx)
	for _, f := range features {
		keys := make([]keyed, len(idx))
		for k, i := range idx {
			keys[k] = keyed{x: g.X[i][f], i: i}
		}
		slices.SortFunc(keys, compareKeyed)
		var sumL, sumSqL, sumR, sumSqR float64
		for _, kv := range keys {
			v := g.y[kv.i]
			sumR += v
			sumSqR += v * v
		}
		for k := 0; k < len(keys)-1; k++ {
			v := g.y[keys[k].i]
			sumL += v
			sumSqL += v * v
			sumR -= v
			sumSqR -= v * v
			if keys[k].x == keys[k+1].x {
				continue
			}
			nl, nr := k+1, len(keys)-k-1
			if nl < g.cfg.MinLeafSize || nr < g.cfg.MinLeafSize {
				continue
			}
			gain := parentSSE - (sumSqL - sumL*sumL/float64(nl)) - (sumSqR - sumR*sumR/float64(nr))
			if gain > bestGain {
				bestGain, bestFeature, bestThreshold = gain, f, (keys[k].x+keys[k+1].x)/2
			}
		}
	}
	if bestFeature < 0 || bestGain <= 1e-15 {
		return leaf()
	}
	var left, right []int
	for _, i := range idx {
		if g.X[i][bestFeature] <= bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return leaf()
	}
	at := len(g.nodes)
	g.nodes = append(g.nodes, treeNode{feature: bestFeature, threshold: bestThreshold, value: val})
	l := g.grow(left, depth+1)
	r := g.grow(right, depth+1)
	g.nodes[at].left, g.nodes[at].right = l, r
	return int32(at)
}

// sse returns the sum of squared errors of idx around its mean.
func sse(y []float64, idx []int) float64 {
	m := mean(y, idx)
	var s float64
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s
}

func (g *refGrower) tree() Tree {
	idx := make([]int, len(g.X))
	for i := range idx {
		idx[i] = i
	}
	g.grow(idx, 0)
	return Tree{nodes: g.nodes, nFeature: len(g.X[0])}
}

// refFitForest is FitForest over refGrower: the same bootstrap draws
// and feature shuffles from one seeded stream.
func refFitForest(X [][]float64, y []float64, cfg ForestConfig) *Forest {
	n := len(X)
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{}
	for t := 0; t < cfg.NumTrees; t++ {
		bx, by := make([][]float64, n), make([]float64, n)
		for i := range bx {
			k := rng.Intn(n)
			bx[i], by[i] = X[k], y[k]
		}
		g := refGrower{X: bx, y: by, cfg: cfg.Tree.normalized(), rng: rng}
		f.trees = append(f.trees, g.tree())
	}
	return f
}

// checkPresorted fails unless FitForest and FitTree build the same
// bytes as the per-node-sorting reference.
func checkPresorted(t *testing.T, name string, X [][]float64, y []float64, cfg ForestConfig) {
	t.Helper()
	got, err := FitForest(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := forestDigest(got), forestDigest(refFitForest(X, y, cfg)); g != w {
		t.Fatalf("%s: FitForest digest %s, reference %s", name, g, w)
	}
	tree, err := FitTree(X, y, cfg.Tree, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	ref := refGrower{X: X, y: y, cfg: cfg.Tree.normalized(), rng: rand.New(rand.NewSource(cfg.Seed))}
	if g, w := forestDigest(&Forest{trees: []Tree{*tree}}), forestDigest(&Forest{trees: []Tree{ref.tree()}}); g != w {
		t.Fatalf("%s: FitTree digest %s, reference %s", name, g, w)
	}
}

// TestPresortedTreeMatchesReference checks the presorted split search
// against the reference on the tie-heavy golden dataset, with and
// without feature subsampling; on a single feature with signed zeros,
// with NaNs, which sort first but split right, or with a segment of
// NaNs; on a best boundary at exactly MinLeafSize and on exactly tied
// gains; and on features that are constant over whole nodes, where the
// search returns a leaf before scanning but after the feature shuffle.
func TestPresortedTreeMatchesReference(t *testing.T) {
	X, y := tieHeavyData(300, 4)
	checkPresorted(t, "all-features", X, y, ForestConfig{NumTrees: 6, Tree: TreeConfig{MaxDepth: 10, MinLeafSize: 2}, Seed: 3})
	checkPresorted(t, "subsampled", X, y, ForestConfig{NumTrees: 6, Tree: TreeConfig{MaxDepth: 8, MinLeafSize: 1, MaxFeatures: 2}, Seed: 5})
	one := make([][]float64, 40)
	for i := range one {
		one[i] = []float64{[]float64{math.Copysign(0, -1), 0, 1, -2}[i%4]}
	}
	checkPresorted(t, "signed-zero", one, y[:40], ForestConfig{NumTrees: 4, Tree: TreeConfig{MinLeafSize: 1}, Seed: 7})
	for i := range one {
		one[i] = []float64{[]float64{math.NaN(), 3, 1, 2, 1}[i%5]}
	}
	checkPresorted(t, "nan", one, y[:40], ForestConfig{NumTrees: 4, Tree: TreeConfig{MinLeafSize: 1}, Seed: 7})
	// A NaN segment: the first 16 rows are NaN, so whole nodes hold
	// only NaNs, which never equal one another and split nowhere.
	for i := range one {
		one[i] = []float64{float64(i % 3)}
		if i < 16 {
			one[i][0] = math.NaN()
		}
	}
	checkPresorted(t, "nan-segment", one, y[:40], ForestConfig{NumTrees: 4, Tree: TreeConfig{MinLeafSize: 1}, Seed: 9})
	// ±0 keys beside one other value: equal to the split search and to
	// compareKeyed, so their rows stay in row order.
	for i := range one {
		one[i] = []float64{math.Copysign(0, float64(i%3)-1)}
		if i%5 == 0 {
			one[i][0] = 1
		}
	}
	checkPresorted(t, "signed-zero-only", one, y[:40], ForestConfig{NumTrees: 4, Tree: TreeConfig{MinLeafSize: 1}, Seed: 9})
	// The best boundary leaves exactly MinLeafSize rows on its left;
	// one row fewer would be inadmissible.
	edge := make([][]float64, 12)
	edgeY := make([]float64, 12)
	for i := range edge {
		edge[i] = []float64{float64(i)}
		if i < 3 {
			edgeY[i] = 5
		}
	}
	edgeY[11] = -5
	checkPresorted(t, "min-leaf-edge", edge, edgeY, ForestConfig{NumTrees: 4, Tree: TreeConfig{MinLeafSize: 3}, Seed: 9})
	// Two mirrored boundaries with exactly equal gains: the first in
	// scan order must win, so deferring the gains must keep the strict
	// '>'.
	tied := [][]float64{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	checkPresorted(t, "tied-gains", tied, []float64{0, 0, 1, 1, 1, 1, 0, 0}, ForestConfig{NumTrees: 6, Tree: TreeConfig{MinLeafSize: 1}, Seed: 9})
	// Feature 0 is constant everywhere, feature 1 within each half of
	// the rows, feature 2 takes three levels; with one feature drawn
	// per node, many nodes see only constant segments.
	cst := make([][]float64, 60)
	for i := range cst {
		cst[i] = []float64{2, float64(i / 30), float64(i % 3)}
	}
	checkPresorted(t, "constant", cst, y[:60], ForestConfig{NumTrees: 6, Tree: TreeConfig{MinLeafSize: 1, MaxFeatures: 1}, Seed: 11})
	checkPresorted(t, "constant-all", cst, y[:60], ForestConfig{NumTrees: 3, Tree: TreeConfig{MinLeafSize: 2}, Seed: 13})
}

// FuzzPresortedTree extends the check to arbitrary inputs: the first
// byte picks the feature count, depth, leaf size and subsampling, and
// every following group of one target byte plus one byte per feature
// is a row whose values take eight levels, zero with either sign, or
// NaN for a feature byte of 0xf0 or above.
func FuzzPresortedTree(f *testing.F) {
	f.Add([]byte{0x25, 3, 1, 2, 7, 0, 0, 5, 9, 1, 4, 2, 2, 6, 3, 3, 8, 4, 1, 0, 6})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, again and again"))
	// One feature, depth 8, leaf size 1 (0x1e) or 3 (0x5d); rows are
	// (target, value) byte pairs.
	f.Add([]byte{0x1e, 3, 0xf0, 9, 0xf0, 1, 0xf7, 4, 0xf0, 7, 2, 2, 2, 5, 4, 0, 2, 8, 6}) // NaN segment
	f.Add([]byte{0x1e, 3, 0, 9, 8, 1, 0, 4, 8, 7, 8, 2, 0, 5, 1, 0, 8})                   // ±0 keys
	f.Add([]byte{0x5d, 80, 0, 80, 1, 80, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 9, 1})          // MinLeafSize edge
	f.Add([]byte{0x1e, 0, 0, 0, 1, 16, 2, 16, 3, 16, 4, 16, 5, 0, 6, 0, 7})               // tied gains
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		nf := 1 + int(data[0]%3)
		n := (len(data) - 1) / (nf + 1)
		if n < 2 {
			return
		}
		if n > 64 {
			n = 64
		}
		X, y := make([][]float64, n), make([]float64, n)
		for i := range X {
			row := data[1+i*(nf+1):][:nf+1]
			y[i] = float64(row[0]) / 16
			X[i] = make([]float64, nf)
			for j, b := range row[1:] {
				v := float64(b%8) / 2
				if b&8 != 0 {
					v = -v
				}
				if b >= 0xf0 {
					v = math.NaN()
				}
				X[i][j] = v
			}
		}
		cfg := ForestConfig{
			NumTrees: 3,
			Tree: TreeConfig{
				MaxDepth:    1 + int(data[0]>>2%8),
				MinLeafSize: 1 + int(data[0]>>5%3),
				MaxFeatures: int(data[0] >> 7),
			},
			Seed: int64(data[0]),
		}
		checkPresorted(t, "fuzz", X, y, cfg)
	})
}
