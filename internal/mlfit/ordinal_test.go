package mlfit

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// asRows wraps a column as the single-feature matrix KFoldMSE takes.
func asRows(col []float64) [][]float64 {
	X := make([][]float64, len(col))
	for i := range col {
		X[i] = []float64{col[i]}
	}
	return X
}

// checkShared runs the shared CV over every ordinal class of cols and
// checks each column's MSE bit for bit against KFoldMSE on that column
// alone. It returns the total count of CVs grown.
func checkShared(t *testing.T, cols [][]float64, y []float64, k int, cfg ForestConfig, seed int64) int {
	t.Helper()
	plan, err := NewCVPlan(len(y), k, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	grown := 0
	for _, class := range OrdinalClasses(cols) {
		mses, g, err := plan.KFoldMSEShared(cols, class, y)
		if err != nil {
			t.Fatalf("class %v: %v", class, err)
		}
		grown += g
		for j, m := range class {
			want, err := KFoldMSE(asRows(cols[m]), y, k, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(mses[j]) != math.Float64bits(want) {
				t.Errorf("column %d (class %v): shared MSE %v (%#x), KFoldMSE %v (%#x)",
					m, class, mses[j], math.Float64bits(mses[j]), want, math.Float64bits(want))
			}
		}
	}
	return grown
}

// adjacentUp returns the n floats following x, each one ulp above the
// last.
func adjacentUp(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		x = math.Nextafter(x, math.Inf(1))
		out[i] = x
	}
	return out
}

// TestKFoldMSESharedMatchesKFoldMSE: for every column of every case,
// the shared CV returns exactly the per-column KFoldMSE error, and it
// grows the expected number of CVs — one per ordinal class, plus one
// per member whose rebuilt midpoint rounds up at a shared split.
func TestKFoldMSESharedMatchesKFoldMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 90
	base := make([]float64, n) // few distinct values: long tie runs
	y := make([]float64, n)
	for i := range base {
		base[i] = float64(rng.Intn(9))
		y[i] = math.Sin(base[i]) + 0.2*rng.NormFloat64()
	}
	scale := func(s float64) []float64 {
		out := make([]float64, n)
		for i, v := range base {
			out[i] = s * v
		}
		return out
	}
	mapped := func(f func(float64) float64) []float64 {
		out := make([]float64, n)
		for i, v := range base {
			out[i] = f(v)
		}
		return out
	}
	// ulps places the base values one ulp apart above 1: the midpoint
	// of 1+(2j+1)ulp and 1+(2j+2)ulp rounds half to even, up to the
	// upper value, so a shared split between them falls back.
	steps := adjacentUp(1, 9)
	ulps := mapped(func(v float64) float64 { return steps[int(v)] })
	cfg := ForestConfig{NumTrees: 6, Tree: TreeConfig{MaxDepth: 6, MinLeafSize: 1}, Seed: 3}

	cases := []struct {
		name  string
		cols  [][]float64
		grown int
	}{
		{"scaled", [][]float64{base, scale(2), scale(0.1), scale(0.75), scale(-1)}, 2},
		{"monotone maps", [][]float64{base, mapped(math.Exp), mapped(math.Sqrt), mapped(func(v float64) float64 { return v * v })}, 1},
		{"constant", [][]float64{scale(0), mapped(func(float64) float64 { return 7 }), base}, 2},
		{"member rounds up", [][]float64{base, ulps}, 2},
		{"representative rounds up", [][]float64{ulps, base, scale(2)}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkShared(t, tc.cols, y, 5, cfg, 7); got != tc.grown {
				t.Errorf("grew %d CVs, want %d", got, tc.grown)
			}
		})
	}
}

func TestOrdinalClasses(t *testing.T) {
	nan := math.NaN()
	cols := [][]float64{
		{1, 2, 2, 3},
		{3, 2, 2, 1},       // reversed: own class
		{10, 20, 20, 30},   // scaled first column
		{0, 5, 5, 5},       // a different tie pattern
		{1, 2, nan, 3},     // NaN: own class
		{-1, 0, 0, 1e300},  // first column's rank vector
		{30, 20, 20, 10},   // the reversed column's rank vector
		{1, nan, nan, nan}, // NaN: own class
	}
	want := [][]int{{0, 2, 5}, {1, 6}, {3}, {4}, {7}}
	if got := OrdinalClasses(cols); !reflect.DeepEqual(got, want) {
		t.Errorf("OrdinalClasses = %v, want %v", got, want)
	}
	if got := OrdinalClasses(nil); got != nil {
		t.Errorf("OrdinalClasses(nil) = %v, want nil", got)
	}
}

func TestKFoldMSESharedValidation(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1}, {1, 2, 3}}
	y := []float64{1, 2, 1, 2, 1, 2}
	cfg := ForestConfig{NumTrees: 2, Tree: TreeConfig{MaxDepth: 2}, Seed: 1}
	for _, tc := range []struct {
		name    string
		members []int
		k       int
		cfg     ForestConfig
	}{
		{"empty class", nil, 2, cfg},
		{"k too small", []int{0}, 1, cfg},
		{"k too large", []int{0}, 7, cfg},
		{"no trees", []int{0}, 2, ForestConfig{}},
		{"short column", []int{2}, 2, cfg},
		{"mixed ranks", []int{0, 1}, 2, cfg},
	} {
		plan, err := NewCVPlan(len(y), tc.k, tc.cfg, 1)
		if err == nil {
			_, _, err = plan.KFoldMSEShared(cols, tc.members, y)
		}
		if err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	plan, err := NewCVPlan(len(y), 2, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.KFoldMSEShared(cols, []int{0}, y[:5]); err == nil {
		t.Error("short targets accepted")
	}
}

// checkAtoms runs the ranked CV (KFoldMSEAtoms) over every ordinal
// class of the atom columns cols, all on the workspace w, and checks
// each column's MSE bit for bit against KFoldMSE on the column read out
// over the samples through of. It returns the total count of CVs grown.
func checkAtoms(t *testing.T, w *CVWorkspace, cols [][]float64, of []int32, y []float64, k int, cfg ForestConfig, seed int64) int {
	t.Helper()
	plan, err := NewCVPlan(len(y), k, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	mses := make([]float64, len(cols))
	grown := 0
	for _, class := range OrdinalClasses(cols) {
		g, err := plan.KFoldMSEAtoms(w, Atoms{Cols: cols, Of: of}, class, y, mses)
		if err != nil {
			t.Fatalf("class %v: %v", class, err)
		}
		grown += g
		for _, m := range class {
			col := make([]float64, len(of))
			for i, a := range of {
				col[i] = cols[m][a]
			}
			want, err := KFoldMSE(asRows(col), y, k, cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(mses[m]) != math.Float64bits(want) {
				t.Errorf("column %d (class %v): ranked MSE %v (%#x), KFoldMSE %v (%#x)",
					m, class, mses[m], math.Float64bits(mses[m]), want, math.Float64bits(want))
			}
		}
	}
	return grown
}

// FuzzKFoldMSEShared checks the ranked CV (KFoldMSEAtoms) against
// per-column KFoldMSE on small random columns: each input byte pair
// gives one sample's base value (few distinct values, so ties are
// common) and target; the base values present are the atoms, in order
// of first appearance, and the columns are monotone images of them —
// scaled, shifted one ulp apart, constant or reversed — so the classes,
// the midpoint fallback and the tie handling are all exercised. Two
// more columns are classes of their own: one maps the base values 0
// and 1 to -0 and +0, which tie, and one maps 15 to NaN. One workspace
// serves every class. Seeds include exactly tied gains and all-equal
// targets, whose splits the bins grower cannot certify.
func FuzzKFoldMSEShared(f *testing.F) {
	f.Add([]byte{3, 1, 2, 7, 0, 0, 5, 9, 1, 4, 2, 2, 6, 3, 3, 8, 4, 1, 0, 6})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add([]byte{15, 1, 2, 7, 15, 0, 5, 9, 1, 4, 15, 2, 6, 3, 15, 8, 4, 1, 0, 6}) // NaN
	f.Add([]byte{0, 1, 1, 7, 0, 0, 1, 9, 16, 4, 17, 2, 0, 3, 1, 8, 32, 1, 0, 6})  // ±0
	f.Add([]byte{7, 1, 7, 7, 23, 0, 7, 9, 39, 4, 7, 2, 7, 3, 55, 8, 7, 1, 7, 6})  // all equal
	// Mirrored targets over mirrored values: exactly tied gains.
	f.Add([]byte{0, 16, 1, 40, 2, 72, 3, 72, 4, 40, 5, 16, 0, 16, 1, 40, 2, 72, 3, 72, 4, 40, 5, 16})
	// One target everywhere: every gain is zero, within E of the 1e-15
	// floor, so every split falls back to the row-level search.
	f.Add([]byte{3, 7, 1, 7, 2, 7, 7, 7, 0, 7, 5, 7, 1, 7, 4, 7, 2, 7, 6, 7, 3, 7, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 2
		if n < 5 {
			return
		}
		if n > 48 {
			n = 48
		}
		steps := adjacentUp(1, 16)
		atomOf := make(map[int]int32)
		var base []int
		of, y := make([]int32, n), make([]float64, n)
		for i := 0; i < n; i++ {
			v := int(data[2*i] % 16)
			a, ok := atomOf[v]
			if !ok {
				a = int32(len(base))
				atomOf[v] = a
				base = append(base, v)
			}
			of[i], y[i] = a, float64(data[2*i+1])/16
		}
		cols := make([][]float64, 7)
		for c := range cols {
			cols[c] = make([]float64, len(base))
		}
		for a, v := range base {
			cols[0][a] = float64(v)
			cols[1][a] = 0.1 * float64(v)
			cols[2][a] = steps[v]
			cols[3][a] = 2.5
			cols[4][a] = -0.75 * float64(v)
			cols[5][a] = math.Copysign(float64(v/2), float64(v%2)-0.5)
			cols[6][a] = float64(v)
			if v == 15 {
				cols[6][a] = math.NaN()
			}
		}
		cfg := ForestConfig{NumTrees: 3, Tree: TreeConfig{MaxDepth: 5, MinLeafSize: 1}, Seed: int64(data[0])}
		checkAtoms(t, new(CVWorkspace), cols, of, y, 5, cfg, int64(data[1]))
	})
}

// TestCVWorkspaceReuse runs classes one after another on one
// workspace, where per-class state would leak. A class whose
// representative's midpoint rounds up sends its other members to CVs
// of their own, and the next class on the workspace must not: it grows
// one CV. A class of three ranks whose splits all fall back sizes the
// row-level fallback's position buffer, and a later class of nine
// ranks must regrow it. Every MSE is KFoldMSE's, bit for bit, and the
// workspace's refit of a NaN column is FitForest's.
func TestCVWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 60
	base, varied, constant := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range base {
		base[i] = float64(rng.Intn(9))
		varied[i] = math.Sin(base[i]) + 0.2*rng.NormFloat64()
		constant[i] = 0.1
	}
	mapped := func(f func(float64) float64) []float64 {
		out := make([]float64, n)
		for i, v := range base {
			out[i] = f(v)
		}
		return out
	}
	steps := adjacentUp(1, 9)
	ulps := mapped(func(v float64) float64 { return steps[int(v)] })
	third := mapped(func(v float64) float64 { return math.Floor(v / 3) })
	cfg := ForestConfig{NumTrees: 4, Tree: TreeConfig{MaxDepth: 6, MinLeafSize: 1}, Seed: 3}
	type step struct {
		name  string
		y     []float64
		cols  [][]float64
		grown int
	}
	var w CVWorkspace
	for _, seq := range [][]step{{
		{"representative rounds up", varied, [][]float64{ulps, base, mapped(func(v float64) float64 { return 2 * v })}, 3},
		{"after the round-up", varied, [][]float64{mapped(func(v float64) float64 { return -v }), mapped(func(v float64) float64 { return -3 * v })}, 1},
	}, {
		{"three ranks fall back", constant, [][]float64{third, mapped(func(v float64) float64 { return 2 * math.Floor(v/3) })}, 1},
		{"nine ranks fall back", constant, [][]float64{base, mapped(math.Sqrt)}, 1},
	}} {
		w = CVWorkspace{}
		for _, st := range seq {
			plan, err := NewCVPlan(n, 5, cfg, 7)
			if err != nil {
				t.Fatal(err)
			}
			mses := make([]float64, len(st.cols))
			fallbacks := w.fallbacks
			grown, err := plan.KFoldMSEAtoms(&w, Atoms{Cols: st.cols, Of: identity(n)}, []int{0, 1, 2}[:len(st.cols)], st.y, mses)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if grown != st.grown {
				t.Errorf("%s: grew %d CVs, want %d", st.name, grown, st.grown)
			}
			if &st.y[0] == &constant[0] && w.fallbacks == fallbacks {
				t.Errorf("%s: no node fell back", st.name)
			}
			for m, col := range st.cols {
				want, err := KFoldMSE(asRows(col), st.y, 5, cfg, 7)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(mses[m]) != math.Float64bits(want) {
					t.Errorf("%s column %d: MSE %v, KFoldMSE %v", st.name, m, mses[m], want)
				}
			}
		}
	}
	nan := mapped(func(v float64) float64 {
		if v == 4 {
			return math.NaN()
		}
		return v
	})
	checkRefit(t, "NaN column", &w, nan, varied, cfg)
}

// TestCVPlanDraws: for every fold, the plan's draws at the fold's
// training-set size are the Intn stream of a fresh
// rand.NewSource(cfg.Seed), tree after tree, which is what FitForest
// draws on a single feature; sample counts not divisible by k give two
// sizes.
func TestCVPlanDraws(t *testing.T) {
	cfg := ForestConfig{NumTrees: 7, Tree: TreeConfig{MaxDepth: 4}, Seed: 11}
	for _, tc := range []struct{ n, k, sizes int }{{50, 5, 1}, {53, 5, 2}, {7, 3, 2}, {10, 10, 1}, {11, 2, 2}} {
		p, err := NewCVPlan(tc.n, tc.k, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := foldPerm(tc.n, tc.k, 5); !reflect.DeepEqual(p.perm, want) {
			t.Errorf("n=%d k=%d: perm %v, want %v", tc.n, tc.k, p.perm, want)
		}
		if len(p.sizes) != tc.sizes {
			t.Errorf("n=%d k=%d: %d training sizes %v, want %d", tc.n, tc.k, len(p.sizes), p.sizes, tc.sizes)
		}
		var tr, te []int
		for fold := 0; fold < tc.k; fold++ {
			tr, te = foldSplit(p.perm, tc.k, fold, tr, te)
			m := len(tr)
			if p.trainSize(fold) != m {
				t.Fatalf("n=%d k=%d fold %d: trainSize %d, want %d", tc.n, tc.k, fold, p.trainSize(fold), m)
			}
			got := p.drawsFor(m)
			rng := rand.New(rand.NewSource(cfg.Seed))
			if len(got) != cfg.NumTrees*m {
				t.Fatalf("n=%d k=%d fold %d: %d draws, want %d", tc.n, tc.k, fold, len(got), cfg.NumTrees*m)
			}
			for i, d := range got {
				if want := rng.Intn(m); int(d) != want {
					t.Fatalf("n=%d k=%d fold %d: draw %d is %d, want %d", tc.n, tc.k, fold, i, d, want)
				}
			}
		}
	}
}

// TestCVPlanShared: one plan, shared by four goroutines that each
// cross-validate every ordinal class, gives every column exactly its
// KFoldMSE error. Run under -race, it also checks that the CVs only
// read the plan.
func TestCVPlanShared(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 83 // not a multiple of k: two training-set sizes
	base, y := make([]float64, n), make([]float64, n)
	for i := range base {
		base[i] = float64(rng.Intn(11))
		y[i] = math.Cos(base[i]) + 0.3*rng.NormFloat64()
	}
	cols := [][]float64{base, make([]float64, n), make([]float64, n), make([]float64, n)}
	for i, v := range base {
		cols[1][i] = 0.25 * v
		cols[2][i] = -v
		cols[3][i] = math.Sqrt(v)
	}
	cfg := ForestConfig{NumTrees: 5, Tree: TreeConfig{MaxDepth: 6, MinLeafSize: 2}, Seed: 6}
	const k, seed = 5, 3
	plan, err := NewCVPlan(n, k, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	classes := OrdinalClasses(cols)
	const workers = 4
	got := make([][]float64, workers*len(cols))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, class := range classes {
				mses, _, err := plan.KFoldMSEShared(cols, class, y)
				if err != nil {
					errs[w] = err
					return
				}
				for j, m := range class {
					got[w*len(cols)+m] = mses[j : j+1]
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for m, col := range cols {
		want, err := KFoldMSE(asRows(col), y, k, cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < workers; w++ {
			if g := got[w*len(cols)+m][0]; math.Float64bits(g) != math.Float64bits(want) {
				t.Errorf("worker %d column %d: shared MSE %v, KFoldMSE %v", w, m, g, want)
			}
		}
	}
}
