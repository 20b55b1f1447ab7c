package mlfit

import (
	"math"
	"math/rand"
	"reflect"
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
	grown := 0
	for _, class := range OrdinalClasses(cols) {
		mses, g, err := KFoldMSEShared(cols, class, y, k, cfg, seed)
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
		if _, _, err := KFoldMSEShared(cols, tc.members, y, tc.k, tc.cfg, 1); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// FuzzKFoldMSEShared checks the shared CV against per-column KFoldMSE
// on small random columns: each input byte pair gives one sample's
// base value (few distinct values, so ties are common) and target, and
// the columns are monotone images of the base values — scaled, shifted
// one ulp apart, constant or reversed — so the classes, the midpoint
// fallback and the tie handling are all exercised. Two more columns
// are classes of their own: one maps the base values 0 and 1 to -0
// and +0, which tie, and one maps 15 to NaN.
func FuzzKFoldMSEShared(f *testing.F) {
	f.Add([]byte{3, 1, 2, 7, 0, 0, 5, 9, 1, 4, 2, 2, 6, 3, 3, 8, 4, 1, 0, 6})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add([]byte{15, 1, 2, 7, 15, 0, 5, 9, 1, 4, 15, 2, 6, 3, 15, 8, 4, 1, 0, 6}) // NaN
	f.Add([]byte{0, 1, 1, 7, 0, 0, 1, 9, 16, 4, 17, 2, 0, 3, 1, 8, 32, 1, 0, 6})  // ±0
	f.Add([]byte{7, 1, 7, 7, 23, 0, 7, 9, 39, 4, 7, 2, 7, 3, 55, 8, 7, 1, 7, 6})  // all equal
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 2
		if n < 5 {
			return
		}
		if n > 48 {
			n = 48
		}
		steps := adjacentUp(1, 16)
		cols := make([][]float64, 7)
		for c := range cols {
			cols[c] = make([]float64, n)
		}
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			v := int(data[2*i] % 16)
			cols[0][i] = float64(v)
			cols[1][i] = 0.1 * float64(v)
			cols[2][i] = steps[v]
			cols[3][i] = 2.5
			cols[4][i] = -0.75 * float64(v)
			cols[5][i] = math.Copysign(float64(v/2), float64(v%2)-0.5)
			cols[6][i] = float64(v)
			if v == 15 {
				cols[6][i] = math.NaN()
			}
			y[i] = float64(data[2*i+1]) / 16
		}
		cfg := ForestConfig{NumTrees: 3, Tree: TreeConfig{MaxDepth: 5, MinLeafSize: 1}, Seed: int64(data[0])}
		checkShared(t, cols, y, 5, cfg, int64(data[1]))
	})
}
