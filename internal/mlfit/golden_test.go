package mlfit

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/binpack"
)

// tieHeavyData is a fixed dataset whose features take only a handful
// of distinct values, so nearly every split search sorts long runs of
// equal keys: the tie order then decides the prefix-sum order, and any
// change to it shows up in the grown trees' bits.
func tieHeavyData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a := float64(rng.Intn(7)) / 2
		b := float64(rng.Intn(4))
		c := rng.Float64()
		X[i] = []float64{a, b, c}
		y[i] = math.Sin(a) + 0.5*b + 0.1*rng.NormFloat64()
	}
	return X, y
}

func forestDigest(f *Forest) string {
	var e binpack.Enc
	f.AppendBinary(&e)
	sum := sha256.Sum256(e.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestFitForestGolden pins the encoded bytes of forests grown on the
// tie-heavy dataset, with and without per-split feature subsampling,
// and the bits of a cross-validated error. The digests were recorded
// before the split search moved off sort.Slice; they may only change
// together with a deliberate change to the fitted model.
func TestFitForestGolden(t *testing.T) {
	X, y := tieHeavyData(400, 11)
	cases := []struct {
		name string
		cfg  ForestConfig
		want string
	}{
		{"all-features", ForestConfig{NumTrees: 12, Tree: TreeConfig{MaxDepth: 10, MinLeafSize: 2}, Seed: 3}, "cf3a73418c3efe48ec6b2a6ebebaeca35ecebee2567951c8db20d854d7e5ff3c"},
		{"subsampled", ForestConfig{NumTrees: 12, Tree: TreeConfig{MaxDepth: 8, MinLeafSize: 1, MaxFeatures: 2}, Seed: 5}, "f747bd25949bc1d1dea1f0b21da5df6a4be34cc709ea20e77efdef42dd54d5bb"},
		{"default", DefaultForestConfig(), "3282b4b05419e7e8be021be1c577cb9fb5521ce8e67da49e96ee9915f6002abf"},
	}
	for _, tc := range cases {
		f, err := FitForest(X, y, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := forestDigest(f); got != tc.want {
			t.Errorf("%s: forest digest %s, want %s", tc.name, got, tc.want)
		}
	}
	mse, err := KFoldMSE(X, y, 5, cases[0].cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(mse), uint64(0x3f8abaf966daf18a); got != want {
		t.Errorf("KFoldMSE bits %#x, want %#x", got, want)
	}
}
