package crosstalk

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/mlfit"
	"repro/internal/xmon"
)

// TestFitGolden pins the encoded bytes of the XY and ZZ models fitted
// on a 6x6 square chip under the design pipeline's default fit
// configuration. The digests were recorded before the forest's split
// search moved off sort.Slice: the fitted model (selected weights, CV
// error and every tree) must stay bit-identical across changes to how
// the forest is grown.
func TestFitGolden(t *testing.T) {
	c := chip.Square(6, 6)
	cfg := FitConfig{
		WeightGrid: []float64{0, 0.25, 0.5, 1.0},
		Folds:      5,
		Forest: mlfit.ForestConfig{
			NumTrees: 12,
			Tree:     mlfit.TreeConfig{MaxDepth: 10, MinLeafSize: 4},
			Seed:     1,
		},
		Workers: 2,
	}
	for _, tc := range []struct {
		kind xmon.CrosstalkKind
		want string
	}{
		{xmon.XY, "7f0c98fdfa6a760e11d304b9a02a35a9b3a768f8ba136f8857c62f78086912a2"},
		{xmon.ZZ, "2e5f055727664d4e4016d5e6f86fb5d406ea0f34f95acc85007628d54fd86a01"},
	} {
		dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(7)))
		samples := dev.MeasureSeeded(tc.kind, 0.05, 13, 1)
		m, err := Fit(c, samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var e binpack.Enc
		m.AppendBinary(&e)
		sum := sha256.Sum256(e.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%v: model digest %s, want %s", tc.kind, got, tc.want)
		}
	}
}
