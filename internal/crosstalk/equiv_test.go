package crosstalk

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/geom"
	"repro/internal/mlfit"
	"repro/internal/xmon"
)

// referenceFit fits samples on c the row-level way: every candidate's
// equivalent distance over the samples themselves, cross-validated
// alone by mlfit.KFoldMSE, the first best in grid order, and
// mlfit.FitForest on the winner. It returns the selected weights, the
// CV error and the forest's encoding.
func referenceFit(t *testing.T, c *chip.Chip, samples []xmon.Sample, cfg FitConfig) (chip.EquivWeights, float64, []byte) {
	t.Helper()
	top, err := c.Graph().AllMultiPathDistancesWorkers(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(samples))
	for i, s := range samples {
		y[i] = s.Value
	}
	column := func(wp, wt float64) [][]float64 {
		X := make([][]float64, len(samples))
		for i, s := range samples {
			d := top[s.I][s.J]
			if math.IsInf(d, 1) {
				d = float64(c.NumQubits())
			}
			X[i] = []float64{wp*c.PhysicalDistance(s.I, s.J) + wt*d}
		}
		return X
	}
	var best chip.EquivWeights
	bestMSE, bestX := math.Inf(1), [][]float64(nil)
	for _, wp := range cfg.WeightGrid {
		for _, wt := range cfg.WeightGrid {
			if wp == 0 && wt == 0 {
				continue
			}
			X := column(wp, wt)
			if bestX == nil {
				bestX = X
			}
			mse, err := mlfit.KFoldMSE(X, y, cfg.Folds, cfg.Forest, cfg.Forest.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if mse < bestMSE {
				best, bestMSE, bestX = chip.EquivWeights{WPhy: wp, WTop: wt}, mse, X
			}
		}
	}
	f, err := mlfit.FitForest(bestX, y, cfg.Forest)
	if err != nil {
		t.Fatal(err)
	}
	var e binpack.Enc
	f.AppendBinary(&e)
	return best, bestMSE, e.Bytes()
}

// checkFitMatchesReference fits samples with FitCtx at 1 and 2 workers
// and compares the weights, the CV error's bits and the forest's bytes
// with referenceFit's.
func checkFitMatchesReference(t *testing.T, name string, c *chip.Chip, samples []xmon.Sample, cfg FitConfig) {
	t.Helper()
	w, cv, forest := referenceFit(t, c, samples, cfg)
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		m, err := Fit(c, samples, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var e binpack.Enc
		m.forest.AppendBinary(&e)
		// Weights may be NaN, so they compare by bits.
		if math.Float64bits(m.Weights.WPhy) != math.Float64bits(w.WPhy) || math.Float64bits(m.Weights.WTop) != math.Float64bits(w.WTop) {
			t.Errorf("%s workers %d: weights %+v, reference %+v", name, workers, m.Weights, w)
		}
		if math.Float64bits(m.CVError) != math.Float64bits(cv) {
			t.Errorf("%s workers %d: CV error %v, reference %v", name, workers, m.CVError, cv)
		}
		if !bytes.Equal(e.Bytes(), forest) {
			t.Errorf("%s workers %d: forest bytes differ from FitForest's", name, workers)
		}
	}
}

// TestFitMatchesRowLevelReference: on every cold catalog shape, both
// crosstalk kinds, and on fits whose atoms are unusual, FitCtx selects
// the row-level reference's weights and CV error and encodes its
// forest, bit for bit. The unusual fits: a chip with a qubit no
// coupler reaches (d_top = ∞, replaced by the qubit count), a weight
// grid holding NaN (NaN columns are classes of their own, grown row by
// row), samples that all share one atom, with and without the NaN
// grid, and the chip whose shared midpoint rounds up.
func TestFitMatchesRowLevelReference(t *testing.T) {
	cfg := catalogFitConfig()
	for _, g := range catalogGolden {
		c, err := chip.ByTopology(g.topology, g.qubits)
		if err != nil {
			t.Fatal(err)
		}
		dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(7)))
		checkFitMatchesReference(t, fmt.Sprintf("%s/%d/%v", g.topology, g.qubits, g.kind), c, measure(t, dev, g.kind, 0.05, 13), cfg)
	}

	// Qubits 0-1-2 on a line and qubit 3 uncoupled.
	var qubits []chip.Qubit
	for i, p := range []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0.5), geom.Pt(1.5, 2)} {
		qubits = append(qubits, chip.Qubit{ID: i, Pos: p, T1: chip.DefaultT1})
	}
	apart, err := chip.New("apart", "low-density", qubits, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var samples []xmon.Sample
	for r := 0; r < 8; r++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				v := 1/(1+apart.PhysicalDistance(i, j)) + 0.05*rng.Float64()
				samples = append(samples, xmon.Sample{I: i, J: j, Kind: xmon.XY, Value: v})
			}
		}
	}
	checkFitMatchesReference(t, "unreachable pair", apart, samples, cfg)

	nanGrid := cfg
	nanGrid.WeightGrid = []float64{0, 0.5, math.NaN(), 1}
	checkFitMatchesReference(t, "NaN weight", apart, samples, nanGrid)

	var one []xmon.Sample
	for r := 0; r < 12; r++ {
		one = append(one, xmon.Sample{I: 0, J: 2, Kind: xmon.XY, Value: 0.1 * float64(r%5)})
	}
	checkFitMatchesReference(t, "one atom", apart, one, cfg)
	checkFitMatchesReference(t, "one atom, NaN weight", apart, one, nanGrid)

	checkFitMatchesReference(t, "ulp line", ulpLineChip(t), ulpLineSamples(), cfg)
}

// TestFitCtxAllocs bounds the allocations of the 7x7 square chip's XY
// fit at one and two workers: the fit's scratch is one workspace per
// worker, and a class allocates only what it returns. The bounds are
// twice the counts measured when the workspaces were introduced, 107 at
// one worker and 132 at two (195 and 211 before).
func TestFitCtxAllocs(t *testing.T) {
	c := chip.Square(7, 7)
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(7)))
	samples := measure(t, dev, xmon.XY, 0.05, 13)
	for _, tc := range []struct{ workers, bound int }{{1, 2 * 107}, {2, 2 * 132}} {
		cfg := catalogFitConfig()
		cfg.Workers = tc.workers
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Fit(c, samples, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers %d: %.0f allocs per fit", tc.workers, allocs)
		if allocs > float64(tc.bound) {
			t.Errorf("workers %d: %.0f allocs per fit, want at most %d", tc.workers, allocs, tc.bound)
		}
	}
}
