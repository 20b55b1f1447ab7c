package crosstalk

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/chip"
)

// TestMatrixSymmetryAndDiagonal pins the mirrored-pair construction of
// Matrix: exact (not just approximate) symmetry, a zero diagonal, and
// entry-wise agreement with pointwise Predict.
func TestMatrixSymmetryAndDiagonal(t *testing.T) {
	c := chip.Square(3, 4)
	m, _ := fitOn(t, c, 5)
	p := m.On(c)
	mat := p.Matrix()
	n := c.NumQubits()
	if len(mat) != n {
		t.Fatalf("matrix has %d rows, want %d", len(mat), n)
	}
	for i := 0; i < n; i++ {
		if len(mat[i]) != n {
			t.Fatalf("row %d has %d entries, want %d", i, len(mat[i]), n)
		}
		if mat[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %v, want 0", i, i, mat[i][i])
		}
		for j := i + 1; j < n; j++ {
			if mat[i][j] != mat[j][i] {
				t.Errorf("asymmetry at (%d,%d): %v vs %v", i, j, mat[i][j], mat[j][i])
			}
			if mat[i][j] != p.Predict(i, j) {
				t.Errorf("matrix[%d][%d] = %v, Predict = %v", i, j, mat[i][j], p.Predict(i, j))
			}
		}
	}
}

// TestPairLookups checks the predictor's pair table against its
// definition: EquivDistance against the d_equiv expression over the
// chip's multi-path distances, Pairs against Predict in both orders,
// and Above against Predict and the threshold, on square and
// heavy-hexagon chips.
func TestPairLookups(t *testing.T) {
	for _, c := range []*chip.Chip{chip.Square(3, 4), chip.HeavyHexagon(2, 2)} {
		m, _ := fitOn(t, c, 5)
		p := m.On(c)
		n := c.NumQubits()
		top := c.Graph().AllMultiPathDistances()
		pairs := p.Predict
		// The median prediction splits the pairs into listed and not.
		vals := p.PredictedValues()
		slices.Sort(vals)
		thr := vals[len(vals)/2]
		start, nbr := p.Above(thr)
		if len(nbr) == 0 || len(nbr) == n*(n-1) {
			t.Fatalf("%s: threshold %v lists %d of %d ordered pairs", c.Topology, thr, len(nbr), n*(n-1))
		}
		for i := 0; i < n; i++ {
			var above []int32
			for j := 0; j < n; j++ {
				want := 0.0
				if i != j {
					tp := top[i][j]
					if math.IsInf(tp, 1) {
						tp = float64(n)
					}
					want = m.Weights.WPhy*c.PhysicalDistance(i, j) + m.Weights.WTop*tp
				}
				if got := p.EquivDistance(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: EquivDistance(%d,%d) = %v, want %v", c.Topology, i, j, got, want)
				}
				pred := p.Predict(i, j)
				if got := pairs(i, j); math.Float64bits(got) != math.Float64bits(pred) {
					t.Fatalf("%s: Pairs(%d,%d) = %v, Predict %v", c.Topology, i, j, got, pred)
				}
				if i != j && pred > thr {
					above = append(above, int32(j))
				}
			}
			if got := nbr[start[i]:start[i+1]]; !slices.Equal(got, above) {
				t.Fatalf("%s: Above lists %v for qubit %d, want %v", c.Topology, got, i, above)
			}
		}
	}
}

// TestPredictConcurrent hammers the prediction path from many
// goroutines — the FDM region grouping predicts concurrently, so reads
// must be race-free (run under -race) and every goroutine must observe
// identical values.
func TestPredictConcurrent(t *testing.T) {
	c := chip.Square(3, 3)
	m, _ := fitOn(t, c, 6)
	p := m.On(c)
	n := c.NumQubits()
	want := p.Matrix()

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if got := p.Predict(i, j); got != want[i][j] {
							errs[g] = "concurrent Predict diverged from Matrix"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
}
