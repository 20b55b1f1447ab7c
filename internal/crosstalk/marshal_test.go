package crosstalk

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/mlfit"
)

// encodePredictor encodes p's model, then its table.
func encodePredictor(p *Predictor) []byte {
	var e binpack.Enc
	p.Model.AppendBinary(&e)
	p.AppendBinary(&e)
	return e.Bytes()
}

// decodePredictor decodes a model and a table from b, requiring every
// byte to be read.
func decodePredictor(b []byte) (*Predictor, error) {
	d := binpack.NewDec(b)
	m, err := DecodeBinary(d)
	if err != nil {
		return nil, err
	}
	p, err := DecodePredictor(d, m)
	if err == nil && d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	return p, err
}

// TestPredictorCodecRoundTrip: a decoded table re-encodes to the same
// bytes and every reader returns the bits the bound predictor does.
func TestPredictorCodecRoundTrip(t *testing.T) {
	for _, c := range []*chip.Chip{chip.Square(3, 4), chip.HeavyHexagon(2, 2)} {
		m, _ := fitOn(t, c, 5)
		p := m.On(c)
		b := encodePredictor(p)
		got, err := decodePredictor(b)
		if err != nil {
			t.Fatalf("%s: %v", c.Topology, err)
		}
		if re := encodePredictor(got); !bytes.Equal(re, b) {
			t.Fatalf("%s: re-encoding changed the record", c.Topology)
		}
		n := c.NumQubits()
		want, have := p.Predict, got.Predict
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(got.EquivDistance(i, j)) != math.Float64bits(p.EquivDistance(i, j)) ||
					math.Float64bits(have(i, j)) != math.Float64bits(want(i, j)) ||
					math.Float64bits(got.Predict(i, j)) != math.Float64bits(p.Predict(i, j)) {
					t.Fatalf("%s: pair (%d,%d) reads differently after decoding", c.Topology, i, j)
				}
			}
		}
	}
}

// tableBytes encodes m followed by a hand-built pair table.
func tableBytes(m *Model, n int, pair []int32, dist, pred []float64) []byte {
	var e binpack.Enc
	m.AppendBinary(&e)
	e.Int(n)
	e.Int32s(pair)
	e.Floats(dist)
	e.Floats(pred)
	return e.Bytes()
}

// TestDecodePredictorRejectsMalformed: every table no On call could
// have built is an error, never a panic or a predictor whose readers
// index out of range.
func TestDecodePredictorRejectsMalformed(t *testing.T) {
	m, _ := fitOn(t, chip.Square(2, 2), 5)
	d2, p2 := []float64{1, 2}, []float64{0.5, 0.25}
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"negative qubit count", tableBytes(m, -1, nil, nil, nil)},
		{"qubit count squaring to zero", tableBytes(m, 1<<32, nil, nil, nil)},
		{"short pair list", tableBytes(m, 2, []int32{0, 0, 0}, d2, p2)},
		{"long pair list", tableBytes(m, 1, []int32{0, 0}, d2, p2)},
		{"pairs without a chip", tableBytes(m, 0, []int32{0}, nil, nil)},
		{"fewer predictions than distances", tableBytes(m, 2, []int32{0, 1, 1, 0}, d2, p2[:1])},
		{"more predictions than distances", tableBytes(m, 2, []int32{0, 0, 0, 0}, d2[:1], p2)},
		{"index past the distances", tableBytes(m, 2, []int32{0, 2, 2, 0}, d2, p2)},
		{"negative index", tableBytes(m, 2, []int32{0, -1, -1, 0}, d2, p2)},
		{"no distances", tableBytes(m, 2, []int32{0, 0, 0, 0}, nil, nil)},
		{"asymmetric pair", tableBytes(m, 2, []int32{0, 0, 1, 0}, d2, p2)},
		{"nonzero diagonal", tableBytes(m, 2, []int32{1, 0, 0, 0}, d2, p2)},
		{"model without a forest", tableBytes(&Model{}, 0, nil, nil, nil)},
		{"truncated table", tableBytes(m, 2, []int32{0, 1, 1, 0}, d2, p2)[:len(tableBytes(m, 0, nil, nil, nil))+3]},
	} {
		if _, err := decodePredictor(tc.b); err == nil {
			t.Errorf("%s: decoded", tc.name)
		}
	}
	// The smallest tables are well formed.
	for _, n := range []int{0, 1} {
		if _, err := decodePredictor(tableBytes(m, n, make([]int32, n*n), nil, nil)); err != nil {
			t.Errorf("%d-qubit table rejected: %v", n, err)
		}
	}
}

// TestDecodeModelRejectsForeignForests: a forest flag other than 0 or
// 1 does not decode (it would re-encode differently), and neither does
// a forest fitted on more than the one d_equiv feature.
func TestDecodeModelRejectsForeignForests(t *testing.T) {
	m, _ := fitOn(t, chip.Square(2, 2), 5)
	var e binpack.Enc
	m.AppendBinary(&e)
	b := slices.Clone(e.Bytes())
	b[4*8] = 2 // the flag follows kind, w_phy, w_top and the CV error
	if _, err := DecodeBinary(binpack.NewDec(b)); err == nil {
		t.Error("forest flag 2 decoded")
	}
	X := [][]float64{{0, 1}, {1, 0}, {2, 1}, {3, 0}}
	f, err := mlfit.FitForest(X, []float64{0, 1, 2, 3}, mlfit.ForestConfig{NumTrees: 2, Tree: mlfit.TreeConfig{MaxDepth: 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e = binpack.Enc{}
	(&Model{forest: f}).AppendBinary(&e)
	if _, err := DecodeBinary(binpack.NewDec(e.Bytes())); err == nil {
		t.Error("a two-feature forest decoded")
	}
}
