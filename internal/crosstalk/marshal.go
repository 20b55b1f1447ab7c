package crosstalk

import (
	"bytes"
	"fmt"

	"repro/internal/binpack"
	"repro/internal/mlfit"
	"repro/internal/xmon"
)

// AppendBinary encodes a fitted model: kind, selected weights, CV
// error and the trained forest. A decoded model writes back the forest
// record it kept, unchanged.
func (m *Model) AppendBinary(e *binpack.Enc) {
	e.Int(int(m.Kind))
	e.F64(m.Weights.WPhy)
	e.F64(m.Weights.WTop)
	e.F64(m.CVError)
	e.Bool(m.hasForest())
	if m.rec != nil {
		e.Append(m.rec)
	} else if m.forest != nil {
		m.forest.AppendBinary(e)
	}
}

// hasForest reports whether the model can predict.
func (m *Model) hasForest() bool { return m.rec != nil || m.forest != nil }

// DecodeBinary rebuilds a model encoded by AppendBinary. It checks the
// forest record in full (mlfit.ScanBinary) and keeps a copy of it; the
// first prediction builds the forest. A forest flag other than 0 or 1,
// or a forest reading more than the one d_equiv feature, could not have
// been encoded from a fitted model and is rejected.
func DecodeBinary(d *binpack.Dec) (*Model, error) {
	m := &Model{Kind: xmon.CrosstalkKind(d.Int())}
	m.Weights.WPhy = d.F64()
	m.Weights.WTop = d.F64()
	m.CVError = d.F64()
	hasForest := d.U8()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if hasForest > 1 {
		return nil, fmt.Errorf("crosstalk: model has forest flag %d", hasForest)
	}
	if hasForest == 1 {
		rec, nFeature, err := mlfit.ScanBinary(d)
		if err != nil {
			return nil, err
		}
		// The feature is d_equiv alone: PredictDistance passes one.
		if nFeature != 1 {
			return nil, fmt.Errorf("crosstalk: forest reads %d features, want 1", nFeature)
		}
		m.rec = bytes.Clone(rec)
	}
	return m, nil
}

// AppendBinary encodes the predictor's pair table: the qubit count n,
// the n*n pair indices, the distinct equivalent distances and their
// predictions. The model is not part of it (encode it with
// Model.AppendBinary); DecodePredictor rebinds the table to a decoded
// model without recomputing a distance or walking the forest.
func (p *Predictor) AppendBinary(e *binpack.Enc) {
	e.Int(p.n)
	e.Int32s(p.pair)
	e.Floats(p.dist)
	e.Floats(p.pred)
}

// DecodePredictor rebuilds a pair table encoded by Predictor.AppendBinary
// and binds it to m. The predictions are the floats PredictDistance
// returned when the table was built, so every reader returns the bits
// it returned before encoding. A table no On call could have built — a
// model without a forest, a negative qubit count, a pair list that is
// not n*n, predictions and distances of different lengths, a diagonal
// index other than 0, an off-diagonal index outside the distances, or
// an asymmetric pair — is rejected, so no reader of an accepted table
// can index out of range.
func DecodePredictor(d *binpack.Dec, m *Model) (*Predictor, error) {
	p := &Predictor{Model: m, n: d.Int(), pair: d.Int32s(), dist: d.Floats(), pred: d.Floats()}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !m.hasForest() {
		return nil, fmt.Errorf("crosstalk: pair table bound to a model without a forest")
	}
	// n <= len(pair) bounds n*n well inside an int.
	n := p.n
	if n < 0 || n > len(p.pair) || n*n != len(p.pair) {
		return nil, fmt.Errorf("crosstalk: pair table of %d entries for %d qubits", len(p.pair), n)
	}
	if len(p.pred) != len(p.dist) {
		return nil, fmt.Errorf("crosstalk: %d predictions for %d distances", len(p.pred), len(p.dist))
	}
	for i := 0; i < n; i++ {
		if k := p.pair[i*n+i]; k != 0 {
			return nil, fmt.Errorf("crosstalk: pair (%d,%d) indexes distance %d", i, i, k)
		}
		for j := i + 1; j < n; j++ {
			k := p.pair[i*n+j]
			if k < 0 || int(k) >= len(p.dist) || p.pair[j*n+i] != k {
				return nil, fmt.Errorf("crosstalk: pair (%d,%d) indexes distances %d and %d of %d", i, j, k, p.pair[j*n+i], len(p.dist))
			}
		}
	}
	return p, nil
}
