package mlfit

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/binpack"
)

func encodeForest(f *Forest) []byte {
	var e binpack.Enc
	f.AppendBinary(&e)
	return e.Bytes()
}

func TestForestBinaryRoundTrip(t *testing.T) {
	X, y := tieHeavyData(200, 2)
	f, err := FitForest(X, y, ForestConfig{NumTrees: 5, Tree: TreeConfig{MaxDepth: 6, MaxFeatures: 2}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := encodeForest(f)
	g, err := DecodeBinary(binpack.NewDec(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeForest(g), b) {
		t.Fatal("re-encoding a decoded forest changed its bytes")
	}
	for i, x := range X {
		if math.Float64bits(g.Predict(x)) != math.Float64bits(f.Predict(x)) {
			t.Fatalf("row %d: decoded forest predicts %v, original %v", i, g.Predict(x), f.Predict(x))
		}
	}
	for i := range f.trees {
		if g.trees[i].Depth() != f.trees[i].Depth() {
			t.Fatalf("tree %d: decoded depth %d, original %d", i, g.trees[i].Depth(), f.trees[i].Depth())
		}
	}
}

// rawNode is one hand-written node of a forest record.
type rawNode struct {
	present   uint8
	feature   int
	threshold float64
}

// forestBytes hand-encodes a forest record: tree t has arity
// nFeature[t] and the preorder node stream trees[t], each node written
// as (presence byte, feature, threshold, value 1).
func forestBytes(nFeature []int, trees [][]rawNode) []byte {
	var e binpack.Enc
	e.U32(uint32(len(trees)))
	for t, nodes := range trees {
		e.Int(nFeature[t])
		for _, n := range nodes {
			e.U8(n.present)
			e.Int(n.feature)
			e.F64(n.threshold)
			e.F64(1)
		}
	}
	return e.Bytes()
}

// TestDecodeBinaryRejectsMalformed pins the records DecodeBinary must
// refuse even though each is well-formed at the byte level: every one
// would otherwise decode into a forest that panics or predicts NaN.
func TestDecodeBinaryRejectsMalformed(t *testing.T) {
	leaf := rawNode{present: 1, feature: -1}
	split := func(f int) rawNode { return rawNode{present: 1, feature: f, threshold: 0.5} }
	cases := []struct {
		name  string
		b     []byte
		match string
	}{
		{"zero trees", forestBytes(nil, nil), "tree count"},
		{"no root", forestBytes([]int{1}, [][]rawNode{{{present: 0, feature: -1}}}), "presence"},
		{"missing child", forestBytes([]int{1}, [][]rawNode{{split(0), leaf, {present: 0, feature: -1}}}), "presence"},
		{"presence byte 2", forestBytes([]int{1}, [][]rawNode{{{present: 2, feature: -1}}}), "presence"},
		{"feature out of range", forestBytes([]int{2}, [][]rawNode{{split(2), leaf, leaf}}), "feature 2 of 2"},
		{"feature below leaf marker", forestBytes([]int{1}, [][]rawNode{{split(-2)}}), "feature -2"},
		{"zero arity", forestBytes([]int{0}, [][]rawNode{{leaf}}), "arity 0"},
		{"arity mismatch", forestBytes([]int{1, 2}, [][]rawNode{{leaf}, {leaf}}), "arity 2"},
		{"truncated", forestBytes([]int{1}, [][]rawNode{{split(0), leaf}}), "truncated"},
	}
	for _, tc := range cases {
		_, err := DecodeBinary(binpack.NewDec(tc.b))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.match) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.match)
		}
	}
	ok := forestBytes([]int{2, 2}, [][]rawNode{{split(1), leaf, leaf}, {leaf}})
	if _, err := DecodeBinary(binpack.NewDec(ok)); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
}

// FuzzForestDecode checks DecodeBinary on arbitrary bytes: it never
// panics, every forest it accepts predicts without panicking on a row
// of its arity, and re-encoding an accepted forest reproduces exactly
// the bytes it consumed.
func FuzzForestDecode(f *testing.F) {
	X, y := tieHeavyData(60, 3)
	forest, err := FitForest(X, y, ForestConfig{NumTrees: 3, Tree: TreeConfig{MaxDepth: 4}, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeForest(forest))
	f.Add(forestBytes([]int{1}, [][]rawNode{{{present: 1, feature: 0, threshold: 1}, {present: 1, feature: -1}, {present: 1, feature: -1}}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		d := binpack.NewDec(b)
		g, err := DecodeBinary(d)
		if err != nil {
			return
		}
		consumed := b[:len(b)-d.Remaining()]
		if re := encodeForest(g); !bytes.Equal(re, consumed) {
			t.Fatalf("re-encoding changed the record:\n got %x\nwant %x", re, consumed)
		}
		// Features are bounded by the arity, which may be huge; a row
		// as long as the largest split feature used is enough.
		width := 1
		for i := range g.trees {
			for _, n := range g.trees[i].nodes {
				width = max(width, n.feature+1)
			}
		}
		g.Predict(make([]float64, width))
		g.Predict(bytesRow(b, width))
	})
}

// bytesRow is a feature row of the given width drawn from b, so fuzzed
// predictions walk more than the all-zero path.
func bytesRow(b []byte, width int) []float64 {
	row := make([]float64, width)
	for i := range row {
		if len(b) > 0 {
			row[i] = float64(b[i%len(b)]) / 16
		}
	}
	return row
}
