package mlfit

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/binpack"
)

// AppendBinary encodes a trained forest: tree count, then each tree's
// feature arity and its nodes in preorder. A node is a presence flag
// (always true) and (feature, threshold, value); children exist
// exactly when feature >= 0, so the preorder stream needs no explicit
// links.
func (f *Forest) AppendBinary(e *binpack.Enc) {
	e.U32(uint32(len(f.trees)))
	for i := range f.trees {
		t := &f.trees[i]
		e.Int(t.nFeature)
		t.appendNode(e, 0)
	}
}

func (t *Tree) appendNode(e *binpack.Enc, i int32) {
	n := &t.nodes[i]
	e.Bool(true)
	e.Int(n.feature)
	e.F64(n.threshold)
	e.F64(n.value)
	if n.feature >= 0 {
		t.appendNode(e, n.left)
		t.appendNode(e, n.right)
	}
}

// DecodeBinary rebuilds a forest encoded by AppendBinary: ScanBinary,
// then BuildBinary of the record it accepted. The decoded forest
// predicts bit-identically: node structure, split thresholds and leaf
// values round-trip exactly.
func DecodeBinary(d *binpack.Dec) (*Forest, error) {
	rec, _, err := ScanBinary(d)
	if err != nil {
		return nil, err
	}
	return BuildBinary(rec), nil
}

// ScanBinary checks the forest record at d's position and reads it,
// building nothing. It returns the record, aliasing d's input, and the
// forest's feature arity. A record that could not have been encoded
// from a trained forest — no trees, a feature arity below one or
// differing between trees, a missing node, or a split on a feature
// outside the arity — is rejected, so a forest built from an accepted
// record predicts on any row of its arity.
func ScanBinary(d *binpack.Dec) (rec []byte, nFeature int, err error) {
	all := d.Rest()
	s := binpack.NewDec(all)
	n := int(s.U32())
	if err := s.Err(); err != nil {
		return nil, 0, err
	}
	if n < 1 || n > s.Remaining() {
		return nil, 0, fmt.Errorf("mlfit: implausible tree count %d", n)
	}
	for i := 0; i < n; i++ {
		arity := s.Int()
		if err := s.Err(); err != nil {
			return nil, 0, err
		}
		if arity < 1 || i > 0 && arity != nFeature {
			return nil, 0, fmt.Errorf("mlfit: tree %d: feature arity %d", i, arity)
		}
		nFeature = arity
		// A preorder stream is complete when every split's two child
		// slots are filled.
		for node, open := 0, 1; open > 0; node, open = node+1, open-1 {
			present, nd := readNode(s)
			if err := s.Err(); err != nil {
				return nil, 0, fmt.Errorf("mlfit: tree %d: %w", i, err)
			}
			if present != 1 {
				return nil, 0, fmt.Errorf("mlfit: tree %d: node %d has presence flag %d", i, node, present)
			}
			if nd.feature < -1 || nd.feature >= nFeature {
				return nil, 0, fmt.Errorf("mlfit: tree %d: node %d splits on feature %d of %d", i, node, nd.feature, nFeature)
			}
			if nd.feature >= 0 {
				open += 2
			}
		}
	}
	return d.Record(len(all) - s.Remaining()), nFeature, nil
}

// BuildBinary builds the forest of a record ScanBinary accepted; any
// other input may panic. It retains nothing of rec.
func BuildBinary(rec []byte) *Forest {
	d := binpack.NewDec(rec)
	f := &Forest{trees: make([]Tree, d.U32())}
	// Trees build into one growing scratch slice and each keeps a copy,
	// as FitForest's trees do.
	var scratch []treeNode
	for i := range f.trees {
		t := &f.trees[i]
		t.nFeature = d.Int()
		t.nodes = scratch[:0]
		t.buildNode(d)
		scratch = t.nodes
		t.nodes = slices.Clone(scratch)
	}
	return f
}

// nodeRecord is the encoded size of one node: the presence flag, then
// feature, threshold and value at eight bytes each.
const nodeRecord = 1 + 3*8

// readNode reads one node's presence flag and fields with one bounds
// check, as binpack's U8, Int and F64 would.
func readNode(d *binpack.Dec) (uint8, treeNode) {
	b := d.Record(nodeRecord)
	if b == nil {
		return 0, treeNode{}
	}
	le := binary.LittleEndian
	return b[0], treeNode{feature: int(int64(le.Uint64(b[1:9]))),
		threshold: math.Float64frombits(le.Uint64(b[9:17])), value: math.Float64frombits(le.Uint64(b[17:25]))}
}

// buildNode appends one preorder-encoded subtree to t.nodes.
func (t *Tree) buildNode(d *binpack.Dec) {
	at := len(t.nodes)
	_, nd := readNode(d)
	t.nodes = append(t.nodes, nd)
	if nd.feature >= 0 {
		t.nodes[at].left = int32(len(t.nodes))
		t.buildNode(d)
		t.nodes[at].right = int32(len(t.nodes))
		t.buildNode(d)
	}
}
