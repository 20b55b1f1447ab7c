package mlfit

import (
	"encoding/binary"
	"fmt"
	"math"

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

// DecodeBinary rebuilds a forest encoded by AppendBinary. The decoded
// forest predicts bit-identically: node structure, split thresholds
// and leaf values round-trip exactly. A record that decodes but could
// not have been encoded from a trained forest — no trees, a feature
// arity below one or differing between trees, a missing node, or a
// split on a feature outside the arity — is rejected, so an accepted
// forest predicts on any row of its arity.
func DecodeBinary(d *binpack.Dec) (*Forest, error) {
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 1 || n > d.Remaining() {
		return nil, fmt.Errorf("mlfit: implausible tree count %d", n)
	}
	f := &Forest{trees: make([]Tree, n)}
	// Trees decode into one growing scratch slice and each copies out
	// an exact-size node slice, as FitForest's trees do.
	var scratch []treeNode
	for i := range f.trees {
		t := &f.trees[i]
		t.nFeature = d.Int()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if t.nFeature < 1 || t.nFeature != f.trees[0].nFeature {
			return nil, fmt.Errorf("mlfit: tree %d: feature arity %d", i, t.nFeature)
		}
		t.nodes = scratch[:0]
		if err := t.decodeNode(d); err != nil {
			return nil, fmt.Errorf("mlfit: tree %d: %w", i, err)
		}
		scratch = t.nodes
		t.nodes = make([]treeNode, len(scratch))
		copy(t.nodes, scratch)
	}
	return f, nil
}

// nodeRecord is the encoded size of one node: the presence flag, then
// feature, threshold and value at eight bytes each.
const nodeRecord = 1 + 3*8

// decodeNode appends one preorder-encoded subtree to t.nodes. It
// takes each node's fields with one bounds check, reading them as
// binpack's U8, Int and F64 would.
func (t *Tree) decodeNode(d *binpack.Dec) error {
	b := d.Record(nodeRecord)
	if b == nil {
		return d.Err()
	}
	le := binary.LittleEndian
	present := b[0]
	nd := treeNode{
		feature:   int(int64(le.Uint64(b[1:9]))),
		threshold: math.Float64frombits(le.Uint64(b[9:17])),
		value:     math.Float64frombits(le.Uint64(b[17:25])),
	}
	if present != 1 {
		return fmt.Errorf("mlfit: node %d has presence flag %d", len(t.nodes), present)
	}
	if nd.feature < -1 || nd.feature >= t.nFeature {
		return fmt.Errorf("mlfit: node %d splits on feature %d of %d", len(t.nodes), nd.feature, t.nFeature)
	}
	at := len(t.nodes)
	t.nodes = append(t.nodes, nd)
	if nd.feature < 0 {
		return nil
	}
	t.nodes[at].left = int32(len(t.nodes))
	if err := t.decodeNode(d); err != nil {
		return err
	}
	t.nodes[at].right = int32(len(t.nodes))
	return t.decodeNode(d)
}
