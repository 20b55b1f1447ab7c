package xmon

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/binpack"
)

// encode returns d's encoding.
func encode(d *Device) []byte {
	e := binpack.NewEnc(nil)
	d.AppendBinary(e)
	return e.Bytes()
}

// TestDecodeKeepsDisorderEncoded: a decoded device builds neither
// disorder matrix until the first Coupling, measures bit-identically to
// the fabricated one, re-encodes to the same bytes before and after the
// build, and keeps none of the buffer it was decoded from.
func TestDecodeKeepsDisorderEncoded(t *testing.T) {
	orig := testDevice(3)
	data := encode(orig)
	scratch := bytes.Clone(data)
	got, err := DecodeBinary(binpack.NewDec(scratch))
	if err != nil {
		t.Fatal(err)
	}
	for i := range scratch {
		scratch[i] ^= 0xff
	}
	if got.disorderXY != nil || got.disorderZZ != nil {
		t.Fatal("decoding built the disorder matrices")
	}
	if !bytes.Equal(encode(got), data) {
		t.Error("the decoded device re-encodes differently")
	}
	n := orig.Chip.NumQubits()
	for _, kind := range []CrosstalkKind{XY, ZZ} {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a, b := got.Coupling(kind, i, j), orig.Coupling(kind, i, j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%v Coupling(%d,%d) = %v, want %v", kind, i, j, a, b)
				}
			}
		}
	}
	if !bytes.Equal(encode(got), data) {
		t.Error("building the disorder changed the device's encoding")
	}
}

// TestDecodeRejectsMalformedDisorder: a disorder matrix that is not n
// rows of n floats, for the chip's n qubits, fails the decode instead
// of the first Coupling.
func TestDecodeRejectsMalformedDisorder(t *testing.T) {
	n := testDevice(1).Chip.NumQubits()
	square := func(rows, cols int) [][]float64 {
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
		}
		return m
	}
	ragged := square(n, n)
	ragged[n-1] = ragged[n-1][:n-1]
	for name, c := range map[string]struct {
		xy, zz [][]float64
		cut    int // bytes cut off the encoding's end
	}{
		"too few rows":  {xy: square(n-1, n), zz: square(n, n)},
		"too many rows": {xy: square(n, n), zz: square(n+1, n)},
		"short row":     {xy: ragged, zz: square(n, n)},
		"long rows":     {xy: square(n, n+1), zz: square(n, n)},
		"no matrices":   {},
		"truncated":     {xy: square(n, n), zz: square(n, n), cut: 1},
	} {
		d := testDevice(1)
		d.disorderXY, d.disorderZZ = c.xy, c.zz
		data := encode(d)
		if _, err := DecodeBinary(binpack.NewDec(data[:len(data)-c.cut])); err == nil {
			t.Errorf("%s: decoded without an error", name)
		}
	}
}
