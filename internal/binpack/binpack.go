// Package binpack is the deterministic binary encoding layer under the
// persistent artifact store: fixed-width little-endian primitives with
// IEEE-754 bit-exact floats, so encoding a value is a pure function of
// the value (no map iteration order, no pointer identity, no locale)
// and decoding on another machine reproduces it bit for bit. Every
// artifact codec in internal/experiments is built from these two types.
//
// Enc appends; Dec reads with a sticky error, so a codec can chain
// reads and check Err() once. Dec never panics on hostile input: every
// length is validated against the remaining buffer before allocation,
// which is what makes the CAS header/payload decoders safe to fuzz and
// lets the store treat any corrupt artifact as a cache miss.
package binpack

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc accumulates a deterministic binary encoding.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder that appends to dst, so a codec can encode
// into a caller's buffer.
func NewEnc(dst []byte) *Enc { return &Enc{buf: dst} }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 (two's complement bits).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Append appends b unframed, for a record that delimits itself.
func (e *Enc) Append(b []byte) { e.buf = append(e.buf, b...) }

// Raw appends length-prefixed raw bytes.
func (e *Enc) Raw(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Ints appends a length-prefixed []int.
func (e *Enc) Ints(v []int) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// Int32s appends a length-prefixed []int32.
func (e *Enc) Int32s(v []int32) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U32(uint32(x))
	}
}

// Floats appends a length-prefixed []float64.
func (e *Enc) Floats(v []float64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.F64(x)
	}
}

// Bools appends a length-prefixed []bool.
func (e *Enc) Bools(v []bool) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.Bool(x)
	}
}

// FloatMatrix appends a length-prefixed [][]float64.
func (e *Enc) FloatMatrix(m [][]float64) {
	e.U32(uint32(len(m)))
	for _, row := range m {
		e.Floats(row)
	}
}

// IntMatrix appends a length-prefixed [][]int.
func (e *Enc) IntMatrix(m [][]int) {
	e.U32(uint32(len(m)))
	for _, row := range m {
		e.Ints(row)
	}
}

// Dec reads an Enc-produced buffer back. The first malformed read
// poisons the decoder; subsequent reads return zero values and Err()
// reports the failure.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec { return &Dec{buf: data} }

// Err returns the sticky decode error, nil while all reads succeeded.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Rest returns the unread bytes, aliasing the input, without reading them.
func (d *Dec) Rest() []byte { return d.buf[d.off:] }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("binpack: truncated %s at offset %d", what, d.off)
	}
}

func (d *Dec) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Record reads the next n bytes as one fixed-width record, for a
// decoder that takes several fields with one bounds check. The slice
// aliases the input; it is nil once the decoder has failed, or when
// fewer than n bytes remain (which fails it).
func (d *Dec) Record(n int) []byte { return d.take(n, "record") }

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool. Any nonzero byte is true.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// length reads a collection length and validates it against the
// remaining bytes at the given per-element width, so hostile lengths
// can never trigger a huge allocation.
func (d *Dec) length(elemSize int, what string) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n < 0 || elemSize > 0 && n > d.Remaining()/elemSize {
		d.fail(what + " length")
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.length(1, "string")
	b := d.take(n, "string")
	if b == nil {
		return ""
	}
	return string(b)
}

// Raw reads length-prefixed raw bytes (a copy).
func (d *Dec) Raw() []byte {
	n := d.length(1, "bytes")
	b := d.take(n, "bytes")
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Ints reads a length-prefixed []int. A zero length yields nil.
func (d *Dec) Ints() []int {
	n := d.length(8, "[]int")
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}

// Int32s reads a length-prefixed []int32. A zero length yields nil.
func (d *Dec) Int32s() []int32 {
	n := d.length(4, "[]int32")
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.U32())
	}
	return out
}

// Floats reads a length-prefixed []float64. A zero length yields nil.
func (d *Dec) Floats() []float64 {
	n := d.length(8, "[]float64")
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// Bools reads a length-prefixed []bool. A zero length yields nil.
func (d *Dec) Bools() []bool {
	n := d.length(1, "[]bool")
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.Bool()
	}
	return out
}

// FloatMatrix reads a length-prefixed [][]float64.
func (d *Dec) FloatMatrix() [][]float64 {
	n := d.length(4, "[][]float64")
	if n == 0 {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = d.Floats()
	}
	return out
}

// IntMatrix reads a length-prefixed [][]int.
func (d *Dec) IntMatrix() [][]int {
	n := d.length(4, "[][]int")
	if n == 0 {
		return nil
	}
	out := make([][]int, n)
	for i := range out {
		out[i] = d.Ints()
	}
	return out
}
