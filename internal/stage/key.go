package stage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"
)

// Key is the deterministic artifact key of one stage execution: a
// collision-resistant digest of everything that participates in the
// stage's output — the chip fingerprint, the normalized-options subset
// the stage consumes, its seed stream and the keys of its upstream
// artifacts. Two executions with equal keys are guaranteed (by the
// pipeline's determinism contract) to produce bit-identical artifacts,
// which is what lets the Store return a cached artifact instead of
// re-running the stage.
type Key string

// KeyBuilder accumulates key components for a SHA-256 digest. Every
// component is written with a type tag and, for variable-length data, a
// length prefix, so distinct component sequences can never collide by
// concatenation (e.g. "ab"+"c" vs "a"+"bc") — the property FuzzArtifactKey
// exercises. Each component goes through a fixed scratch array to one of
// two sinks: straight into the running digest (NewKey), so a key buffers
// nothing that grows, or onto a reusable buffer (Record), whose bytes
// are exactly the ones the digest would have read.
type KeyBuilder struct {
	h       hash.Hash // nil: the builder records
	rec     []byte
	scratch [2 * sha256.Size]byte // a component's header or payload chunk, then the digest
}

// recorders pools recording builders and their grown buffers.
var recorders = sync.Pool{New: func() any { return new(KeyBuilder) }}

// NewKey starts a key for the named domain (typically the stage name).
// The domain is the first component, so equal payloads under different
// stage names yield different keys.
func NewKey(domain string) *KeyBuilder {
	b := &KeyBuilder{h: sha256.New()}
	return b.String(domain)
}

// Record starts a builder that appends the components NewKey(domain)
// would digest to a pooled buffer: Recorded returns them, Done digests
// them into the key NewKey would return, and Release returns the
// builder to the pool.
func Record(domain string) *KeyBuilder {
	b := recorders.Get().(*KeyBuilder)
	b.h, b.rec = nil, b.rec[:0]
	return b.String(domain)
}

// Recorded returns a recording builder's bytes, valid until Release.
func (b *KeyBuilder) Recorded() []byte { return b.rec }

// Release returns a recording builder to the pool.
func (b *KeyBuilder) Release() { recorders.Put(b) }

// write sends one piece of a component to the builder's sink.
func (b *KeyBuilder) write(p []byte) {
	if b.h == nil {
		b.rec = append(b.rec, p...)
		return
	}
	b.h.Write(p)
}

// tag writes a variable-length component: its type tag, its length and
// the payload.
func tag[P ~string | []byte](b *KeyBuilder, t byte, payload P) *KeyBuilder {
	b.fixed(t, uint64(len(payload)))
	for len(payload) > 0 {
		n := copy(b.scratch[:], payload)
		b.write(b.scratch[:n])
		payload = payload[n:]
	}
	return b
}

// fixed writes a component's type tag and a 64-bit value.
func (b *KeyBuilder) fixed(t byte, v uint64) *KeyBuilder {
	b.scratch[0] = t
	binary.BigEndian.PutUint64(b.scratch[1:9], v)
	b.write(b.scratch[:9])
	return b
}

// String appends a string component.
func (b *KeyBuilder) String(s string) *KeyBuilder { return tag(b, 's', s) }

// Bytes appends a raw byte-slice component.
func (b *KeyBuilder) Bytes(p []byte) *KeyBuilder { return tag(b, 'b', p) }

// Key appends another artifact key, chaining this artifact's lineage to
// its inputs'.
func (b *KeyBuilder) Key(k Key) *KeyBuilder { return tag(b, 'k', k) }

// Int64 appends a signed 64-bit component (seeds, budgets).
func (b *KeyBuilder) Int64(v int64) *KeyBuilder { return b.fixed('i', uint64(v)) }

// Uint64 appends an unsigned 64-bit component.
func (b *KeyBuilder) Uint64(v uint64) *KeyBuilder { return b.fixed('u', v) }

// Int appends an int component.
func (b *KeyBuilder) Int(v int) *KeyBuilder { return b.Int64(int64(v)) }

// Float64 appends a float64 component by its IEEE-754 bits, so -0.0 and
// +0.0 (different bits) key differently and NaNs key stably.
func (b *KeyBuilder) Float64(v float64) *KeyBuilder { return b.fixed('f', math.Float64bits(v)) }

// Bool appends a boolean component.
func (b *KeyBuilder) Bool(v bool) *KeyBuilder {
	if v {
		return b.fixed('t', 1)
	}
	return b.fixed('t', 0)
}

// Floats appends a float64 slice with its length, so [1][2] and [1,2]
// differ.
func (b *KeyBuilder) Floats(vs []float64) *KeyBuilder {
	b.fixed('F', uint64(len(vs)))
	for _, v := range vs {
		b.Float64(v)
	}
	return b
}

// Ints appends an int slice with its length.
func (b *KeyBuilder) Ints(vs []int) *KeyBuilder {
	b.fixed('I', uint64(len(vs)))
	for _, v := range vs {
		b.Int(v)
	}
	return b
}

// Done finalizes the key, digesting a recording's bytes. The builder
// must not be written afterwards.
func (b *KeyBuilder) Done() Key {
	if b.h == nil {
		b.h = sha256.New()
		b.h.Write(b.rec)
	}
	var hexed [2 * sha256.Size]byte
	hex.Encode(hexed[:], b.h.Sum(b.scratch[:0]))
	return Key(hexed[:])
}
