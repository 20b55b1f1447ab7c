package stage

import (
	"bytes"
	"fmt"
)

// Backend is the warm tier under a Store: a byte-addressed artifact
// store keyed by (stage name, artifact key), typically on disk
// (internal/stage/cas). The Store probes it on a memory miss and
// writes every successfully executed artifact through to it, so a new
// process — or a replica sharing the same directory — recalls
// artifacts instead of re-executing stages.
//
// The contract mirrors the determinism contract of the keys: an
// artifact is a pure function of its key, so Get never needs
// versioning beyond the key itself, and a backend may drop any entry
// at any time (GC, corruption, crash) — the only observable effect is
// a re-execution. Get must return data only if it is exactly what a
// previous Put stored; anything doubtful (truncation, bad checksum,
// wrong key) must be reported as a miss, never an error. All methods
// must be safe for concurrent use.
//
// Buffers belong to the caller: the Store recalls through and encodes
// into pooled buffers and reuses each once the call returns, so
// neither Get nor Put may retain the slice it was handed.
type Backend interface {
	// Get appends the stored encoding of (name, key) to dst and returns
	// the extended slice, or ok=false.
	Get(name string, key Key, dst []byte) (data []byte, ok bool)
	// Put stores the encoding of (name, key). Best-effort: errors are
	// swallowed (and surfaced in Stats) because a failed write only
	// costs a future re-execution.
	Put(name string, key Key, data []byte)
	// Has reports, as cheaply as it can (no read), whether the backend
	// holds (name, key). Get may still miss an entry Has reports.
	Has(name string, key Key) bool
	// Stats reports the backend's occupancy and health counters.
	Stats() BackendStats
}

// BackendStats is a point-in-time summary of a Backend.
type BackendStats struct {
	// Entries counts stored artifacts.
	Entries int `json:"entries"`
	// Bytes is the stored payload footprint.
	Bytes int64 `json:"bytes"`
	// MaxBytes is the configured budget (0 = unbounded).
	MaxBytes int64 `json:"maxBytes"`
	// GCEvictions counts artifacts removed by the size budget.
	GCEvictions int64 `json:"gcEvictions"`
	// CorruptDropped counts artifacts dropped because validation
	// failed (truncation, checksum, schema or key mismatch).
	CorruptDropped int64 `json:"corruptDropped"`
	// WriteErrors counts failed Put attempts.
	WriteErrors int64 `json:"writeErrors"`
}

// Codec encodes one stage's artifact type to the deterministic byte
// form a Backend stores and back. Both directions must be total on the
// values the stage can produce (including typed-nil artifacts like a
// disabled fault plan), and Encode must be deterministic — the
// round-trip law enforced by RoundTrip is
//
//	Encode(Decode(Encode(v))) == Encode(v)
//
// which is what makes a disk-recalled artifact design-equivalent to
// the freshly executed one: every downstream stage reads the artifact
// only through values the encoding preserves. The encoding's length is
// also what the memory tier charges an artifact.
//
// Encode appends v's encoding to dst and returns the extended slice.
// Decode receives in, the run's artifacts by declaration index (what
// Node.Run reads), so an artifact can leave out what its upstream holds
// and bind to it. Decode must not retain data: the store decodes out of
// a pooled buffer it reuses as soon as Decode returns.
type Codec struct {
	Encode func(dst []byte, v any) ([]byte, error)
	Decode func(data []byte, in []any) (any, error)
}

// RoundTrip is the property-test harness of the codec law: it encodes
// v, decodes a copy of the bytes against in, overwrites the copy, and
// re-encodes the decoded value after a prefix, failing unless the
// re-encoding leaves the prefix alone and matches the first byte for
// byte. A decoded value that aliased its input would read the
// overwritten bytes, so the harness also enforces that Decode retains
// nothing. It returns the decoded value so tests can additionally
// compare semantics (predictions, group structure) against the
// original.
func (c Codec) RoundTrip(v any, in []any) (any, error) {
	first, err := c.Encode(nil, v)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	scratch := bytes.Clone(first)
	decoded, err := c.Decode(scratch, in)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	for i := range scratch {
		scratch[i] ^= 0xff
	}
	const prefix = "prefix"
	second, err := c.Encode([]byte(prefix), decoded)
	if err != nil {
		return nil, fmt.Errorf("re-encode: %w", err)
	}
	if !bytes.HasPrefix(second, []byte(prefix)) {
		return decoded, fmt.Errorf("codec does not append: the re-encoding overwrote its destination")
	}
	if second = second[len(prefix):]; !bytes.Equal(first, second) {
		return decoded, fmt.Errorf("codec is lossy or retains its input: re-encoding the decoded value changed %d bytes -> %d bytes", len(first), len(second))
	}
	return decoded, nil
}
