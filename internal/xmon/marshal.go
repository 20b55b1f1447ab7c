package xmon

import (
	"bytes"
	"fmt"

	"repro/internal/binpack"
	"repro/internal/chip"
)

// AppendBinary encodes a fabricated device: the chip (whose BaseFreq
// fields carry the fabricated frequency plan), the generative
// parameters and the latent disorder matrices. The disorder is the
// only state that cannot be recomputed — it was drawn from the
// fabrication RNG — so it must persist for a recalled device to
// measure identically; the topological-distance cache is a pure
// function of the chip, built on first use as NewDevice's is. A
// decoded device writes back the disorder record it kept, unchanged.
func (d *Device) AppendBinary(e *binpack.Enc) {
	d.Chip.AppendBinary(e)
	p := d.Params
	e.F64(p.AmplitudeXY)
	e.F64(p.AmplitudeZZ)
	e.F64(p.PhysDecay)
	e.F64(p.TopDecay)
	e.F64(p.CollisionWidth)
	e.F64(p.DisorderSigma)
	e.F64(p.FreqDisorder)
	if d.rec != nil {
		e.Append(d.rec)
		return
	}
	e.FloatMatrix(d.disorderXY)
	e.FloatMatrix(d.disorderZZ)
}

// DecodeBinary rebuilds a device encoded by AppendBinary. The decoded
// device measures bit-identically to the original: the chip, disorder
// and parameters are value-faithful, and the distance cache is
// computed on the first Coupling call, deterministically. The disorder
// matrices are checked to be n rows of n floats each, for the chip's n
// qubits, and kept as a copy of their encoding; the first Coupling
// call builds them.
func DecodeBinary(dec *binpack.Dec) (*Device, error) {
	c, err := chip.DecodeBinary(dec)
	if err != nil {
		return nil, err
	}
	var p Params
	p.AmplitudeXY = dec.F64()
	p.AmplitudeZZ = dec.F64()
	p.PhysDecay = dec.F64()
	p.TopDecay = dec.F64()
	p.CollisionWidth = dec.F64()
	p.DisorderSigma = dec.F64()
	p.FreqDisorder = dec.F64()
	// Each matrix is a row count, then per row a length and its floats.
	rec, n := dec.Rest(), c.NumQubits()
	for k := range 2 * (n + 1) {
		if l := dec.U32(); dec.Err() == nil && int(l) != n {
			return nil, fmt.Errorf("xmon: disorder matrix is not %d×%d", n, n)
		}
		if k%(n+1) != 0 {
			dec.Record(8 * n)
		}
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return &Device{Chip: c, Params: p, rec: bytes.Clone(rec[:len(rec)-dec.Remaining()])}, nil
}
