package xmon

import (
	"repro/internal/binpack"
	"repro/internal/chip"
)

// AppendBinary encodes a fabricated device: the chip (whose BaseFreq
// fields carry the fabricated frequency plan), the generative
// parameters and the latent disorder matrices. The disorder is the
// only state that cannot be recomputed — it was drawn from the
// fabrication RNG — so it must persist for a recalled device to
// measure identically; the topological-distance cache is a pure
// function of the chip, built on first use as NewDevice's is.
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
	e.FloatMatrix(d.disorderXY)
	e.FloatMatrix(d.disorderZZ)
}

// DecodeBinary rebuilds a device encoded by AppendBinary. The decoded
// device measures bit-identically to the original: the chip, disorder
// and parameters are value-faithful, and the distance cache is
// computed on the first Coupling call, deterministically.
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
	d := &Device{Chip: c, Params: p}
	d.disorderXY = dec.FloatMatrix()
	d.disorderZZ = dec.FloatMatrix()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
