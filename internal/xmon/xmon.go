// Package xmon generates synthetic Xmon-style quantum devices: base
// frequency allocations with fabrication disorder and measured-style
// XY / ZZ crosstalk samples.
//
// The paper characterizes crosstalk on two self-developed Xmon chips
// (6×6 and 8×8). That hardware data is proprietary, so this package is
// the substitution documented in DESIGN.md: a physically motivated
// generative model whose samples have the statistical structure the
// fitting pipeline exploits — crosstalk decays exponentially with
// physical distance, decays with (multi-path) topological distance,
// grows when qubit frequencies collide, and carries lognormal
// device-to-device disorder. The downstream code (random-forest fit,
// grouping, frequency allocation) only ever sees (layout, topology,
// sample) triples, exactly what the real chip would provide.
package xmon

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/parallel"
)

// CrosstalkKind distinguishes the two measured crosstalk channels.
type CrosstalkKind int

const (
	// XY is microwave-drive crosstalk: the probability of an energy-level
	// transition on an uncontrolled qubit while gates run on the target.
	XY CrosstalkKind = iota
	// ZZ is the static dispersive coupling: the calibrated frequency
	// shift (MHz) of an uncontrolled qubit.
	ZZ
)

// String implements fmt.Stringer.
func (k CrosstalkKind) String() string {
	switch k {
	case XY:
		return "XY"
	case ZZ:
		return "ZZ"
	default:
		return fmt.Sprintf("CrosstalkKind(%d)", int(k))
	}
}

// Params control the generative crosstalk model.
type Params struct {
	// AmplitudeXY is the XY crosstalk at zero distance and exact
	// frequency collision (transition probability).
	AmplitudeXY float64
	// AmplitudeZZ is the ZZ shift at zero distance (MHz).
	AmplitudeZZ float64
	// PhysDecay is the exponential decay length in mm.
	PhysDecay float64
	// TopDecay is the power-law exponent on multi-path topological
	// distance.
	TopDecay float64
	// CollisionWidth is the Lorentzian half-width of the frequency
	// collision factor, GHz.
	CollisionWidth float64
	// DisorderSigma is the sigma of the lognormal device disorder.
	DisorderSigma float64
	// FreqDisorder is the fabrication scatter around the target base
	// frequency, GHz (uniform half-width).
	FreqDisorder float64
}

// DefaultParams match the qualitative numbers in the paper: neighbouring
// same-frequency qubits suffer percent-level XY crosstalk (enough to
// drag parallel X-gate fidelity to ~98.9%) while well-separated qubits
// sit below the -30 dB isolation floor.
func DefaultParams() Params {
	return Params{
		AmplitudeXY:    0.04,
		AmplitudeZZ:    0.60,
		PhysDecay:      0.7,
		TopDecay:       1.5,
		CollisionWidth: 0.35,
		DisorderSigma:  0.30,
		FreqDisorder:   0.05,
	}
}

// Device is a chip plus its generated frequency plan and latent
// crosstalk coefficients. It stands in for a calibrated physical chip.
type Device struct {
	Chip   *chip.Chip
	Params Params

	// lazy builds, on first Coupling, topDist (the multi-path
	// topological distance matrix) and a decoded device's disorder.
	lazy    sync.Once
	topDist [][]float64
	// disorder caches the per-pair lognormal factors so that repeated
	// queries are consistent, like re-measuring the same chip. A
	// decoded device keeps both matrices encoded in rec, as checked by
	// DecodeBinary, until lazy builds them.
	disorderXY [][]float64
	disorderZZ [][]float64
	rec        []byte
}

// build fills the caches Coupling reads.
func (d *Device) build() {
	d.topDist = d.Chip.Graph().AllMultiPathDistances()
	if d.rec != nil {
		dec := binpack.NewDec(d.rec)
		d.disorderXY = dec.FloatMatrix()
		d.disorderZZ = dec.FloatMatrix()
	}
}

// NewDevice fabricates a device on the given chip: assigns base
// frequencies (a 3-colour-ish pattern over 4–7 GHz plus disorder) and
// freezes the latent crosstalk disorder. The rng fully determines the
// device; identical seeds fabricate identical devices.
func NewDevice(c *chip.Chip, p Params, rng *rand.Rand) *Device {
	d := &Device{Chip: c, Params: p}
	assignFrequencies(c, p, rng)
	n := c.NumQubits()
	d.disorderXY = lognormalMatrix(n, p.DisorderSigma, rng)
	d.disorderZZ = lognormalMatrix(n, p.DisorderSigma, rng)
	return d
}

// assignFrequencies writes base frequencies into the chip's qubits.
// Fabrication targets three interleaved frequency groups spread over
// the effective 4–7 GHz range, the standard collision-avoidance layout
// for fixed-frequency neighbours, then adds uniform scatter.
func assignFrequencies(c *chip.Chip, p Params, rng *rand.Rand) {
	targets := []float64{4.5, 5.5, 6.5}
	for i := range c.Qubits {
		q := &c.Qubits[i]
		// Position-hash group assignment keeps neighbours in different
		// groups on all the lattice families used here.
		gx := int(math.Round(q.Pos.X / chip.DefaultPitch))
		gy := int(math.Round(q.Pos.Y / chip.DefaultPitch))
		g := (gx + 2*gy) % len(targets)
		if g < 0 {
			g += len(targets)
		}
		q.BaseFreq = targets[g] + (rng.Float64()*2-1)*p.FreqDisorder
	}
}

func lognormalMatrix(n int, sigma float64, rng *rand.Rand) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := math.Exp(rng.NormFloat64() * sigma)
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

// collisionFactor is a Lorentzian in the frequency detuning: 1 at exact
// collision, falling off with width CollisionWidth.
func (d *Device) collisionFactor(i, j int) float64 {
	df := d.Chip.Qubits[i].BaseFreq - d.Chip.Qubits[j].BaseFreq
	w := d.Params.CollisionWidth
	return 1 / (1 + (df/w)*(df/w))
}

// Coupling returns the frequency-independent latent coupling between
// qubits i and j for the given channel: the XY crosstalk a spectator
// would suffer at exact frequency collision (transition probability),
// or the ZZ shift in MHz. It is symmetric and zero on the diagonal.
// This is the hardware constant that survives frequency retuning.
func (d *Device) Coupling(kind CrosstalkKind, i, j int) float64 {
	if i == j {
		return 0
	}
	p := d.Params
	phys := d.Chip.PhysicalDistance(i, j)
	d.lazy.Do(d.build)
	top := d.topDist[i][j]
	if math.IsInf(top, 1) {
		// Disconnected qubits still share the substrate; only the
		// physical-decay term survives.
		top = float64(d.Chip.NumQubits())
	}
	decay := math.Exp(-phys/p.PhysDecay) * math.Pow(top, -p.TopDecay)
	switch kind {
	case XY:
		return p.AmplitudeXY * decay * d.disorderXY[i][j]
	case ZZ:
		return p.AmplitudeZZ * decay * d.disorderZZ[i][j]
	default:
		panic(fmt.Sprintf("xmon: unknown crosstalk kind %d", int(kind)))
	}
}

// Crosstalk returns the crosstalk between qubits i and j as a
// calibration campaign would measure it with the chip at its
// fabrication frequencies: the latent coupling scaled, for the XY
// channel, by the frequency-collision factor of the base frequencies.
func (d *Device) Crosstalk(kind CrosstalkKind, i, j int) float64 {
	if i == j {
		return 0
	}
	v := d.Coupling(kind, i, j)
	if kind == XY {
		v *= d.collisionFactor(i, j)
	}
	return v
}

// Sample is one crosstalk calibration measurement between a qubit pair.
type Sample struct {
	I, J  int
	Kind  CrosstalkKind
	Value float64 // measured crosstalk (probability for XY, MHz for ZZ)
}

// Measure runs a full pairwise calibration campaign for the given
// channel, adding multiplicative measurement noise of relative width
// noiseRel. It returns one sample per unordered pair.
func (d *Device) Measure(kind CrosstalkKind, noiseRel float64, rng *rand.Rand) []Sample {
	n := d.Chip.NumQubits()
	samples := make([]Sample, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := d.Crosstalk(kind, i, j)
			v *= 1 + rng.NormFloat64()*noiseRel
			if v < 0 {
				v = 0
			}
			samples = append(samples, Sample{I: i, J: j, Kind: kind, Value: v})
		}
	}
	return samples
}

// MeasureSeeded is the parallel calibration campaign: the same samples
// as Measure in the same (i<j) pair order, but each pair draws its
// measurement noise from a private RNG stream split off the seed by
// its pair index, so the campaign can fan out over any number of
// workers and still return bit-identical samples (see
// internal/parallel). workers <= 0 selects runtime.GOMAXPROCS(0), 1 runs
// sequentially. The fan-out counts into the registry ctx carries, and
// the campaign returns ctx's error once ctx ends.
func (d *Device) MeasureSeeded(ctx context.Context, kind CrosstalkKind, noiseRel float64, seed int64, workers int) ([]Sample, error) {
	n := d.Chip.NumQubits()
	samples := make([]Sample, n*(n-1)/2)
	p := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			samples[p] = Sample{I: i, J: j, Kind: kind}
			p++
		}
	}
	rands := parallel.NewRands(parallel.Resolve(workers, len(samples)))
	err := parallel.ForEachCtxWorker(ctx, workers, len(samples), func(worker, p int) error {
		s := &samples[p]
		rng := rands.Task(worker, seed, uint64(p))
		v := d.Crosstalk(kind, s.I, s.J)
		v *= 1 + rng.NormFloat64()*noiseRel
		if v < 0 {
			v = 0
		}
		s.Value = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// MeasurePair measures the crosstalk of one qubit pair with the same
// multiplicative noise model as Measure/MeasureSeeded, drawing from the
// caller's rng. It is the single-shot primitive behind fault-injected
// calibration campaigns (internal/faults), which re-measure a pair with
// a fresh per-attempt RNG stream after a dropout.
func (d *Device) MeasurePair(kind CrosstalkKind, i, j int, noiseRel float64, rng *rand.Rand) Sample {
	v := d.Crosstalk(kind, i, j)
	v *= 1 + rng.NormFloat64()*noiseRel
	if v < 0 {
		v = 0
	}
	return Sample{I: i, J: j, Kind: kind, Value: v}
}

// CrosstalkMatrix returns the full latent pairwise crosstalk matrix for
// the channel, without measurement noise.
func (d *Device) CrosstalkMatrix(kind CrosstalkKind) [][]float64 {
	n := d.Chip.NumQubits()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			m[i][j] = d.Crosstalk(kind, i, j)
		}
	}
	return m
}
