// Package faults is the fault-injection and graceful-degradation layer
// of the YOUTIAO pipeline. Real superconducting chips arrive with dead
// qubits, broken couplers and flaky control paths (Zhao, arXiv:2403.03717;
// Acharya et al., arXiv:2209.13060), and calibration campaigns drop
// measurements or return heavy-tailed outliers. This package models all
// of that as a seeded, deterministic FaultPlan that the design pipeline
// consumes:
//
//   - dead qubits and broken couplers are excluded from every design
//     stage (partition, FDM grouping, frequency allocation, TDM
//     grouping) instead of crashing it;
//   - stuck-lossy Z lines keep their device usable but force it onto a
//     dedicated direct line (the device must not sit behind a shared
//     DEMUX);
//   - calibration dropouts are retried with a bounded budget, each
//     attempt on its own SplitMix64 stream (parallel.TaskSeed), so the
//     degraded campaign stays bit-identical for any worker count;
//   - heavy-tailed outlier samples are injected for the model fit's
//     outlier trimming (crosstalk.FitConfig.TrimOutlierFraction) to
//     absorb.
//
// Everything is a pure function of (chip, Spec, seed): two runs with
// the same inputs inject byte-identical faults. A nil *Plan everywhere
// means "perfect device" and reproduces the fault-free pipeline
// exactly.
package faults

import (
	"context"
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/parallel"
	"repro/internal/xmon"
)

// Spec gives the rate of each injected fault class. The zero value
// injects nothing.
type Spec struct {
	// DeadQubitRate is the probability that a qubit is dead on arrival
	// (unusable: excluded from every grouping and from calibration).
	DeadQubitRate float64
	// BrokenCouplerRate is the probability that a coupler's control
	// path is broken (its 2q-gate site is unusable).
	BrokenCouplerRate float64
	// StuckLossyRate is the probability that a device's Z line is
	// stuck-lossy: still usable, but too leaky to share a cryo-DEMUX,
	// so it must be wired on a dedicated direct line.
	StuckLossyRate float64
	// DropoutRate is the probability that one calibration measurement
	// attempt fails outright and must be retried.
	DropoutRate float64
	// OutlierRate is the probability that a successful calibration
	// measurement returns a heavy-tailed outlier value.
	OutlierRate float64
	// OutlierScale multiplies outlier samples (on top of a lognormal
	// heavy tail). Zero selects DefaultOutlierScale.
	OutlierScale float64
}

// DefaultOutlierScale is the median multiplier of an injected outlier:
// large enough that an untrimmed fit is visibly dragged, small enough
// that trimming restores it.
const DefaultOutlierScale = 25.0

// UniformSpec is the one-knob spec used by the CLI's -defect-rate flag:
// every device-fault class at rate r, calibration dropouts and outliers
// at the same rate.
func UniformSpec(r float64) Spec {
	return Spec{
		DeadQubitRate:     r,
		BrokenCouplerRate: r,
		StuckLossyRate:    r,
		DropoutRate:       r,
		OutlierRate:       r,
	}
}

// Enabled reports whether the spec injects any fault at all.
func (s Spec) Enabled() bool {
	return s.DeadQubitRate > 0 || s.BrokenCouplerRate > 0 || s.StuckLossyRate > 0 ||
		s.DropoutRate > 0 || s.OutlierRate > 0
}

// ValidRate reports whether r is usable as a uniform defect rate — a
// probability strictly below 1, the constraint UniformSpec's DropoutRate
// inherits (at rate 1 no retry budget could ever rescue a campaign).
// The workload simulator validates its per-chip drift rates against
// this, so a trace can never materialize a request the fault layer
// would reject.
func ValidRate(r float64) bool {
	return !math.IsNaN(r) && r >= 0 && r < 1
}

// Validate checks every rate is a probability. DropoutRate must stay
// strictly below 1 or no retry budget could ever rescue a campaign.
func (s Spec) Validate() error {
	check := func(name string, v float64, maxExcl bool) error {
		if math.IsNaN(v) || v < 0 || v > 1 || (maxExcl && v == 1) {
			hi := "1]"
			if maxExcl {
				hi = "1)"
			}
			return fmt.Errorf("faults: %s %g outside [0,%s", name, v, hi)
		}
		return nil
	}
	for _, c := range []struct {
		name    string
		v       float64
		maxExcl bool
	}{
		{"DeadQubitRate", s.DeadQubitRate, false},
		{"BrokenCouplerRate", s.BrokenCouplerRate, false},
		{"StuckLossyRate", s.StuckLossyRate, false},
		{"DropoutRate", s.DropoutRate, true},
		{"OutlierRate", s.OutlierRate, false},
	} {
		if err := check(c.name, c.v, c.maxExcl); err != nil {
			return err
		}
	}
	if s.OutlierScale < 0 || math.IsNaN(s.OutlierScale) {
		return fmt.Errorf("faults: OutlierScale %g must be >= 0", s.OutlierScale)
	}
	return nil
}

func (s Spec) outlierScale() float64 {
	if s.OutlierScale > 0 {
		return s.OutlierScale
	}
	return DefaultOutlierScale
}

// Per-fault-class stream indices of the plan seed (see
// parallel.TaskSeed). Appending new classes keeps old plans stable.
const (
	streamDeadQubits = iota + 1
	streamBrokenCouplers
	streamStuckQubits
	streamStuckCouplers
)

// Plan is the concrete fault assignment for one chip: which qubits are
// dead, which couplers broken, which Z lines stuck-lossy, plus the
// calibration-failure rates. It is deterministic in (chip, Spec, seed).
type Plan struct {
	Spec Spec
	Seed int64

	deadQubit     []bool
	brokenCoupler []bool
	stuckQubit    []bool
	stuckCoupler  []bool
}

// New draws a fault plan for the chip. Each fault class draws from its
// own SplitMix64 stream of the seed in device-id order, so plans are
// reproducible and adding qubits to a chip never reshuffles coupler
// faults.
func New(c *chip.Chip, spec Spec, seed int64) (*Plan, error) {
	if c == nil {
		return nil, fmt.Errorf("faults: nil chip")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Spec: spec, Seed: seed}
	nq, nc := c.NumQubits(), c.NumCouplers()
	draw := func(n int, rate float64, stream uint64) []bool {
		out := make([]bool, n)
		if rate <= 0 {
			return out
		}
		rng := parallel.TaskRand(seed, stream)
		for i := range out {
			out[i] = rng.Float64() < rate
		}
		return out
	}
	p.deadQubit = draw(nq, spec.DeadQubitRate, streamDeadQubits)
	p.brokenCoupler = draw(nc, spec.BrokenCouplerRate, streamBrokenCouplers)
	p.stuckQubit = draw(nq, spec.StuckLossyRate, streamStuckQubits)
	p.stuckCoupler = draw(nc, spec.StuckLossyRate, streamStuckCouplers)
	return p, nil
}

// QubitDead reports whether qubit q is dead. A nil plan has no faults.
func (p *Plan) QubitDead(q int) bool {
	return p != nil && q >= 0 && q < len(p.deadQubit) && p.deadQubit[q]
}

// CouplerBroken reports whether coupler ci's control path is broken.
func (p *Plan) CouplerBroken(ci int) bool {
	return p != nil && ci >= 0 && ci < len(p.brokenCoupler) && p.brokenCoupler[ci]
}

// QubitStuckLossy reports whether qubit q's Z line is stuck-lossy.
func (p *Plan) QubitStuckLossy(q int) bool {
	return p != nil && q >= 0 && q < len(p.stuckQubit) && p.stuckQubit[q]
}

// CouplerStuckLossy reports whether coupler ci's Z line is stuck-lossy.
func (p *Plan) CouplerStuckLossy(ci int) bool {
	return p != nil && ci >= 0 && ci < len(p.stuckCoupler) && p.stuckCoupler[ci]
}

// CouplerUsable reports whether coupler ci can carry gates: its control
// path works and both endpoints are alive.
func (p *Plan) CouplerUsable(c *chip.Chip, ci int) bool {
	if p.CouplerBroken(ci) {
		return false
	}
	cp := c.Couplers[ci]
	return !p.QubitDead(cp.A) && !p.QubitDead(cp.B)
}

// GateUsable reports whether a hardware 2q-gate site survives the plan:
// both qubits alive and the coupler usable.
func (p *Plan) GateUsable(c *chip.Chip, g chip.TwoQubitGate) bool {
	return !p.QubitDead(g.Q1) && !p.QubitDead(g.Q2) && !p.CouplerBroken(g.Coupler)
}

// AliveQubits returns the sorted ids of usable qubits among [0, n).
func (p *Plan) AliveQubits(n int) []int {
	out := make([]int, 0, n)
	for q := 0; q < n; q++ {
		if !p.QubitDead(q) {
			out = append(out, q)
		}
	}
	return out
}

// DeadQubits returns the sorted ids of dead qubits.
func (p *Plan) DeadQubits() []int {
	var out []int
	if p == nil {
		return out
	}
	for q, d := range p.deadQubit {
		if d {
			out = append(out, q)
		}
	}
	return out
}

// BrokenCouplers returns the sorted ids of broken couplers.
func (p *Plan) BrokenCouplers() []int {
	var out []int
	if p == nil {
		return out
	}
	for ci, b := range p.brokenCoupler {
		if b {
			out = append(out, ci)
		}
	}
	return out
}

// StuckLossyCount returns how many usable devices carry a stuck-lossy
// Z line (dead/broken devices are not double-counted — they are already
// excluded entirely).
func (p *Plan) StuckLossyCount() int {
	if p == nil {
		return 0
	}
	n := 0
	for q, s := range p.stuckQubit {
		if s && !p.deadQubit[q] {
			n++
		}
	}
	for ci, s := range p.stuckCoupler {
		if s && !p.brokenCoupler[ci] {
			n++
		}
	}
	return n
}

// Summary renders a one-line human-readable account of the plan.
func (p *Plan) Summary() string {
	if p == nil {
		return "no faults"
	}
	return fmt.Sprintf("%d dead qubits, %d broken couplers, %d stuck-lossy Z lines",
		len(p.DeadQubits()), len(p.BrokenCouplers()), p.StuckLossyCount())
}

// CampaignStats accounts for the degradation a calibration campaign
// absorbed.
type CampaignStats struct {
	// Pairs is the number of alive qubit pairs the campaign attempted.
	Pairs int
	// SkippedDead is the number of pairs never attempted because an
	// endpoint is dead.
	SkippedDead int
	// Dropouts is the total number of failed measurement attempts.
	Dropouts int
	// Retried is the number of pairs that needed at least one retry.
	Retried int
	// LostPairs is the number of pairs abandoned after the retry
	// budget was exhausted; the fit proceeds without them.
	LostPairs int
	// Outliers is the number of heavy-tailed outlier samples injected.
	Outliers int
}

// Add accumulates another campaign's stats (the pipeline sums XY and
// ZZ).
func (s *CampaignStats) Add(o CampaignStats) {
	s.Pairs += o.Pairs
	s.SkippedDead += o.SkippedDead
	s.Dropouts += o.Dropouts
	s.Retried += o.Retried
	s.LostPairs += o.LostPairs
	s.Outliers += o.Outliers
}

// Measure runs the fault-injected calibration campaign for one
// crosstalk channel: the pairwise campaign of xmon.Device.MeasureSeeded
// restricted to alive qubits, where each attempt may drop out (retried
// up to retryBudget extra times, each attempt on its own RNG stream
// split from the pair's stream) and each successful sample may be
// corrupted into a heavy-tailed outlier.
//
// Determinism contract: pair p draws attempt a from
// TaskRand(TaskSeed(seed, p), a), so the campaign is bit-identical for
// any worker count. With a nil or fault-free plan it degenerates to
// exactly dev.MeasureSeeded — same streams, same samples.
//
// A pair whose attempts all drop out is lost (recorded in stats, not an
// error); the campaign only fails when no pair at all survives, or the
// context is cancelled.
func Measure(ctx context.Context, dev *xmon.Device, kind xmon.CrosstalkKind, noiseRel float64, seed int64, workers, retryBudget int, plan *Plan) ([]xmon.Sample, CampaignStats, error) {
	var stats CampaignStats
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	if dev == nil {
		return nil, stats, fmt.Errorf("faults: nil device")
	}
	if retryBudget < 0 {
		retryBudget = 0
	}
	n := dev.Chip.NumQubits()
	if plan == nil || !plan.Spec.Enabled() {
		samples, err := dev.MeasureSeeded(ctx, kind, noiseRel, seed, workers)
		if err != nil {
			return nil, stats, err
		}
		stats.Pairs = len(samples)
		obsRecord(ctx, stats)
		return samples, stats, nil
	}

	// Pair enumeration keeps the i<j order of MeasureSeeded over ALL
	// qubits, so pair p's RNG stream is independent of the fault plan;
	// dead pairs are skipped without consuming a stream.
	type pairTask struct {
		i, j int
		p    uint64 // global pair index = RNG stream
	}
	var tasks []pairTask
	var idx uint64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if plan.QubitDead(i) || plan.QubitDead(j) {
				stats.SkippedDead++
			} else {
				tasks = append(tasks, pairTask{i: i, j: j, p: idx})
			}
			idx++
		}
	}
	stats.Pairs = len(tasks)
	if len(tasks) == 0 {
		return nil, stats, fmt.Errorf("faults: no measurable qubit pairs (%d of %d qubits dead)",
			n-len(plan.AliveQubits(n)), n)
	}

	type outcome struct {
		sample   xmon.Sample
		ok       bool
		dropouts int
		outlier  bool
	}
	results := make([]outcome, len(tasks))
	spec := plan.Spec
	rands := parallel.NewRands(parallel.Resolve(workers, len(tasks)))
	err := parallel.ForEachCtxWorker(ctx, workers, len(tasks), func(worker, ti int) error {
		task := tasks[ti]
		pairSeed := parallel.TaskSeed(seed, task.p)
		res := &results[ti]
		for attempt := 0; attempt <= retryBudget; attempt++ {
			rng := rands.Task(worker, pairSeed, uint64(attempt))
			if spec.DropoutRate > 0 && rng.Float64() < spec.DropoutRate {
				res.dropouts++
				continue
			}
			s := dev.MeasurePair(kind, task.i, task.j, noiseRel, rng)
			if spec.OutlierRate > 0 && rng.Float64() < spec.OutlierRate {
				// Heavy tail: lognormal body scaled to OutlierScale,
				// so outliers are strictly larger than any honest
				// sample and trimming can identify them.
				s.Value *= spec.outlierScale() * math.Exp(math.Abs(rng.NormFloat64()))
				res.outlier = true
			}
			res.sample, res.ok = s, true
			break
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}

	samples := make([]xmon.Sample, 0, len(tasks))
	for _, res := range results {
		stats.Dropouts += res.dropouts
		if res.dropouts > 0 && res.ok {
			stats.Retried++
		}
		if !res.ok {
			stats.LostPairs++
			continue
		}
		if res.outlier {
			stats.Outliers++
		}
		samples = append(samples, res.sample)
	}
	if len(samples) == 0 {
		return nil, stats, fmt.Errorf("faults: calibration campaign lost all %d pairs to dropouts (retry budget %d)",
			len(tasks), retryBudget)
	}
	obsRecord(ctx, stats)
	return samples, stats, nil
}
