package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/parallel"
	"repro/internal/schedule"
)

// TrajectoryConfig controls Monte Carlo noisy simulation.
type TrajectoryConfig struct {
	// Trajectories is the number of quantum trajectories to average.
	Trajectories int
	// Seed makes the run deterministic: trajectory tr draws from its
	// own RNG stream split off Seed by parallel.TaskSeed, so the result
	// does not depend on Workers or GOMAXPROCS.
	Seed int64
	// Workers bounds the goroutines running trajectories (<= 0:
	// runtime.GOMAXPROCS(0), 1: sequential).
	Workers int
}

// DefaultTrajectoryConfig averages 200 trajectories.
func DefaultTrajectoryConfig() TrajectoryConfig {
	return TrajectoryConfig{Trajectories: 200, Seed: 1}
}

// MonteCarloFidelity estimates circuit fidelity by stochastic
// trajectory simulation: each trajectory runs the schedule's gates on a
// state vector, injecting
//
//   - random Pauli errors after each gate with its base error rate,
//   - spectator Pauli errors between simultaneously driven qubit pairs
//     with the model's crosstalk-leakage probability, and
//   - amplitude-damping (T1) jumps per qubit per slot,
//
// and the fidelity is the mean squared overlap with the ideal final
// state. It cross-validates the closed-form EstimateSchedule on
// registers small enough for dense simulation.
//
// nQubits is the register width (all slot gates must fit), bounded by
// MaxQubits.
func (nm *NoiseModel) MonteCarloFidelity(sched *schedule.Schedule, nQubits int, cfg TrajectoryConfig) (float64, error) {
	if cfg.Trajectories < 1 {
		return 0, fmt.Errorf("quantum: need at least 1 trajectory, got %d", cfg.Trajectories)
	}
	if nm.T1Us <= 0 {
		return 0, fmt.Errorf("quantum: T1 must be positive, got %g µs", nm.T1Us)
	}
	ideal, err := NewState(nQubits)
	if err != nil {
		return 0, err
	}
	for _, slot := range sched.Slots {
		for _, g := range slot.Gates {
			if g.Name == circuit.Measure {
				continue
			}
			if err := ideal.Apply(g); err != nil {
				return 0, err
			}
		}
	}

	// Each trajectory draws from an RNG stream derived from (Seed,
	// trajectory index) and runs on a per-worker scratch state vector:
	// a worker executes its trajectories strictly sequentially, and
	// Reset at task entry restores the exact |0...0> a freshly
	// allocated register would hold, so reusing the buffer changes
	// nothing except the allocation count — O(workers) registers
	// instead of O(trajectories). The model is only read, and the
	// per-index fidelity slots are summed in index order afterwards for
	// bit-identical results at any worker count.
	t1Ns := nm.T1Us * 1000
	nWorkers := parallel.Resolve(cfg.Workers, cfg.Trajectories)
	scratch := make([]*trajScratch, nWorkers)
	for w := range scratch {
		st, err := NewState(nQubits)
		if err != nil {
			return 0, err
		}
		scratch[w] = &trajScratch{state: st}
	}
	fids := make([]float64, cfg.Trajectories)
	err = parallel.ForEachErrWorker(cfg.Workers, cfg.Trajectories, func(worker, tr int) error {
		rng := parallel.TaskRand(cfg.Seed, uint64(tr))
		sc := scratch[worker]
		sc.state.Reset()
		for _, slot := range sched.Slots {
			if err := nm.applyNoisySlot(sc, slot, t1Ns, rng); err != nil {
				return err
			}
		}
		f, err := ideal.Overlap(sc.state)
		if err != nil {
			return err
		}
		fids[tr] = f
		return nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, f := range fids {
		sum += f
	}
	return sum / float64(cfg.Trajectories), nil
}

// drive records one driven qubit of a slot for crosstalk pairing.
type drive struct {
	q        int
	spectral bool
	gate     int
}

// trajScratch is the per-worker working set of the trajectory loop: the
// reusable state register and the drive list rebuilt every slot. Owned
// by one worker at a time; the state is Reset and the drive list
// truncated at entry, so no information survives between tasks.
type trajScratch struct {
	state  *State
	drives []drive
}

func (nm *NoiseModel) applyNoisySlot(sc *trajScratch, slot schedule.Slot, t1Ns float64, rng *rand.Rand) error {
	s := sc.state
	drives := sc.drives[:0]

	for gi, g := range slot.Gates {
		if g.Name == circuit.Measure {
			continue
		}
		if err := s.Apply(g); err != nil {
			return err
		}
		// Base gate error as a uniform random Pauli on the operands.
		if e := nm.gateBaseError(g); e > 0 && rng.Float64() < e {
			q := g.Qubits[rng.Intn(len(g.Qubits))]
			s.applyPauli(rng.Intn(3), q)
		}
		qs, spectral := drivenQubits(g)
		for _, q := range qs {
			drives = append(drives, drive{q: q, spectral: spectral, gate: gi})
		}
	}

	// Crosstalk between simultaneously driven qubits of different
	// gates: spectral pairs pick up a spectator X (leakage drive),
	// flux pairs a correlated ZZ phase error.
	for a := 0; a < len(drives); a++ {
		for b := a + 1; b < len(drives); b++ {
			if drives[a].gate == drives[b].gate {
				continue
			}
			p := nm.pairPenalty(drives[a].q, drives[b].q, drives[a].spectral && drives[b].spectral)
			if p <= 0 || rng.Float64() >= p {
				continue
			}
			if drives[a].spectral && drives[b].spectral {
				// The spectator of the pair flips.
				s.applyPauli(0, drives[b].q)
			} else {
				s.applyPauli(2, drives[a].q)
				s.applyPauli(2, drives[b].q)
			}
		}
	}

	// Amplitude damping over the slot duration: a standard quantum
	// trajectory step per qubit.
	if slot.Duration > 0 {
		gamma := 1 - math.Exp(-slot.Duration/t1Ns)
		for q := 0; q < s.n; q++ {
			s.amplitudeDampStep(q, gamma, rng)
		}
	}
	sc.drives = drives // hand the (possibly regrown) backing back for reuse
	return nil
}

// applyPauli applies X (0), Y (1) or Z (2) to qubit q, through the
// anti-diagonal/diagonal kernels — Pauli injection is the hottest gate
// of the trajectory loop and never needs the general 2×2 kernel.
func (s *State) applyPauli(which, q int) {
	switch which {
	case 0:
		s.applyAntiDiag1Q(q, 1, 1)
	case 1:
		s.applyAntiDiag1Q(q, complex(0, -1), complex(0, 1))
	default:
		s.applyDiag1Q(q, 1, -1)
	}
}

// amplitudeDampStep performs one T1 trajectory step on qubit q with
// decay probability gamma (conditional on being excited): with
// probability gamma·P(1) the qubit jumps to |0>; otherwise the
// no-jump back-action damps the |1> amplitude by sqrt(1-gamma) and the
// state renormalizes.
func (s *State) amplitudeDampStep(q int, gamma float64, rng *rand.Rand) {
	if gamma <= 0 {
		return
	}
	p1 := s.ProbabilityOfQubit(q)
	if p1 == 0 {
		return
	}
	if rng.Float64() < gamma*p1 {
		// Jump: |1> -> |0>. Project and relabel amplitudes with the
		// strided pair walk instead of a branch per index.
		bit := 1 << uint(q)
		half := len(s.amp) >> 1
		if !s.sharded() {
			jumpRelabelSpan(s.amp, bit, 0, half)
		} else {
			s.shardSpans(half, func(lo, hi int) {
				jumpRelabelSpan(s.amp, bit, lo, hi)
			})
		}
		s.renormalize()
		return
	}
	// No jump: damp the excited amplitudes.
	s.applyDiag1Q(q, 1, complex(math.Sqrt(1-gamma), 0))
	s.renormalize()
}

// jumpRelabelSpan projects qubit bit `bit` onto |0> after a T1 jump,
// moving each excited amplitude onto its ground partner, over pair
// indices [lo, hi).
func jumpRelabelSpan(amp []complex128, bit, lo, hi int) {
	if bit == 1 {
		for i, e := lo<<1, hi<<1; i < e; i += 2 {
			amp[i] = amp[i+1]
			amp[i+1] = 0
		}
		return
	}
	mask := bit - 1
	for p := lo; p < hi; {
		k := p & mask
		i := ((p &^ mask) << 1) | k
		m := bit - k
		if m > hi-p {
			m = hi - p
		}
		p += m
		for e := i + m; i < e; i++ {
			amp[i] = amp[i|bit]
			amp[i|bit] = 0
		}
	}
}

func (s *State) renormalize() {
	n := s.Norm()
	if n == 0 {
		s.amp[0] = 1
		return
	}
	s.scaleAll(complex(1/math.Sqrt(n), 0))
}

// Purity diagnostics: global phase differences are irrelevant to all
// fidelity computations here, but expose a helper for tests.

// GlobalPhaseAligned returns t with its global phase rotated to match
// s (useful when comparing decompositions that differ by phase).
func (s *State) GlobalPhaseAligned(t *State) (*State, error) {
	if s.n != t.n {
		return nil, fmt.Errorf("quantum: phase-align of %d- and %d-qubit states", s.n, t.n)
	}
	var dot complex128
	for i := range s.amp {
		dot += cmplx.Conj(t.amp[i]) * s.amp[i]
	}
	out := &State{n: t.n, amp: make([]complex128, len(t.amp))}
	phase := complex(1, 0)
	if cmplx.Abs(dot) > 0 {
		phase = dot / complex(cmplx.Abs(dot), 0)
	}
	for i := range t.amp {
		out.amp[i] = t.amp[i] * phase
	}
	return out, nil
}
