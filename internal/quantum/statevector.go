// Package quantum provides the simulation substrate behind the fidelity
// experiments: a dense state-vector simulator for functional validation
// of compiled circuits (the stand-in for the paper's Qiskit runs), and
// an analytic Pauli/decoherence error-accumulation model that scores
// scheduled circuits at sizes a state vector cannot reach.
//
// The simulator's hot loops are cache-friendly strided kernels (see
// kernels.go for the layout and sharding rules); all public results are
// bit-identical for any worker budget.
package quantum

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/parallel"
)

// State is a pure quantum state over n qubits, 2^n amplitudes in
// little-endian qubit order (qubit 0 is the least-significant bit).
//
// A State is not safe for concurrent mutation; read-only methods (Norm,
// Overlap, Probability*) are safe on a shared state because they keep
// their scratch local.
type State struct {
	n       int
	amp     []complex128
	workers int
}

// MaxQubits bounds dense simulation (2^24 amplitudes ≈ 256 MiB).
const MaxQubits = 24

// NewState returns |0...0> on n qubits with a sequential kernel budget.
func NewState(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("quantum: qubit count %d outside [1,%d]", n, MaxQubits)
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s, nil
}

// NumQubits returns the register width.
func (s *State) NumQubits() int { return s.n }

// Amplitude returns the amplitude of basis state idx.
func (s *State) Amplitude(idx int) complex128 { return s.amp[idx] }

// Probability returns |amp[idx]|².
func (s *State) Probability(idx int) float64 {
	a := s.amp[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// SetWorkers sets the worker budget for kernel sharding (<= 0:
// runtime.GOMAXPROCS(0), 1: sequential). Sharding activates only on
// registers of at least 2^14 amplitudes and never changes any result:
// elementwise kernels partition disjoint index ranges, and reductions
// follow the fixed-order chunked rule, so amplitudes, probabilities and
// measurement draws are bit-identical at every worker count.
func (s *State) SetWorkers(w int) *State {
	s.workers = parallel.Workers(w)
	return s
}

// Reset returns the state to |0...0>, bit-identical to a fresh
// NewState register, without allocating. It is the scratch-buffer hook
// of the Monte Carlo trajectory loop: the owner of a scratch state —
// and only the owner — calls Reset at the top of each task.
func (s *State) Reset() {
	for i := range s.amp {
		s.amp[i] = 0
	}
	s.amp[0] = 1
}

// CopyFrom overwrites this state with t's amplitudes.
func (s *State) CopyFrom(t *State) error {
	if s.n != t.n {
		return fmt.Errorf("quantum: copy of %d-qubit state into %d-qubit state", t.n, s.n)
	}
	copy(s.amp, t.amp)
	return nil
}

// Apply executes one basis gate (RX, RY, RZ, CZ). Measure gates are
// ignored here; use MeasureAll / MeasureQubit explicitly.
func (s *State) Apply(g circuit.Gate) error {
	switch g.Name {
	case circuit.RX:
		s.applyRX(g.Qubits[0], math.Cos(g.Param/2), math.Sin(g.Param/2))
	case circuit.RY:
		s.applyRY(g.Qubits[0], math.Cos(g.Param/2), math.Sin(g.Param/2))
	case circuit.RZ:
		em := cmplx.Exp(complex(0, -g.Param/2))
		ep := cmplx.Exp(complex(0, g.Param/2))
		s.applyDiag1Q(g.Qubits[0], em, ep)
	case circuit.CZ:
		s.applyCZ(g.Qubits[0], g.Qubits[1])
	case circuit.Measure:
		// Terminal measurements are deferred to the caller.
	default:
		return fmt.Errorf("quantum: non-basis gate %s; run circuit.Decompose first", g.Name)
	}
	return nil
}

// Run executes every gate of a hardware-basis circuit on the state.
func (s *State) Run(c *circuit.Circuit) error {
	if c.NumQubits > s.n {
		return fmt.Errorf("quantum: circuit needs %d qubits, state has %d", c.NumQubits, s.n)
	}
	for _, g := range c.Gates {
		if err := s.Apply(g); err != nil {
			return err
		}
	}
	return nil
}

// Simulate builds a fresh state and runs the circuit on it.
func Simulate(c *circuit.Circuit) (*State, error) {
	s, err := NewState(c.NumQubits)
	if err != nil {
		return nil, err
	}
	if err := s.Run(c); err != nil {
		return nil, err
	}
	return s, nil
}

// MeasureQubit samples qubit q, collapses the state and returns the
// outcome bit. One pass accumulates both branch norms and one pass
// collapses — there is no separate renormalization scan.
//
// When the drawn branch has numerically underflowed to zero norm the
// outcome is clamped to the surviving branch (collapsing into a dead
// branch would fill the register with Inf/NaN); if both branches are
// dead the state is unusable and an error is returned.
func (s *State) MeasureQubit(q int, rng *rand.Rand) (int, error) {
	p0, p1 := s.branchNorms(q)
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	keep, other := p0, p1
	if outcome == 1 {
		keep, other = p1, p0
	}
	if !isAliveNorm(keep) {
		if !isAliveNorm(other) {
			return 0, fmt.Errorf("quantum: measuring qubit %d of a numerically dead state (branch norms %g, %g)", q, p0, p1)
		}
		outcome = 1 - outcome
		keep = other
	}
	s.collapseBranch(q, outcome, complex(1/math.Sqrt(keep), 0))
	return outcome, nil
}

// isAliveNorm reports whether a branch norm can be renormalized by.
func isAliveNorm(p float64) bool {
	return p > 0 && !math.IsInf(p, 1) && !math.IsNaN(p)
}

// MeasureAll samples every qubit jointly and returns the bitstring
// (qubit 0 in element 0), collapsing the state onto the sampled basis
// state. It is a single-pass sampler: one chunked prefix scan over the
// probabilities replaces the historical n-qubit cascade of per-qubit
// probability/collapse/renormalize passes. The state is left exactly
// on the sampled basis state, so no renormalization is needed.
func (s *State) MeasureAll(rng *rand.Rand) ([]int, error) {
	N := len(s.amp)
	total := s.Norm()
	if !isAliveNorm(total) {
		return nil, fmt.Errorf("quantum: measuring a numerically dead state (norm %g)", total)
	}

	// Walk to the sampled index. On chunked registers the walk crosses
	// chunk sums first and then descends into the selected chunk, with
	// exactly the chunk-order accumulation of Norm — in fixed index
	// order either way, so the draw is bit-identical at any worker
	// count.
	target := rng.Float64() * total
	idx := -1
	var cum float64
	lo, hi := 0, N
	if N >= shardMinAmps {
		for lo = 0; lo < N; lo += reduceChunk {
			hi = lo + reduceChunk
			if hi > N {
				hi = N
			}
			if c := normSpan(s.amp, lo, hi); cum+c <= target {
				cum += c
				continue
			}
			break
		}
	}
	for i := lo; i < hi; i++ {
		a := s.amp[i]
		cum += real(a)*real(a) + imag(a)*imag(a)
		if cum > target {
			idx = i
			break
		}
	}
	if idx < 0 {
		// target landed on the rounding tail; take the last basis state
		// carrying any probability.
		for i := N - 1; i >= 0; i-- {
			if s.Probability(i) > 0 {
				idx = i
				break
			}
		}
	}

	// Collapse onto |idx>.
	if !s.sharded() {
		amp := s.amp
		for i := range amp {
			amp[i] = 0
		}
	} else {
		s.shardSpans(N, func(lo, hi int) {
			amp := s.amp
			for i := lo; i < hi; i++ {
				amp[i] = 0
			}
		})
	}
	s.amp[idx] = 1
	out := make([]int, s.n)
	for q := 0; q < s.n; q++ {
		out[q] = (idx >> uint(q)) & 1
	}
	return out, nil
}

// normSpan sums |amp[i]|² over [lo, hi) in index order.
func normSpan(amp []complex128, lo, hi int) float64 {
	var n float64
	for _, a := range amp[lo:hi] {
		n += real(a)*real(a) + imag(a)*imag(a)
	}
	return n
}

// p1Span sums the bit-set branch probability of qubit bit `bit` over
// pair indices [lo, hi), in ascending index order.
func p1Span(amp []complex128, bit, lo, hi int) float64 {
	var p1 float64
	if bit == 1 {
		for i, e := lo<<1, hi<<1; i < e; i += 2 {
			a := amp[i+1]
			p1 += real(a)*real(a) + imag(a)*imag(a)
		}
		return p1
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
			a := amp[i|bit]
			p1 += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p1
}

// ProbabilityOfQubit returns P(qubit q = 1) without collapsing.
func (s *State) ProbabilityOfQubit(q int) float64 {
	bit := 1 << uint(q)
	half := len(s.amp) >> 1
	if len(s.amp) < shardMinAmps {
		return p1Span(s.amp, bit, 0, half)
	}
	if !s.sharded() {
		var p1 float64
		for lo := 0; lo < half; lo += reduceChunk {
			hi := lo + reduceChunk
			if hi > half {
				hi = half
			}
			p1 += p1Span(s.amp, bit, lo, hi)
		}
		return p1
	}
	return s.reduce(half, func(lo, hi int) float64 {
		return p1Span(s.amp, bit, lo, hi)
	})
}

// overlapSpan accumulates <s|t> over [lo, hi) in index order.
func overlapSpan(sAmp, tAmp []complex128, lo, hi int) complex128 {
	var d complex128
	for i := lo; i < hi; i++ {
		d += cmplx.Conj(sAmp[i]) * tAmp[i]
	}
	return d
}

// Overlap returns |<s|t>|², the state fidelity of two pure states.
func (s *State) Overlap(t *State) (float64, error) {
	if s.n != t.n {
		return 0, fmt.Errorf("quantum: overlap of %d- and %d-qubit states", s.n, t.n)
	}
	N := len(s.amp)
	var dot complex128
	switch {
	case N < shardMinAmps:
		dot = overlapSpan(s.amp, t.amp, 0, N)
	case !s.sharded():
		for lo := 0; lo < N; lo += reduceChunk {
			hi := lo + reduceChunk
			if hi > N {
				hi = N
			}
			dot += overlapSpan(s.amp, t.amp, lo, hi)
		}
	default:
		dot = s.reduceC(N, func(lo, hi int) complex128 {
			return overlapSpan(s.amp, t.amp, lo, hi)
		})
	}
	return real(dot)*real(dot) + imag(dot)*imag(dot), nil
}

// Norm returns <s|s>; it should stay 1 within numerical error.
func (s *State) Norm() float64 {
	N := len(s.amp)
	if N < shardMinAmps {
		return normSpan(s.amp, 0, N)
	}
	if !s.sharded() {
		var sum float64
		for lo := 0; lo < N; lo += reduceChunk {
			hi := lo + reduceChunk
			if hi > N {
				hi = N
			}
			sum += normSpan(s.amp, lo, hi)
		}
		return sum
	}
	return s.reduce(N, func(lo, hi int) float64 {
		return normSpan(s.amp, lo, hi)
	})
}
