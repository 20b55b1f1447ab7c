package quantum

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/circuit"
)

// The naive reference implementation: the pre-kernel full-scan gate
// application, retained verbatim so the strided kernels always have an
// independently-written oracle to agree with.

func naiveApply1Q(amp []complex128, q int, a, b, c, d complex128) {
	bit := 1 << uint(q)
	for i := range amp {
		if i&bit != 0 {
			continue
		}
		j := i | bit
		x, y := amp[i], amp[j]
		amp[i] = a*x + b*y
		amp[j] = c*x + d*y
	}
}

func naiveApplyCZ(amp []complex128, qa, qb int) {
	ba, bb := 1<<uint(qa), 1<<uint(qb)
	for i := range amp {
		if i&ba != 0 && i&bb != 0 {
			amp[i] = -amp[i]
		}
	}
}

func naiveApply(amp []complex128, g circuit.Gate) {
	switch g.Name {
	case circuit.RX:
		c := complex(math.Cos(g.Param/2), 0)
		is := complex(0, -math.Sin(g.Param/2))
		naiveApply1Q(amp, g.Qubits[0], c, is, is, c)
	case circuit.RY:
		c := complex(math.Cos(g.Param/2), 0)
		sn := complex(math.Sin(g.Param/2), 0)
		naiveApply1Q(amp, g.Qubits[0], c, -sn, sn, c)
	case circuit.RZ:
		em := cmplx.Exp(complex(0, -g.Param/2))
		ep := cmplx.Exp(complex(0, g.Param/2))
		naiveApply1Q(amp, g.Qubits[0], em, 0, 0, ep)
	case circuit.CZ:
		naiveApplyCZ(amp, g.Qubits[0], g.Qubits[1])
	}
}

// randomBasisGates draws a random hardware-basis gate sequence touching
// every qubit.
func randomBasisGates(nQubits, nGates int, rng *rand.Rand) []circuit.Gate {
	gates := make([]circuit.Gate, 0, nGates)
	for len(gates) < nGates {
		switch rng.Intn(4) {
		case 0:
			gates = append(gates, circuit.Gate{Name: circuit.RX, Qubits: []int{rng.Intn(nQubits)}, Param: rng.NormFloat64()})
		case 1:
			gates = append(gates, circuit.Gate{Name: circuit.RY, Qubits: []int{rng.Intn(nQubits)}, Param: rng.NormFloat64()})
		case 2:
			gates = append(gates, circuit.Gate{Name: circuit.RZ, Qubits: []int{rng.Intn(nQubits)}, Param: rng.NormFloat64()})
		default:
			if nQubits < 2 {
				continue
			}
			a := rng.Intn(nQubits)
			b := rng.Intn(nQubits)
			if a == b {
				continue
			}
			gates = append(gates, circuit.Gate{Name: circuit.CZ, Qubits: []int{a, b}})
		}
	}
	return gates
}

// checkKernelEquivalence runs one random circuit through the strided
// kernels and the naive reference side by side and asserts
// amplitude-wise agreement within 1e-12.
func checkKernelEquivalence(t *testing.T, nQubits int, seed int64, workers int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := NewState(nQubits)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(workers)
	ref := make([]complex128, 1<<uint(nQubits))
	ref[0] = 1
	for gi, g := range randomBasisGates(nQubits, 48, rng) {
		if err := s.Apply(g); err != nil {
			t.Fatal(err)
		}
		naiveApply(ref, g)
		// Check after every gate so a divergence points at the kernel
		// that introduced it, not at the end of the circuit.
		for i := range ref {
			if d := cmplx.Abs(s.Amplitude(i) - ref[i]); d > 1e-12 {
				t.Fatalf("seed %d, gate %d (%s %v): amp[%d] diverged by %g", seed, gi, g.Name, g.Qubits, i, d)
			}
		}
	}
}

func TestKernelsMatchNaiveReference(t *testing.T) {
	// Small registers take the sequential path, 14 qubits crosses
	// shardMinAmps and exercises the chunked/sharded path.
	for _, n := range []int{1, 2, 3, 5} {
		for seed := int64(1); seed <= 10; seed++ {
			checkKernelEquivalence(t, n, seed, 4)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		checkKernelEquivalence(t, 14, seed, 4)
	}
}

// FuzzKernelEquivalence lets the fuzzer hunt for (width, seed)
// combinations where the strided kernels and the naive reference
// disagree.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(3, int64(7))
	f.Add(5, int64(42))
	f.Add(1, int64(0))
	f.Fuzz(func(t *testing.T, nQubits int, seed int64) {
		if nQubits < 1 || nQubits > 10 {
			t.Skip()
		}
		checkKernelEquivalence(t, nQubits, seed, 4)
	})
}

// TestKernelWorkerCountInvariance is the determinism contract applied
// to the sharded kernels: on a register above the sharding threshold,
// every public result — amplitudes, reductions and measurement draws —
// must be bit-identical between Workers 1 and Workers 4.
func TestKernelWorkerCountInvariance(t *testing.T) {
	const nQubits = 14 // 2^14 amplitudes == shardMinAmps: sharding active
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gates := randomBasisGates(nQubits, 64, rng)
		run := func(workers int) *State {
			s, err := NewState(nQubits)
			if err != nil {
				t.Fatal(err)
			}
			s.SetWorkers(workers)
			for _, g := range gates {
				if err := s.Apply(g); err != nil {
					t.Fatal(err)
				}
			}
			return s
		}
		seq, par := run(1), run(4)
		for i := range seq.amp {
			if seq.amp[i] != par.amp[i] {
				t.Fatalf("seed %d: amp[%d] %v sequential vs %v parallel", seed, i, seq.amp[i], par.amp[i])
			}
		}
		if a, b := seq.Norm(), par.Norm(); a != b {
			t.Fatalf("seed %d: Norm %v vs %v", seed, a, b)
		}
		for q := 0; q < nQubits; q++ {
			if a, b := seq.ProbabilityOfQubit(q), par.ProbabilityOfQubit(q); a != b {
				t.Fatalf("seed %d: P(q%d=1) %v vs %v", seed, q, a, b)
			}
		}
		oa, err := seq.Overlap(par)
		if err != nil {
			t.Fatal(err)
		}
		ob, err := par.Overlap(seq)
		if err != nil {
			t.Fatal(err)
		}
		if oa != ob {
			t.Fatalf("seed %d: Overlap %v vs %v", seed, oa, ob)
		}

		// Measurement draws consume the RNG identically, so outcomes and
		// post-measurement states must match bit for bit.
		mq := func(s *State) (int, *State) {
			r := rand.New(rand.NewSource(seed))
			b, err := s.MeasureQubit(3, r)
			if err != nil {
				t.Fatal(err)
			}
			return b, s
		}
		b1, s1 := mq(seq)
		b4, s4 := mq(par)
		if b1 != b4 {
			t.Fatalf("seed %d: MeasureQubit drew %d sequential vs %d parallel", seed, b1, b4)
		}
		for i := range s1.amp {
			if s1.amp[i] != s4.amp[i] {
				t.Fatalf("seed %d: post-measurement amp[%d] %v vs %v", seed, i, s1.amp[i], s4.amp[i])
			}
		}
		r1, r4 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		bits1, err := s1.MeasureAll(r1)
		if err != nil {
			t.Fatal(err)
		}
		bits4, err := s4.MeasureAll(r4)
		if err != nil {
			t.Fatal(err)
		}
		for q := range bits1 {
			if bits1[q] != bits4[q] {
				t.Fatalf("seed %d: MeasureAll bit %d: %d vs %d", seed, q, bits1[q], bits4[q])
			}
		}
	}
}

// TestMeasureQubitClampsToAliveBranch pins the division-by-zero fix:
// when the drawn branch's norm has underflowed to zero the outcome must
// clamp to the surviving branch instead of scaling by 1/sqrt(0).
func TestMeasureQubitClampsToAliveBranch(t *testing.T) {
	s, err := NewState(1)
	if err != nil {
		t.Fatal(err)
	}
	// |amp0|² underflows to exactly 0; |amp1|² is tiny, so the sampler
	// draws outcome 0 — the numerically dead branch.
	s.amp[0] = complex(1e-200, 0)
	s.amp[1] = complex(1e-7, 0)
	b, err := s.MeasureQubit(0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if b != 1 {
		t.Fatalf("outcome %d, want clamp to the surviving branch 1", b)
	}
	if a := s.Amplitude(1); cmplx.IsNaN(a) || cmplx.IsInf(a) || math.Abs(cmplx.Abs(a)-1) > 1e-9 {
		t.Fatalf("post-collapse amplitude %v, want unit modulus", a)
	}
}

func TestMeasureQubitDeadStateErrors(t *testing.T) {
	s, err := NewState(2)
	if err != nil {
		t.Fatal(err)
	}
	s.amp[0] = 0 // every amplitude zero: no branch can be renormalized
	if _, err := s.MeasureQubit(0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want error measuring a zero state")
	}
	if _, err := s.MeasureAll(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want error from MeasureAll on a zero state")
	}
}

func TestResetRestoresFreshState(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, err := NewState(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range randomBasisGates(5, 20, rng) {
		if err := s.Apply(g); err != nil {
			t.Fatal(err)
		}
	}
	s.Reset()
	fresh, err := NewState(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.amp {
		if s.amp[i] != fresh.amp[i] {
			t.Fatalf("amp[%d] = %v after Reset, want %v", i, s.amp[i], fresh.amp[i])
		}
	}
}

func TestCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src, err := NewState(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range randomBasisGates(4, 12, rng) {
		if err := src.Apply(g); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := NewState(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	for i := range src.amp {
		if dst.amp[i] != src.amp[i] {
			t.Fatalf("amp[%d] not copied", i)
		}
	}
	other, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.CopyFrom(src); err == nil {
		t.Fatal("want width-mismatch error")
	}
}

// TestGenericApply1QMatchesNaive keeps the generic 2×2 kernel honest:
// Apply routes RX/RY through the specialized rotation kernels, so the
// generic path is only reachable directly.
func TestGenericApply1QMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 3, 5, 14} {
		rng := rand.New(rand.NewSource(int64(91 + n)))
		s, err := NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range randomBasisGates(n, 16, rng) {
			if err := s.Apply(g); err != nil {
				t.Fatal(err)
			}
		}
		ref := make([]complex128, len(s.amp))
		copy(ref, s.amp)
		for trial := 0; trial < 8; trial++ {
			q := rng.Intn(n)
			// A random (not necessarily unitary) 2×2 matrix exercises the
			// index walk without relying on rotation structure.
			a := complex(rng.NormFloat64(), rng.NormFloat64())
			b := complex(rng.NormFloat64(), rng.NormFloat64())
			c := complex(rng.NormFloat64(), rng.NormFloat64())
			d := complex(rng.NormFloat64(), rng.NormFloat64())
			s.apply1Q(q, a, b, c, d)
			naiveApply1Q(ref, q, a, b, c, d)
			for i := range ref {
				if cmplx.Abs(s.amp[i]-ref[i]) > 1e-9 {
					t.Fatalf("n=%d trial=%d q=%d: amp[%d] = %v, naive %v", n, trial, q, i, s.amp[i], ref[i])
				}
			}
		}
	}
}

// The gate path — gate application and Pauli injection, the hottest
// loop of a trajectory — must stay zero-alloc.
func TestGatePathZeroAlloc(t *testing.T) {
	s, err := NewState(6)
	if err != nil {
		t.Fatal(err)
	}
	g := circuit.Gate{Name: circuit.RX, Qubits: []int{2}, Param: 0.3}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Apply(g); err != nil {
			t.Fatal(err)
		}
		s.applyPauli(0, 1)
		s.applyPauli(2, 3)
	}); allocs != 0 {
		t.Errorf("gate path allocates %.1f per run, want 0", allocs)
	}
}
