package fdm

import (
	"reflect"
	"testing"
)

// fuzzMix is a SplitMix64-style finalizer used to derive deterministic
// pseudo-random distances and crosstalk values from fuzz input, so the
// fuzzer explores the grouping search space without any real RNG.
func fuzzMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func fuzzUnit(seed uint64, i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	h := fuzzMix(seed ^ fuzzMix(uint64(i)<<32|uint64(j)))
	return float64(h%1_000_000) / 1_000_000
}

// FuzzGroupAllocate checks the two structural invariants of the FDM
// layer on arbitrary inputs: Group must produce a partition of [0, n)
// with no line over capacity, and Allocate must place every line's
// members in distinct zones (hence distinct frequency cells) with
// in-zone frequencies. Both passes must also be deterministic, and
// Allocate must match allocateReference bit for bit, under the default
// options and under a swap budget and objective drawn from the seed.
func FuzzGroupAllocate(f *testing.F) {
	f.Add(uint64(1), 9, 3)
	f.Add(uint64(42), 25, 5)
	f.Add(uint64(7), 1, 1)
	f.Add(uint64(0xDEADBEEF), 33, 7)
	f.Add(uint64(3), 16, 2)
	f.Fuzz(func(t *testing.T, seed uint64, n, capacity int) {
		// Clamp to tractable, valid shapes; invalid capacities are
		// covered by the unit tests.
		n = 1 + abs(n)%48
		capacity = 1 + abs(capacity)%8

		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		dist := func(i, j int) float64 { return fuzzUnit(seed, i, j) }
		xt := func(i, j int) float64 { return 0.1 * fuzzUnit(seed+1, i, j) }

		g, err := Group(members, capacity, dist)
		if err != nil {
			t.Fatalf("Group(n=%d, cap=%d): %v", n, capacity, err)
		}
		if err := g.Validate(n); err != nil {
			t.Fatalf("grouping invariant violated (n=%d, cap=%d): %v", n, capacity, err)
		}
		g2, err := Group(members, capacity, dist)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Groups, g2.Groups) {
			t.Fatal("Group is not deterministic")
		}

		plan, err := Allocate(g, xt, DefaultAllocOptions())
		if err != nil {
			t.Fatalf("Allocate(n=%d, cap=%d): %v", n, capacity, err)
		}
		if err := plan.Validate(g); err != nil {
			t.Fatalf("plan invariant violated (n=%d, cap=%d): %v", n, capacity, err)
		}
		varied := AllocOptions{SwapPasses: int(seed % 4), CrossLine: seed&4 == 0}
		for _, opts := range []AllocOptions{DefaultAllocOptions(), varied} {
			got, err := Allocate(g, xt, opts)
			if err != nil {
				t.Fatalf("Allocate(n=%d, cap=%d, %+v): %v", n, capacity, opts, err)
			}
			want, err := allocateReference(g, xt, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := planDiff(got, want); d != "" {
				t.Fatalf("Allocate(n=%d, cap=%d, %+v) differs from the reference: %s", n, capacity, opts, d)
			}
		}
		// Explicitly: no two qubits on the same line may share a
		// frequency cell (they would be indistinguishable on the wire).
		for li, group := range g.Groups {
			cells := make(map[CellRef]int)
			for _, q := range group {
				ref := plan.Cell[q]
				if prev, dup := cells[ref]; dup {
					t.Fatalf("line %d: qubits %d and %d share cell %+v", li, prev, q, ref)
				}
				cells[ref] = q
			}
		}
	})
}

// FuzzLocalClusterGroup checks the baseline grouping obeys the same
// partition invariant.
func FuzzLocalClusterGroup(f *testing.F) {
	f.Add(12, 4)
	f.Add(1, 1)
	f.Add(30, 7)
	f.Fuzz(func(t *testing.T, n, capacity int) {
		n = 1 + abs(n)%64
		capacity = 1 + abs(capacity)%8
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		g := LocalClusterGroup(members, capacity)
		if err := g.Validate(n); err != nil {
			t.Fatalf("LocalClusterGroup(n=%d, cap=%d): %v", n, capacity, err)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
