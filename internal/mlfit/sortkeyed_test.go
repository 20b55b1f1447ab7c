package mlfit

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkSortKeyed sorts a copy of keys with sortKeyed and another with
// sort.Slice under the same comparison, and fails unless both end in
// the same permutation: same order of equal keys, not merely sorted.
func checkSortKeyed(t *testing.T, name string, keys []keyed) {
	t.Helper()
	got := append([]keyed(nil), keys...)
	want := append([]keyed(nil), keys...)
	sortKeyed(got)
	sort.Slice(want, func(a, b int) bool { return want[a].x < want[b].x })
	for k := range got {
		if got[k].i != want[k].i || math.Float64bits(got[k].x) != math.Float64bits(want[k].x) {
			t.Fatalf("%s (n=%d): position %d holds row %d, sort.Slice put row %d there", name, len(keys), k, got[k].i, want[k].i)
		}
	}
}

func keysOf(xs []float64) []keyed {
	keys := make([]keyed, len(xs))
	for i, x := range xs {
		keys[i] = keyed{x: x, i: i}
	}
	return keys
}

// antiQuicksort returns n keys built by McIlroy's quicksort adversary
// ("A Killer Adversary for Quicksort", 1999) run against sort.Slice:
// values are fixed lazily so that every pivot pdqsort picks is as bad
// as possible. Sorting the resulting keys drives pdqsort through
// breakPatterns and, once its bad-partition budget is spent, into the
// heapsort fallback.
func antiQuicksort(n int) []float64 {
	gas := n
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, 0
	cmp := func(x, y int) int {
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[x] = solid
			} else {
				val[y] = solid
			}
			solid++
		}
		if val[x] == gas {
			candidate = x
		} else if val[y] == gas {
			candidate = y
		}
		return val[x] - val[y]
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	sort.Slice(items, func(a, b int) bool { return cmp(items[a], items[b]) < 0 })
	xs := make([]float64, n)
	for i, v := range val {
		xs[i] = float64(v)
	}
	return xs
}

// TestSortKeyedMatchesSortSlice is the differential check behind the
// split search's bit-identity: on tie-heavy inputs of every size class
// (insertion sort at n <= 12, ninther pivots, partitionEqual runs) and
// on adversarial orders (reversed, sawtooth, organ-pipe, nearly sorted
// and the quicksort adversary, which reaches breakPatterns and the
// heapsort fallback), sortKeyed leaves exactly sort.Slice's
// permutation. Run on each supported toolchain, it catches a change to
// the standard library's sort that the copy would no longer replay.
func TestSortKeyedMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 5, 8, 11, 12, 13, 20, 49, 50, 51, 64, 100, 257, 1000, 4096}
	for _, n := range sizes {
		for _, distinct := range []int{1, 2, 3, 7, 1 << 30} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(distinct))
			}
			checkSortKeyed(t, "random", keysOf(xs))
		}
		patterns := map[string]func(i int) float64{
			"ascending":  func(i int) float64 { return float64(i / 3) },
			"descending": func(i int) float64 { return float64((n - i) / 3) },
			"sawtooth":   func(i int) float64 { return float64(i % 17) },
			"organ-pipe": func(i int) float64 { return float64(min(i, n-i) / 2) },
			"two-runs":   func(i int) float64 { return float64((i + n/2) % n) },
		}
		for name, gen := range patterns {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i)
			}
			checkSortKeyed(t, name, keysOf(xs))
			// Nearly sorted: a few swaps exercise partialInsertionSort.
			for s := 0; s < 3 && n > 1; s++ {
				a, b := rng.Intn(n), rng.Intn(n)
				xs[a], xs[b] = xs[b], xs[a]
			}
			checkSortKeyed(t, name+"+swaps", keysOf(xs))
		}
		checkSortKeyed(t, "adversary", keysOf(antiQuicksort(n)))
	}
	// Signed zeros compare equal and NaN compares false both ways, so
	// both only shape the permutation through tie handling.
	special := []float64{0, math.Copysign(0, -1), math.NaN(), 1, math.Inf(-1), math.NaN(), 0, math.Inf(1), -1}
	for n := 1; n <= 200; n += 13 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = special[rng.Intn(len(special))]
		}
		checkSortKeyed(t, "special", keysOf(xs))
	}
}

// FuzzSortKeyed extends the differential check to arbitrary inputs:
// each byte is one key, so the fuzzer explores tie structure and
// orderings directly.
func FuzzSortKeyed(f *testing.F) {
	f.Add([]byte{3, 1, 2})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, again and again"))
	adv := antiQuicksort(200)
	seed := make([]byte, len(adv))
	for i, x := range adv {
		seed[i] = byte(x)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data))
		for i, b := range data {
			xs[i] = float64(b)
		}
		checkSortKeyed(t, "fuzz", keysOf(xs))
	})
}
