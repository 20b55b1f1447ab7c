package parallel

import (
	"math"
	"math/rand"
	"testing"
)

// checkSeededStream compares n Uint64 draws of a seededSource reseeded
// onto seed against a fresh rand.NewSource(seed).
func checkSeededStream(t testing.TB, s *seededSource, seed int64, n int) {
	t.Helper()
	s.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < n; k++ {
		if got, w := s.Uint64(), want.Uint64(); got != w {
			t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, k, got, w)
		}
	}
}

func TestSeededSourceMatchesMathRand(t *testing.T) {
	// 3·607 draws wrap tap and feed around the register three times,
	// so every word is read fresh, then read back rewritten.
	const n = 3*rngLen + 5
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, 89482311,
		math.MinInt64, math.MaxInt64,
	}
	for task := uint64(0); task < 200; task++ {
		seeds = append(seeds, TaskSeed(int64(task)*7919-3, task))
	}
	// One source serves every seed, so each check also proves a
	// reseed discards the previous stream's words.
	s := newSeededSource(0)
	for _, seed := range seeds {
		checkSeededStream(t, s, seed, n)
	}
}

func TestRandsMatchTaskRand(t *testing.T) {
	rs := NewRands(2)
	for task := uint64(0); task < 50; task++ {
		w := int(task % 2)
		got, want := rs.Task(w, 42, task), TaskRand(42, task)
		for k := 0; k < 20; k++ {
			if g, x := got.NormFloat64(), want.NormFloat64(); g != x {
				t.Fatalf("task %d NormFloat64 %d: got %v, want %v", task, k, g, x)
			}
			if g, x := got.Intn(1000+k), want.Intn(1000+k); g != x {
				t.Fatalf("task %d Intn %d: got %d, want %d", task, k, g, x)
			}
			if g, x := got.Float64(), want.Float64(); g != x {
				t.Fatalf("task %d Float64 %d: got %v, want %v", task, k, g, x)
			}
		}
	}
}

func TestSeededSourceStampWraparound(t *testing.T) {
	s := newSeededSource(0)
	checkSeededStream(t, s, 5, rngLen)
	// The next Seed wraps the stamp to zero; without clearing, words
	// stamped just before the wrap would read as live for a later seed.
	s.stamp = math.MaxUint32
	for i := range s.gen {
		s.gen[i] = 1
	}
	checkSeededStream(t, s, 6, 2*rngLen)
	if s.stamp != 1 {
		t.Fatalf("stamp after wraparound = %d, want 1", s.stamp)
	}
	checkSeededStream(t, s, 7, 2*rngLen)
}

func FuzzSeededSource(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(-1), uint16(rngLen))
	f.Add(int64(math.MinInt64), uint16(3*rngLen))
	f.Add(int64(int32max), uint16(rngTap+1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkSeededStream(t, newSeededSource(0), seed, int(n)%(4*rngLen))
	})
}

func BenchmarkRandsReseed(b *testing.B) {
	rs := NewRands(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += rs.Seeded(0, int64(i)).NormFloat64()
	}
	_ = sink
}
