package parallel

import "math/rand"

// Rands is a pool of per-worker reseedable RNGs for ForEachWorker-style
// loops. TaskRand allocates a fresh generator (~5 KB of rngSource
// state) per task; a Rands pool allocates one generator per worker once
// and reseeds it at task entry, which produces the exact same stream:
// every slot is backed by a seededSource, which yields math/rand's
// stream for a seed bit for bit but reseeds in O(1) instead of
// rebuilding all 607 state words.
//
// Constraints, both consequences of reuse:
//
//   - slot w must only be used by worker w of a single ForEachWorker
//     family call at a time (workers run their tasks sequentially, so
//     this is race-free by construction);
//   - tasks must not call Rand.Read: Read keeps carry-over state in
//     the *rand.Rand wrapper that reseeding the source does not clear.
//     Every other method (Intn, Float64, NormFloat64, Perm, Shuffle,
//     ...) is a pure function of the source stream.
type Rands struct {
	srcs  []*seededSource
	rands []*rand.Rand
}

// NewRands builds a pool of w generators, one per worker id in [0, w).
// Size it with Resolve(workers, n) so every id that can appear is
// covered.
func NewRands(w int) *Rands {
	rs := &Rands{srcs: make([]*seededSource, w), rands: make([]*rand.Rand, w)}
	for i := 0; i < w; i++ {
		rs.srcs[i] = newSeededSource(0)
		rs.rands[i] = rand.New(rs.srcs[i])
	}
	return rs
}

// Task reseeds worker's generator onto the (master, task) stream of
// TaskSeed and returns it: the same values TaskRand(master, task)
// would produce, without the per-task allocation. The generator is
// only valid until the worker's next Task call.
func (rs *Rands) Task(worker int, master int64, task uint64) *rand.Rand {
	return rs.Seeded(worker, TaskSeed(master, task))
}

// Seeded reseeds worker's generator to exactly seed (no TaskSeed
// split) and returns it, for callers that pre-split their streams.
func (rs *Rands) Seeded(worker int, seed int64) *rand.Rand {
	rs.srcs[worker].Seed(seed)
	return rs.rands[worker]
}

// math/rand's additive lagged Fibonacci generator (its rngSource): a
// 607-word register, read at a tap 273 words behind the feed.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

var (
	// seedPow[k] is 48271^k mod 2^31-1: rngSource.Seed steps its Lehmer
	// generator x ← 48271·x mod 2^31-1 (Schrage's method, exact since
	// 3399 < 44488), so its k-th step from x is x·seedPow[k] mod 2^31-1.
	seedPow [3*rngLen + 21]uint64
	// rngCooked is math/rand's table of the same name, recovered at
	// init from the output of one of its own sources (see
	// recoverCooked).
	rngCooked [rngLen]int64
)

func init() {
	seedPow[0] = 1
	for k := 1; k < len(seedPow); k++ {
		seedPow[k] = seedPow[k-1] * 48271 % int32max
	}
	rngCooked = recoverCooked(1)
}

// normSeed reduces seed as rngSource.Seed does: into [1, 2^31-1), with
// 0 replaced by 89482311.
func normSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seedWord is state word i that rngSource.Seed builds from the
// normalized seed x (see normSeed) before the cooked table is mixed
// in: Seed discards 20 Lehmer steps, then builds word i from steps
// 21+3i, 22+3i and 23+3i.
func seedWord(x uint64, i int) int64 {
	k := 21 + 3*i
	return int64(x*seedPow[k]%int32max<<40 ^ x*seedPow[k+1]%int32max<<20 ^ x*seedPow[k+2]%int32max)
}

// recoverCooked returns math/rand's rngCooked table, read off the first
// rngLen outputs o[1..rngLen] of rand.NewSource(seed). Output k adds
// the register words at the feed and the tap, which start at rngLen-rngTap
// and 0 and step down one per draw, so every initial word v[j] is fixed
// by the outputs in closed form:
//
//	v[334-k] = o[k] - o[k-273]   for k in 274..334 (feed original, tap rewritten at draw k-273)
//	v[941-k] = o[k] - o[k-273]   for k in 335..607 (feed wrapped, tap rewritten at draw k-273)
//	v[334-k] = o[k] - v[607-k]   for k in 1..273   (both original)
//
// and the table is each v[j] with seedWord(normSeed(seed), j) xored
// back out.
func recoverCooked(seed int64) [rngLen]int64 {
	src := rand.NewSource(seed).(rand.Source64)
	var o [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var v [rngLen]int64
	for k := 274; k <= 334; k++ {
		v[334-k] = o[k] - o[k-rngTap]
	}
	for k := 335; k <= rngLen; k++ {
		v[941-k] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[334-k] = o[k] - v[rngLen-k]
	}
	x := normSeed(seed)
	for j := range v {
		v[j] ^= seedWord(x, j)
	}
	return v
}

// seededSource is a rand.Source64 producing exactly math/rand's
// rngSource stream for its seed. Seed only records the seed; each
// register word is built from it in closed form on first read, behind
// a generation stamp, so a reseed followed by a few draws costs a few
// words, not 607.
type seededSource struct {
	x         uint64 // normSeed of the current seed
	tap, feed int
	stamp     uint32         // the current seed's generation
	gen       [rngLen]uint32 // gen[i] == stamp: vec[i] is live for this seed
	vec       [rngLen]int64
}

func newSeededSource(seed int64) *seededSource {
	s := &seededSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source onto seed's stream.
func (s *seededSource) Seed(seed int64) {
	s.x = normSeed(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.stamp++
	if s.stamp == 0 {
		// Wrapped: stamps of 4 billion seeds ago would read as live.
		clear(s.gen[:])
		s.stamp = 1
	}
}

// word returns register word i, building it if this seed has not yet
// read it.
func (s *seededSource) word(i int) int64 {
	if s.gen[i] != s.stamp {
		s.vec[i] = seedWord(s.x, i) ^ rngCooked[i]
		s.gen[i] = s.stamp
	}
	return s.vec[i]
}

// Uint64 is rngSource.Uint64.
func (s *seededSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is rngSource.Int63.
func (s *seededSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
