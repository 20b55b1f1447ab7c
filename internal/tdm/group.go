package tdm

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"
	"sort"
	"sync"
)

// CrosstalkFunc returns predicted crosstalk between two qubits.
type CrosstalkFunc func(i, j int) float64

// Config tunes the TDM grouping.
type Config struct {
	// Theta is the parallelism threshold: devices with index <= Theta
	// are low-parallelism and eligible for 1:4 DEMUXes; devices above
	// it are capped at 1:2.
	Theta float64
	// Crosstalk predicts pairwise qubit crosstalk; nil disables the
	// noisy non-parallelism term (step 3 of the grouping).
	Crosstalk CrosstalkFunc
	// NoiseThreshold is the crosstalk level above which two gates are
	// considered noisy non-parallel (must not run simultaneously, so
	// their devices may share a DEMUX for free).
	NoiseThreshold float64
	// LossyLimit bounds, per group, the number of members admitted
	// without full (all-pairs) non-parallelism to any existing member.
	// Each lossy member risks serializing gates at run time, so the
	// limit trades Z-line reduction against circuit depth.
	LossyLimit int
	// MinLossyFraction is the minimum non-parallel gate-pair fraction a
	// lossy candidate must reach to be admitted; below it the group is
	// closed instead.
	MinLossyFraction float64
	// SparseQubitZ marks the surface-code operation mode (§5.2): qubit
	// Z activity is temporally sparse (slow DC parking) while CZ pulses
	// ride the coupler, so device pairs involving a qubit are treated
	// as naturally non-parallel and group freely. Gate legality (no two
	// devices of one gate in a group) still holds.
	SparseQubitZ bool
	// Noisy, when non-nil, lists for qubit a every qubit b with
	// Crosstalk(a, b) > NoiseThreshold, in any order: the grouping then
	// reads the noisy pairs from it instead of calling Crosstalk on
	// every pair of local qubits, a sizable share of a pipeline's warm
	// Theta-only redesign. A caller that can list the pairs cheaply
	// (crosstalk.Predictor.Above) sets it. It must agree with
	// Crosstalk: GroupDevices and GroupSortedNoise check one local qubit's
	// pairs and fail on a mismatch, and CheckNoisy checks every local
	// qubit's. A negative NoiseThreshold ignores it.
	Noisy func(a int) []int32
	// Isolate, when non-nil, marks devices whose Z path is stuck-lossy
	// (internal/faults): the device stays usable but must not sit
	// behind a shared cryo-DEMUX, so it is wired on a dedicated direct
	// line — a singleton group — instead of joining the greedy search.
	Isolate func(dev int) bool
}

// DefaultConfig uses the paper's example threshold θ = 4 and a mild
// lossy budget. The noise threshold is expressed in the predictor's
// units; 0.1 suits ZZ-shift predictions in MHz (an 0.1 MHz shift on a
// spectator spoils a simultaneous CZ).
func DefaultConfig(xt CrosstalkFunc) Config {
	return Config{
		Theta:            4,
		Crosstalk:        xt,
		NoiseThreshold:   0.1,
		LossyLimit:       2,
		MinLossyFraction: 0.3,
	}
}

// Group partitions the given devices into TDM groups using the 3-step
// greedy graph-coloring search:
//
//  1. seed each group with the lowest-parallelism remaining device;
//  2. grow with legal devices that are topologically non-parallel to
//     the group (their gates can never coexist with the group's gates);
//  3. then with noisy non-parallel devices (the crosstalk model says
//     their gates must not run simultaneously);
//
// falling back, for devices that could genuinely execute in parallel,
// to the candidate whose parallelism index is closest to the group's
// mean (the balancing rule). Legality always holds: no two devices of
// one hardware gate ever share a group.
func GroupDevices(gi *GateInfo, devices []int, cfg Config) (*Grouping, error) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	if err := s.index(gi, devices); err != nil {
		return nil, err
	}
	rest, isolated := s.rest[:0], s.isolated[:0]
	for _, d := range devices {
		if cfg.Isolate != nil && cfg.Isolate(d) {
			isolated = append(isolated, d)
		} else {
			rest = append(rest, d)
		}
	}
	s.rest, s.isolated = rest, isolated
	SortByIndex(rest, s.idx)
	sort.Ints(isolated)
	return s.group(gi, rest, isolated, nil, cfg)
}

// GroupSortedNoise is GroupDevices over a device split made ahead of
// time, as the pipeline caches it: sorted lists the devices to group in
// SortByIndex order, and isolated the stuck-lossy devices, ascending,
// which close the plan as dedicated direct lines; cfg.Isolate is not
// consulted. Neither list depends on Theta, and the devices at or below
// Theta are a prefix of sorted, so a Theta sweep sorts nothing. The
// grouping equals GroupDevices' over the same devices with an Isolate
// that marks exactly isolated. Out-of-order lists are an error.
//
// nt holds the noise tables NewNoise built for the same gate tables,
// the same sorted devices and cfg's noise settings (Crosstalk, Noisy
// and NoiseThreshold); a nil nt builds them for this call. Each call
// still checks one local qubit's Noisy list against Crosstalk.
func GroupSortedNoise(gi *GateInfo, sorted, isolated []int, nt *Noise, cfg Config) (*Grouping, error) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	if err := s.index(gi, sorted, isolated); err != nil {
		return nil, err
	}
	for i := 1; i < len(sorted); i++ {
		if byIndex(s.idx, sorted[i-1], sorted[i]) > 0 {
			return nil, fmt.Errorf("tdm: devices %d and %d out of parallelism-index order", sorted[i-1], sorted[i])
		}
	}
	for i := 1; i < len(isolated); i++ {
		if isolated[i-1] > isolated[i] {
			return nil, fmt.Errorf("tdm: isolated devices %d and %d out of order", isolated[i-1], isolated[i])
		}
	}
	if nt != nil && !slices.Equal(nt.devs, sorted) {
		return nil, fmt.Errorf("tdm: noise tables built for other devices")
	}
	return s.group(gi, sorted, isolated, nt, cfg)
}

// NewNoise builds the noise tables of the devices sorted, listed in
// SortByIndex order, under cfg's noise settings, for any number of
// GroupSortedNoise calls over those devices: nothing in them depends on
// Theta. The tables are read-only once built.
func NewNoise(gi *GateInfo, sorted []int, cfg Config) (*Noise, error) {
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	if err := s.index(gi, sorted); err != nil {
		return nil, err
	}
	nt := new(Noise)
	nt.build(s, gi, sorted, nil, cfg)
	return nt, nil
}

// index checks the device lists — gate tables present, at least one
// device, every device in range and listed once — and records each
// listed device's parallelism index in s.idx.
func (s *scratch) index(gi *GateInfo, lists ...[]int) error {
	if gi == nil {
		return fmt.Errorf("tdm: nil gate tables")
	}
	total := 0
	for _, devs := range lists {
		total += len(devs)
	}
	if total == 0 {
		return fmt.Errorf("tdm: empty device list (no devices to group)")
	}
	n := gi.Dev.Count()
	seen := resize(&s.seen, n)
	idx := resize(&s.idx, n) // read only at the given devices
	for _, devs := range lists {
		for _, d := range devs {
			if d < 0 || d >= n {
				return fmt.Errorf("tdm: device %d out of range [0,%d)", d, n)
			}
			if seen[d] {
				return fmt.Errorf("tdm: duplicate device %d", d)
			}
			seen[d] = true
			idx[d] = gi.ParallelismIndex(d)
		}
	}
	return nil
}

// group groups the indexed devices of sorted, in SortByIndex order,
// over the noise tables nt (nil: built into the scratch's own), and
// closes the plan with isolated's direct lines.
func (s *scratch) group(gi *GateInfo, sorted, isolated []int, nt *Noise, cfg Config) (*Grouping, error) {
	var err error
	if nt == nil {
		err = s.buildNoise(gi, sorted, nil, cfg)
	} else {
		err = s.useNoise(gi, nt, cfg)
	}
	if err != nil {
		return nil, err
	}
	cut := 0
	for cut < len(sorted) && s.idx[sorted[cut]] <= cfg.Theta {
		cut++
	}
	low, high := sorted[:cut:cut], sorted[cut:]
	groups := s.groupLevel(gi, low, 4, s.idx, cfg, s.groups[:0])
	groups = s.groupLevel(gi, high, 2, s.idx, cfg, groups)
	g := &Grouping{Theta: cfg.Theta, Groups: make([]Group, len(groups), len(groups)+len(isolated))}
	copy(g.Groups, groups)
	clear(groups) // the scratch keeps no reference into the result
	s.groups = groups[:0]
	s.ng.Noise = nil
	// Stuck-lossy devices close the plan as dedicated direct lines, in
	// id order for determinism.
	for _, d := range isolated {
		g.Groups = append(g.Groups, Group{Devices: []int{d}, Level: DemuxNone})
	}
	return g, nil
}

// CheckNoisy checks cfg.Noisy against cfg.Crosstalk on every pair a
// grouping of devices reads: for every local qubit a (a qubit of one of
// the devices' gates) and every other local qubit b, Noisy(a) lists b
// exactly when Crosstalk(a, b) > NoiseThreshold. GroupDevices checks
// the first local qubit's pairs on every call; a caller that caches
// the lists checks them all here, once. A config that does not read
// the lists passes.
func CheckNoisy(gi *GateInfo, devices []int, cfg Config) error {
	if !cfg.readsNoisy() {
		return nil
	}
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	s.tables.build(s, gi, devices, nil, cfg)
	local := s.tables.qubits
	return s.checkNoisy(gi.Dev.chip.NumQubits(), local, local, cfg)
}

// readsNoisy reports whether the grouping reads its noisy pairs from
// cfg.Noisy.
func (cfg *Config) readsNoisy() bool {
	return cfg.Crosstalk != nil && cfg.Noisy != nil && !(cfg.NoiseThreshold < 0)
}

// checkNoisy checks cfg.Noisy(a) for every a of from against
// cfg.Crosstalk on the qubits of to, of a chip of nq qubits.
func (s *scratch) checkNoisy(nq int, from, to []int, cfg Config) error {
	listed := resize(&s.listed, nq)
	for _, a := range from {
		for _, b := range cfg.Noisy(a) {
			listed[b] = true
		}
		for _, b := range to {
			if b != a && listed[b] != (cfg.Crosstalk(a, b) > cfg.NoiseThreshold) {
				return fmt.Errorf("tdm: Noisy(%d) and Crosstalk disagree on qubit %d", a, b)
			}
		}
		for _, b := range cfg.Noisy(a) {
			listed[b] = false
		}
	}
	return nil
}

// scratch is the working memory of one GroupDevices call. Scratches
// are pooled, so a call allocates little beyond the grouping it
// returns; every buffer is resized and cleared before use.
type scratch struct {
	seen, local, listed []bool
	idx                 []float64
	bySeed              []int32
	groups, level       []Group
	rest, isolated      []int
	near                []int
	illegal             []int
	on                  []uint64
	ng                  noiseGraph
	tables              Noise // the noise tables of a call given none
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// resize sets *buf to n cleared elements, reusing its backing array
// when it is large enough, and returns it.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// GroupChip groups every device of the chip behind the gate tables.
func GroupChip(gi *GateInfo, cfg Config) (*Grouping, error) {
	devs := make([]int, gi.Dev.Count())
	for i := range devs {
		devs[i] = i
	}
	return GroupDevices(gi, devs, cfg)
}

// conflicts reports whether devices a and b are occupied by a common
// hardware gate, which would make that gate unrealizable if they shared
// a DEMUX (challenge Case 2).
func conflicts(gi *GateInfo, a, b int) bool {
	for _, ga := range gi.GatesOf[a] {
		devs := gi.GateDevices(ga)
		for _, d := range devs {
			if d == b {
				return true
			}
		}
	}
	return false
}

// fraction is np/pairs, or 1 when there are no pairs.
func fraction(pairs, np int) float64 {
	if pairs == 0 {
		return 1
	}
	return float64(np) / float64(pairs)
}

// noiseGraph is the crosstalk side of one GroupDevices call. A member
// gate gm and a candidate gate gc can never execute simultaneously
// when they share a qubit (step 2 of the grouping) or when their worst
// pairwise crosstalk xt(qa,qb), qa on gm and qb on gc, exceeds the
// noise threshold (step 3). So gc is non-parallel to gm exactly when
// it touches the closed out-neighbourhood {a} ∪ {b : xt(a,b) >
// NoiseThreshold} of one of gm's qubits a. Only the gates of the
// grouped devices (the region's gates) are ever counted, and their
// qubits (the local qubits) bound the neighbourhoods, so the graph
// holds, for every local qubit a, the bitset over the region's gates of
// those touching a's closed out-neighbourhood: a member gate's
// non-parallel gates are the union of its two qubits' sets, without
// itself. That worst value starts at 0, so a negative threshold makes
// every local qubit an out-neighbour; NaN never compares '>'.
//
// The graph itself, Noise, depends on the devices and the noise
// settings alone; the search state below it is per call.
type noiseGraph struct {
	*Noise
	// cnt[k] counts the member gates of the current group that region
	// gate k can never execute beside; touched is the bitset of the
	// gates with a count, and near the set of their devices and of the
	// member gates' own, which are never live. live is
	// the set of the current level's devices that may still join the
	// current group (ungrouped and legal), and free its gate-less
	// devices.
	cnt     []int32
	touched []uint64
	near    []uint64
	live    []uint64
	free    []uint64
}

// Noise is the Theta-independent part of a grouping's noise graph
// (see noiseGraph) over one list of devices: the region's gates, their
// devices and every local qubit's reach. NewNoise builds it once for
// the groupings of every Theta.
type Noise struct {
	words int     // bitset words per set: the region's gates / 64, rounded up
	gid   []int32 // gid[g]: gate g's index among the region's gates, or -1
	gates []int   // gates[k]: the gate of region index k
	reach []uint64
	// reachDev[q*dwords:(q+1)*dwords] is the set of the devices of the
	// region gates local qubit q reaches.
	reachDev []uint64
	qubits   []int // the local qubits, in order of first appearance
	// The devices of both levels are indexed too, each level in its
	// search order: dev[d] is device d's index, or the spare index
	// len(devs) for a device outside them, and devs[i] the device of
	// index i. Device sets are bitsets over these indices, of dwords
	// words; the spare bit is never set.
	dwords int
	dev    []uint32
	devs   []int
}

// useNoise readies the search state for a call over nt. It fails when
// cfg.Noisy disagrees with cfg.Crosstalk on the pairs of the first
// local qubit (CheckNoisy checks them all).
func (s *scratch) useNoise(gi *GateInfo, nt *Noise, cfg Config) error {
	if cfg.readsNoisy() && len(nt.qubits) > 0 {
		if err := s.checkNoisy(gi.Dev.chip.NumQubits(), nt.qubits[:1], nt.qubits, cfg); err != nil {
			return err
		}
	}
	ng := &s.ng
	ng.Noise = nt
	resize(&ng.cnt, len(nt.gates))
	resize(&ng.touched, nt.words)
	resize(&ng.near, nt.dwords)
	resize(&ng.live, nt.dwords)
	resize(&ng.free, nt.dwords)
	return nil
}

// buildNoise builds the scratch's own noise tables over the gates of
// the devices of both levels and readies the search state over them
// (useNoise).
func (s *scratch) buildNoise(gi *GateInfo, low, high []int, cfg Config) error {
	s.tables.build(s, gi, low, high, cfg)
	return s.useNoise(gi, &s.tables, cfg)
}

// build builds the noise tables over the gates of the devices of both
// levels, each in search order, under cfg's noise settings; s lends
// its scratch.
func (nt *Noise) build(s *scratch, gi *GateInfo, low, high []int, cfg Config) {
	nq := gi.Dev.chip.NumQubits()
	gid := resize(&nt.gid, len(gi.Gates))
	for i := range gid {
		gid[i] = -1
	}
	local, qubits := resize(&s.local, nq), nt.qubits[:0]
	nt.gates = nt.gates[:0]
	for _, devs := range [2][]int{low, high} {
		for _, d := range devs {
			for _, g := range gi.GatesOf[d] {
				if gid[g] >= 0 {
					continue
				}
				gid[g] = int32(len(nt.gates))
				nt.gates = append(nt.gates, g)
				for _, q := range [2]int{gi.Gates[g].Q1, gi.Gates[g].Q2} {
					if !local[q] {
						local[q] = true
						qubits = append(qubits, q)
					}
				}
			}
		}
	}
	nt.qubits = qubits
	w := (len(nt.gates) + 63) / 64
	nt.words = w
	nt.devs = append(append(nt.devs[:0], low...), high...)
	dev := resize(&nt.dev, gi.Dev.Count())
	for d := range dev {
		dev[d] = uint32(len(nt.devs))
	}
	for i, d := range nt.devs {
		dev[d] = uint32(i)
	}
	nt.dwords = len(nt.devs)/64 + 1 // with the spare bit
	// on[q*w:(q+1)*w] is the set of region gates on qubit q.
	on := resize(&s.on, nq*w)
	for k, g := range nt.gates {
		for _, q := range [2]int{gi.Gates[g].Q1, gi.Gates[g].Q2} {
			on[q*w+k/64] |= 1 << (k % 64)
		}
	}
	reach := resize(&nt.reach, nq*w)
	orInto := func(a, b int) {
		dst, src := reach[a*w:(a+1)*w], on[b*w:(b+1)*w]
		for i := range dst {
			dst[i] |= src[i]
		}
	}
	noisy := cfg.readsNoisy()
	for _, a := range qubits {
		orInto(a, a)
		switch {
		case noisy:
			for _, b := range cfg.Noisy(a) {
				if int(b) != a && local[b] {
					orInto(a, int(b))
				}
			}
		case cfg.Crosstalk != nil:
			for _, b := range qubits {
				if b != a && (cfg.NoiseThreshold < 0 || cfg.Crosstalk(a, b) > cfg.NoiseThreshold) {
					orInto(a, b)
				}
			}
		}
	}
	dw := nt.dwords
	reachDev := resize(&nt.reachDev, nq*dw)
	for _, a := range qubits {
		for i, bits := range reach[a*w : (a+1)*w] {
			for ; bits != 0; bits &= bits - 1 {
				for _, d := range gi.GateDevices(nt.gates[i*64+mathbits.TrailingZeros64(bits)]) {
					reachDev[a*dw+int(dev[d])/64] |= 1 << (dev[d] % 64)
				}
			}
		}
	}
}

// level makes exactly the given devices live, for a new level, and
// marks its gate-less devices free.
func (ng *noiseGraph) level(gi *GateInfo, devs []int) {
	clear(ng.live)
	clear(ng.free)
	for _, d := range devs {
		ng.setLive(d, true)
		if len(gi.GatesOf[d]) == 0 {
			i := ng.dev[d]
			ng.free[i/64] |= 1 << (i % 64)
		}
	}
}

// isLive reports whether device d is live.
func (ng *noiseGraph) isLive(d int) bool {
	i := ng.dev[d]
	return ng.live[i/64]&(1<<(i%64)) != 0
}

// setLive adds device d to the live set, or removes it.
func (ng *noiseGraph) setLive(d int, on bool) {
	i := ng.dev[d]
	if on {
		ng.live[i/64] |= 1 << (i % 64)
	} else {
		ng.live[i/64] &^= 1 << (i % 64)
	}
}

// reset clears the counts for a new group.
func (ng *noiseGraph) reset() {
	for i, bits := range ng.touched {
		for ; bits != 0; bits &= bits - 1 {
			ng.cnt[i*64+mathbits.TrailingZeros64(bits)] = 0
		}
		ng.touched[i] = 0
	}
	clear(ng.near)
}

// candidates appends to out, in index order, the live devices that are
// gate-less or on a gate counted in the current group.
func (ng *noiseGraph) candidates(out []int) []int {
	for i, bits := range ng.near {
		for bits = (bits | ng.free[i]) & ng.live[i]; bits != 0; bits &= bits - 1 {
			out = append(out, ng.devs[i*64+mathbits.TrailingZeros64(bits)])
		}
	}
	return out
}

// countNonParallel counts the given member gates against every region
// gate that can never execute beside them: for a member gate, the gates
// reached from either of its qubits, itself excluded. Those gates'
// devices join near, with the member gate's own.
func (ng *noiseGraph) countNonParallel(gi *GateInfo, gates []int) {
	w, dw := ng.words, ng.dwords
	for _, gm := range gates {
		g := gi.Gates[gm]
		k := int(ng.gid[gm])
		r1, r2 := ng.reach[g.Q1*w:(g.Q1+1)*w], ng.reach[g.Q2*w:(g.Q2+1)*w]
		for i := range r1 {
			bits := r1[i] | r2[i]
			if i == k/64 {
				bits &^= 1 << (k % 64)
			}
			ng.touched[i] |= bits
			for ; bits != 0; bits &= bits - 1 {
				ng.cnt[i*64+mathbits.TrailingZeros64(bits)]++
			}
		}
		n1, n2 := ng.reachDev[g.Q1*dw:(g.Q1+1)*dw], ng.reachDev[g.Q2*dw:(g.Q2+1)*dw]
		for i := range ng.near {
			ng.near[i] |= n1[i] | n2[i]
		}
	}
}

// nonParallel returns the number of (member gate, gate of d) pairs
// that can never execute simultaneously: the counts of d's gates.
func (ng *noiseGraph) nonParallel(gi *GateInfo, d int) int {
	np := 0
	for _, g := range gi.GatesOf[d] {
		np += int(ng.cnt[ng.gid[g]])
	}
	return np
}

// groupLevel runs the greedy search over one parallelism level, whose
// devices devs come sorted by parallelism index, ties by id. A
// candidate is legal while it shares no gate with any member, and it
// is scored by the fraction of its (candidate gate, member gate) pairs
// that can never execute simultaneously; devices without gates are
// trivially non-parallel, and in surface-code mode any pair involving
// a qubit is free. Both are sums over the members, updated once when a
// member joins, sparsely: the member's gates make their devices
// illegal (they leave ng's live set until the group closes), and ng
// counts, per gate, the member gates it can never run beside, so a
// device's non-parallel pairs are its gates' counts. A legal candidate
// has been legal since the group's seed, so its pair count is
// |G(cand)| times the member gates counted so far, and needs no
// per-device update.
//
// Most candidates cannot be admitted: with MinLossyFraction > 0 (or
// the lossy budget spent), admission needs a fraction above zero, so
// a candidate with gates needs a non-parallel pair. Once the members
// have gates, outside surface-code mode, the search therefore visits
// only the live devices that are gate-less or on a counted gate
// (ng.candidates). Either way it visits candidates in search order, so
// the strict '>' keeps the first of tied keys.
func (s *scratch) groupLevel(gi *GateInfo, devs []int, capacity int, idx []float64, cfg Config, groups []Group) []Group {
	if len(devs) == 0 {
		return groups
	}
	ng := &s.ng
	ng.level(gi, devs)
	first := len(groups)
	// Every group's devices are a block of one backing array, each
	// capped at its length.
	flat := make([]int, 0, len(devs))
	// Grouped devices stay in devs: cur skips past the grouped prefix,
	// and the scans skip the rest. The devices a group makes illegal
	// are listed, to be made live again for the next group.
	illegal := s.illegal[:0]
	cur, left := 0, len(devs)

	for left > 0 {
		for _, d := range illegal {
			ng.setLive(d, true)
		}
		illegal = illegal[:0]
		for !ng.isLive(devs[cur]) {
			cur++
		}
		ng.reset()
		group := flat[len(flat) : len(flat) : len(flat)+min(capacity, left)]
		var sumIdx float64
		memberGates := 0 // Σ|G(m)| over the members whose pairs count
		join := func(m int) {
			group = append(group, m)
			ng.setLive(m, false)
			left--
			sumIdx += idx[m]
			if len(group) == capacity {
				return
			}
			// GatesOf is the inverse of GateDevices, so these are
			// exactly the devices that conflict with m.
			gates := gi.GatesOf[m]
			for _, g := range gates {
				for _, d := range gi.GateDevices(g) {
					if ng.isLive(d) {
						ng.setLive(d, false)
						illegal = append(illegal, d)
					}
				}
			}
			if cfg.SparseQubitZ && !gi.Dev.IsCoupler(m) {
				return
			}
			memberGates += len(gates)
			// In surface-code mode a qubit candidate's pairs stay 0, so
			// its fraction is 1 whatever np counts.
			ng.countNonParallel(gi, gates)
		}
		// Step 1: seed with the lowest-parallelism device.
		join(devs[cur])
		lossy := 0

		for len(group) < capacity {
			best, bestKey := -1, math.Inf(-1)
			bestStrict := false
			meanIdx := sumIdx / float64(len(group))
			cands := devs[cur:]
			if !cfg.SparseQubitZ && memberGates > 0 && (cfg.MinLossyFraction > 0 || lossy >= cfg.LossyLimit) {
				s.near = ng.candidates(s.near[:0])
				cands = s.near
			}
			for _, cand := range cands {
				if !ng.isLive(cand) {
					continue
				}
				// A fraction is at most 1 (a device's non-parallel pairs
				// are among its pairs), so a key is at most 1e6-gap, and
				// a candidate whose bound cannot beat the best is skipped.
				gap := math.Abs(idx[cand] - meanIdx)
				if 1e6-gap <= bestKey {
					continue
				}
				// Steps 2 and 3: devices fully non-parallel to the group
				// (every gate pair topologically or noisily
				// non-coexistent) join for free. Partially-parallel
				// devices are "lossy": each one risks serializing gates,
				// so admission is bounded by LossyLimit and
				// MinLossyFraction, and the balancing rule (closest
				// parallelism index) breaks ties.
				pairs := 0
				if !cfg.SparseQubitZ || gi.Dev.IsCoupler(cand) {
					pairs = len(gi.GatesOf[cand]) * memberGates
				}
				frac := fraction(pairs, ng.nonParallel(gi, cand))
				strict := frac >= 0.999
				if !strict {
					if lossy >= cfg.LossyLimit || frac < cfg.MinLossyFraction {
						continue
					}
				}
				if key := frac*1e6 - gap; key > bestKey {
					best, bestKey, bestStrict = cand, key, strict
				}
			}
			if best < 0 {
				break // no admissible device left for this group
			}
			join(best)
			if !bestStrict {
				lossy++
			}
		}

		flat = flat[:len(flat)+len(group)]
		groups = append(groups, Group{Devices: group[:len(group):len(group)], Level: levelFor(len(group))})
	}
	s.illegal = illegal
	// Order the level's groups by seed device: each goes to its seed's
	// slot of bySeed, which is read back in device order.
	bySeed := resize(&s.bySeed, gi.Dev.Count())
	for i, g := range groups[first:] {
		bySeed[g.Devices[0]] = int32(i) + 1
	}
	level := append(s.level[:0], groups[first:]...)
	k := first
	for _, i := range bySeed {
		if i > 0 {
			groups[k] = level[i-1]
			k++
		}
	}
	clear(level) // the scratch keeps no reference into the result
	s.level = level[:0]
	return groups
}

// LocalClusterGroup is the Acharya et al. baseline: devices are packed
// into DEMUX groups by spatial/id locality (raster order) subject only
// to the legality rule, without exploiting non-parallelism. fanout is
// the DEMUX fan-out used throughout (the reference design uses 1:4).
func LocalClusterGroup(gi *GateInfo, fanout int) (*Grouping, error) {
	if fanout != 2 && fanout != 4 {
		return nil, fmt.Errorf("tdm: unsupported fan-out %d", fanout)
	}
	n := gi.Dev.Count()
	g := &Grouping{}
	inGroup := make([]bool, n)
	for d := 0; d < n; d++ {
		if inGroup[d] {
			continue
		}
		group := []int{d}
		inGroup[d] = true
		for cand := d + 1; cand < n && len(group) < fanout; cand++ {
			if inGroup[cand] {
				continue
			}
			legal := true
			for _, m := range group {
				if conflicts(gi, cand, m) {
					legal = false
					break
				}
			}
			if legal {
				group = append(group, cand)
				inGroup[cand] = true
			}
		}
		g.Groups = append(g.Groups, Group{Devices: group, Level: levelFor(len(group))})
	}
	return g, nil
}
