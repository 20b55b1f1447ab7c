package tdm

import (
	"fmt"
	"math"
	"sort"
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
	if gi == nil {
		return nil, fmt.Errorf("tdm: nil gate tables")
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("tdm: empty device list (no devices to group)")
	}
	seen := make(map[int]bool, len(devices))
	for _, d := range devices {
		if d < 0 || d >= gi.Dev.Count() {
			return nil, fmt.Errorf("tdm: device %d out of range [0,%d)", d, gi.Dev.Count())
		}
		if seen[d] {
			return nil, fmt.Errorf("tdm: duplicate device %d", d)
		}
		seen[d] = true
	}
	idx := gi.AllParallelismIndices()

	var low, high, isolated []int
	for _, d := range devices {
		switch {
		case cfg.Isolate != nil && cfg.Isolate(d):
			isolated = append(isolated, d)
		case idx[d] <= cfg.Theta:
			low = append(low, d)
		default:
			high = append(high, d)
		}
	}

	g := &Grouping{Theta: cfg.Theta}
	memo := newGateVerdicts(gi, devices)
	g.Groups = append(g.Groups, groupLevel(gi, low, 4, idx, cfg, memo)...)
	g.Groups = append(g.Groups, groupLevel(gi, high, 2, idx, cfg, memo)...)
	// Stuck-lossy devices close the plan as dedicated direct lines, in
	// id order for determinism.
	sort.Ints(isolated)
	for _, d := range isolated {
		g.Groups = append(g.Groups, Group{Devices: []int{d}, Level: DemuxNone})
	}
	return g, nil
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

// nonParallelFraction returns the fraction of (candidate gate, member
// gate) pairs that can never execute simultaneously — either
// topologically (they share a qubit, step 2 of the grouping) or noisily
// (their predicted mutual crosstalk exceeds the threshold, step 3). A
// fraction of 1 means grouping the candidate costs no parallelism at
// all; devices without gates are trivially non-parallel.
func nonParallelFraction(gi *GateInfo, group []int, cand int, cfg Config) float64 {
	pairs, np := 0, 0
	for _, m := range group {
		p, q := pairCounts(gi, m, cand, cfg, nil)
		pairs += p
		np += q
	}
	return fraction(pairs, np)
}

// pairCounts returns nonParallelFraction's counts for the single
// member m: the (candidate gate, member gate) pairs, and how many of
// them can never execute simultaneously. memo, when non-nil, recalls
// each gate pair's verdict instead of recomputing it.
func pairCounts(gi *GateInfo, m, cand int, cfg Config, memo *gateVerdicts) (pairs, np int) {
	if cfg.SparseQubitZ && (!gi.Dev.IsCoupler(cand) || !gi.Dev.IsCoupler(m)) {
		// Surface-code mode: any pair involving a qubit is free.
		return 0, 0
	}
	for _, gc := range gi.GatesOf[cand] {
		for _, gm := range gi.GatesOf[m] {
			if gm == gc {
				continue
			}
			pairs++
			if memo.nonParallel(gi, gm, gc, cfg) {
				np++
			}
		}
	}
	return pairs, np
}

// nonParallelGates reports whether member gate gm and candidate gate
// gc can never execute simultaneously: topologically (they share a
// qubit) or noisily (their predicted crosstalk exceeds the threshold).
func nonParallelGates(gi *GateInfo, gm, gc int, cfg Config) bool {
	return gatesShareQubit(gi, gm, gc) ||
		cfg.Crosstalk != nil && gateCrosstalk(gi, gm, gc, cfg.Crosstalk) > cfg.NoiseThreshold
}

// gateVerdicts memoizes nonParallelGates over the gates of one
// GroupDevices call's devices. Neither Theta nor the growing group
// changes a gate pair's verdict, so one lazily filled table serves
// every join of both levels.
type gateVerdicts struct {
	local []int32 // local[g]: 1 + gate g's row in v, or 0 for a gate of no grouped device
	n     int
	v     []int8 // v[a*n+b]: verdictUnknown, verdictParallel or verdictNonParallel
}

const (
	verdictUnknown int8 = iota
	verdictParallel
	verdictNonParallel
)

func newGateVerdicts(gi *GateInfo, devices []int) *gateVerdicts {
	vs := &gateVerdicts{local: make([]int32, len(gi.Gates))}
	for _, d := range devices {
		for _, g := range gi.GatesOf[d] {
			if vs.local[g] == 0 {
				vs.n++
				vs.local[g] = int32(vs.n)
			}
		}
	}
	vs.v = make([]int8, vs.n*vs.n)
	return vs
}

// nonParallel is nonParallelGates(gi, gm, gc, cfg), computed once per
// gate pair; a nil memo computes it every time.
func (vs *gateVerdicts) nonParallel(gi *GateInfo, gm, gc int, cfg Config) bool {
	if vs == nil {
		return nonParallelGates(gi, gm, gc, cfg)
	}
	v := &vs.v[int(vs.local[gm]-1)*vs.n+int(vs.local[gc]-1)]
	if *v == verdictUnknown {
		*v = verdictParallel
		if nonParallelGates(gi, gm, gc, cfg) {
			*v = verdictNonParallel
		}
	}
	return *v == verdictNonParallel
}

// fraction is np/pairs, or 1 when there are no pairs.
func fraction(pairs, np int) float64 {
	if pairs == 0 {
		return 1
	}
	return float64(np) / float64(pairs)
}

func gatesShareQubit(gi *GateInfo, a, b int) bool {
	return sharesQubit(gi.Gates[a], gi.Gates[b])
}

// gateCrosstalk is the worst pairwise qubit crosstalk across two gates.
func gateCrosstalk(gi *GateInfo, a, b int, xt CrosstalkFunc) float64 {
	ga, gb := gi.Gates[a], gi.Gates[b]
	max := 0.0
	for _, qa := range [2]int{ga.Q1, ga.Q2} {
		for _, qb := range [2]int{gb.Q1, gb.Q2} {
			if v := xt(qa, qb); v > max {
				max = v
			}
		}
	}
	return max
}

// groupLevel runs the greedy search over one parallelism level. A
// candidate's legality and its nonParallelFraction counts against the
// growing group are sums over the members, so they are carried per
// device and updated once when a member joins instead of being
// recomputed over the whole group at every growth step; the integer
// counts, and so every fraction, are the same.
func groupLevel(gi *GateInfo, devs []int, capacity int, idx []float64, cfg Config, memo *gateVerdicts) []Group {
	remaining := sortedByIndex(devs, idx)
	n := gi.Dev.Count()
	inGroup := make([]bool, n)
	legal := make([]bool, n)
	pairs, np := make([]int, n), make([]int, n)
	var groups []Group

	for len(remaining) > 0 {
		for _, d := range remaining {
			legal[d], pairs[d], np[d] = true, 0, 0
		}
		var group []int
		var sumIdx float64
		join := func(m int) {
			group = append(group, m)
			inGroup[m] = true
			sumIdx += idx[m]
			if len(group) == capacity {
				return
			}
			for _, cand := range remaining {
				if inGroup[cand] || !legal[cand] {
					continue
				}
				if conflicts(gi, cand, m) {
					legal[cand] = false
					continue
				}
				p, q := pairCounts(gi, m, cand, cfg, memo)
				pairs[cand] += p
				np[cand] += q
			}
		}
		// Step 1: seed with the lowest-parallelism device.
		join(remaining[0])
		lossy := 0

		for len(group) < capacity {
			best, bestKey := -1, math.Inf(-1)
			bestStrict := false
			meanIdx := sumIdx / float64(len(group))

			for _, cand := range remaining {
				if inGroup[cand] || !legal[cand] {
					continue
				}
				// Steps 2 and 3: devices fully non-parallel to the
				// group (every gate pair topologically or noisily
				// non-coexistent) join for free. Partially-parallel
				// devices are "lossy": each one risks serializing
				// gates, so admission is bounded by LossyLimit and
				// MinLossyFraction, and the balancing rule (closest
				// parallelism index) breaks ties.
				frac := fraction(pairs[cand], np[cand])
				strict := frac >= 0.999
				if !strict {
					if lossy >= cfg.LossyLimit || frac < cfg.MinLossyFraction {
						continue
					}
				}
				key := frac*1e6 - math.Abs(idx[cand]-meanIdx)
				if key > bestKey {
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

		groups = append(groups, Group{Devices: group, Level: levelFor(len(group))})
		// Compact the remaining list.
		next := remaining[:0]
		for _, d := range remaining {
			if !inGroup[d] {
				next = append(next, d)
			}
		}
		remaining = next
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Devices[0] < groups[b].Devices[0] })
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
