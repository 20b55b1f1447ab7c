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
	ng := newNoiseGraph(gi, low, high, cfg)
	g.Groups = append(g.Groups, groupLevel(gi, low, 4, idx, cfg, ng)...)
	g.Groups = append(g.Groups, groupLevel(gi, high, 2, idx, cfg, ng)...)
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
// noise threshold (step 3). The noisy pairs come from each qubit's
// out-neighbours {b : xt(a,b) > NoiseThreshold}, listed once, in CSR
// form, over the qubits of the grouped devices' gates. That worst value
// starts at 0, so a negative threshold makes every local qubit an
// out-neighbour; NaN never compares '>'.
type noiseGraph struct {
	start []int32 // qubit a's out-neighbours are nbr[start[a]:start[a+1]]
	nbr   []int32
	seen  []int32 // seen[g] == stamp: gate g is counted for the current member gate
	stamp int32
}

func newNoiseGraph(gi *GateInfo, low, high []int, cfg Config) *noiseGraph {
	nq := gi.Dev.chip.NumQubits()
	ng := &noiseGraph{
		start: make([]int32, nq+1),
		seen:  make([]int32, len(gi.Gates)),
	}
	if cfg.Crosstalk == nil {
		return ng
	}
	local, qubits := make([]bool, nq), make([]int, 0, nq)
	for _, devs := range [2][]int{low, high} {
		for _, d := range devs {
			for _, g := range gi.GatesOf[d] {
				for _, q := range [2]int{gi.Gates[g].Q1, gi.Gates[g].Q2} {
					if !local[q] {
						local[q] = true
						qubits = append(qubits, q)
					}
				}
			}
		}
	}
	for a := 0; a < nq; a++ {
		if local[a] {
			for _, b := range qubits {
				if b != a && (cfg.NoiseThreshold < 0 || cfg.Crosstalk(a, b) > cfg.NoiseThreshold) {
					ng.nbr = append(ng.nbr, int32(b))
				}
			}
		}
		ng.start[a+1] = int32(len(ng.nbr))
	}
	return ng
}

// countNonParallel adds, for every device d, the number of (member
// gate, candidate gate) pairs between the given member gates and d's
// gates that can never execute simultaneously. A member gate's
// non-parallel gates are the gates on its qubits and on their
// out-neighbours; each is visited once, and adds one to each of its
// three devices. A member gate is not paired with itself.
func (ng *noiseGraph) countNonParallel(gi *GateInfo, gates []int, np []int) {
	for _, gm := range gates {
		ng.stamp++
		ng.seen[gm] = ng.stamp
		g := gi.Gates[gm]
		for _, a := range [2]int{g.Q1, g.Q2} {
			ng.visit(gi, gi.GatesOf[a], np)
			for _, b := range ng.nbr[ng.start[a]:ng.start[a+1]] {
				ng.visit(gi, gi.GatesOf[b], np)
			}
		}
	}
}

// visit counts each gate of gates not yet seen for the current member
// gate against its devices.
func (ng *noiseGraph) visit(gi *GateInfo, gates []int, np []int) {
	for _, gc := range gates {
		if ng.seen[gc] == ng.stamp {
			continue
		}
		ng.seen[gc] = ng.stamp
		for _, d := range gi.GateDevices(gc) {
			np[d]++
		}
	}
}

// groupLevel runs the greedy search over one parallelism level. A
// candidate is legal while it shares no gate with any member, and it
// is scored by the fraction of its (candidate gate, member gate) pairs
// that can never execute simultaneously; devices without gates are
// trivially non-parallel, and in surface-code mode any pair involving
// a qubit is free. Both are sums over the members, so they are carried
// per device and updated once when a member joins, sparsely: the
// member's gates make their devices illegal, every legal candidate
// gains |G(m)|·|G(cand)| pairs, and ng counts the non-parallel ones
// from the member's side.
func groupLevel(gi *GateInfo, devs []int, capacity int, idx []float64, cfg Config, ng *noiseGraph) []Group {
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
			// GatesOf is the inverse of GateDevices, so these are
			// exactly the devices that conflict with m.
			gates := gi.GatesOf[m]
			for _, g := range gates {
				for _, d := range gi.GateDevices(g) {
					legal[d] = false
				}
			}
			if cfg.SparseQubitZ && !gi.Dev.IsCoupler(m) {
				return
			}
			for _, cand := range remaining {
				if inGroup[cand] || !legal[cand] || cfg.SparseQubitZ && !gi.Dev.IsCoupler(cand) {
					continue
				}
				pairs[cand] += len(gates) * len(gi.GatesOf[cand])
			}
			// In surface-code mode a qubit candidate's pairs stay 0, so
			// its fraction is 1 whatever np counts.
			ng.countNonParallel(gi, gates, np)
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
