// Package tdm implements YOUTIAO's TDM control design for Z lines
// (§4.3): the parallelism index over qubits and couplers, the
// threshold split into 1:2 / 1:4 cryo-DEMUX levels, and the 3-step
// greedy graph-coloring grouping that packs devices exhibiting natural
// non-parallelism — topological (gates that can never coexist because
// they share a qubit) and noisy (gates whose simultaneous execution the
// crosstalk model forbids) — onto shared DEMUXes.
//
// Devices are indexed uniformly: qubit q is device q, coupler c is
// device NumQubits + c.
package tdm

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/chip"
)

// DemuxLevel is the fan-out of a cryo-DEMUX.
type DemuxLevel int

const (
	// DemuxNone marks a dedicated (unmultiplexed) Z line.
	DemuxNone DemuxLevel = 1
	// Demux1to2 is a 1:2 cryo-DEMUX (1 digital control bit).
	Demux1to2 DemuxLevel = 2
	// Demux1to4 is a 1:4 cryo-DEMUX (2 digital control bits).
	Demux1to4 DemuxLevel = 4
)

// ControlBits returns the number of digital control lines the DEMUX
// needs (log2 of the fan-out).
func (l DemuxLevel) ControlBits() int {
	switch l {
	case DemuxNone:
		return 0
	case Demux1to2:
		return 1
	case Demux1to4:
		return 2
	default:
		panic(fmt.Sprintf("tdm: invalid DEMUX level %d", int(l)))
	}
}

// String implements fmt.Stringer.
func (l DemuxLevel) String() string {
	switch l {
	case DemuxNone:
		return "direct"
	case Demux1to2:
		return "1:2"
	case Demux1to4:
		return "1:4"
	default:
		return fmt.Sprintf("DemuxLevel(%d)", int(l))
	}
}

// Devices gives the uniform device indexing over a chip.
type Devices struct {
	chip *chip.Chip
}

// NewDevices wraps a chip with the device index space.
func NewDevices(c *chip.Chip) Devices { return Devices{chip: c} }

// Chip returns the wrapped chip (artifact codecs rebuild the index
// space from it).
func (d Devices) Chip() *chip.Chip { return d.chip }

// Count returns the total number of devices (qubits + couplers).
func (d Devices) Count() int { return d.chip.NumQubits() + d.chip.NumCouplers() }

// QubitDevice returns the device index of qubit q.
func (d Devices) QubitDevice(q int) int { return q }

// CouplerDevice returns the device index of coupler c.
func (d Devices) CouplerDevice(c int) int { return d.chip.NumQubits() + c }

// IsCoupler reports whether device dev is a coupler.
func (d Devices) IsCoupler(dev int) bool { return dev >= d.chip.NumQubits() }

// CouplerID returns the coupler id of a coupler device.
func (d Devices) CouplerID(dev int) int { return dev - d.chip.NumQubits() }

// Name returns a readable device name (q3 or c7).
func (d Devices) Name(dev int) string {
	return string(d.AppendName(nil, dev))
}

// AppendName appends the device's Name to dst and returns the result.
func (d Devices) AppendName(dst []byte, dev int) []byte {
	if d.IsCoupler(dev) {
		return strconv.AppendInt(append(dst, 'c'), int64(d.CouplerID(dev)), 10)
	}
	return strconv.AppendInt(append(dst, 'q'), int64(dev), 10)
}

// GateInfo is the static analysis of the chip's hardware 2q-gate sites
// that the parallelism index and grouping passes consume.
type GateInfo struct {
	Dev   Devices
	Gates []chip.TwoQubitGate
	// GatesOf[dev] lists gate indices that occupy the device.
	GatesOf [][]int
	// NonCoex[g] lists gate indices topologically non-coexistent with
	// gate g (they share a qubit, so can never run in the same layer).
	NonCoex [][]int
}

// AnalyzeGates builds the gate tables for a chip.
func AnalyzeGates(c *chip.Chip) *GateInfo {
	return AnalyzeGatesUsable(c, nil)
}

// AnalyzeGatesUsable builds the gate tables for a chip, keeping only
// the hardware gate sites for which usable returns true (nil keeps
// all). A fault-degraded pipeline passes a predicate that drops gates
// with a dead qubit or broken coupler, so the parallelism index and the
// non-parallelism structure reflect the gates the chip can actually
// run.
func AnalyzeGatesUsable(c *chip.Chip, usable func(chip.TwoQubitGate) bool) *GateInfo {
	dev := NewDevices(c)
	gates := c.TwoQubitGates()
	if usable != nil {
		kept := gates[:0] // the chip's gate list is a fresh copy
		for _, g := range gates {
			if usable(g) {
				kept = append(kept, g)
			}
		}
		gates = kept
	}
	// GatesOf and NonCoex are stored compressed: each table's lists are
	// consecutive blocks of one backing array, each capped at its
	// length, and an empty list is nil, so no two lists share a data
	// pointer. Both tables' headers share one array too, as do both
	// tables' entries.
	nd := dev.Count()
	start := make([]int, nd+1)
	for _, g := range gates {
		start[g.Q1+1]++
		start[g.Q2+1]++
		start[dev.CouplerDevice(g.Coupler)+1]++
	}
	for d := 0; d < nd; d++ {
		start[d+1] += start[d]
	}
	// The gates sharing a qubit with gate a are those on either of its
	// qubits, a itself excluded: at most |G(Q1)|+|G(Q2)|-2 of them.
	total := 0
	for _, g := range gates {
		total += start[g.Q1+1] - start[g.Q1] + start[g.Q2+1] - start[g.Q2] - 2
	}
	lists := make([][]int, nd+len(gates))
	gi := &GateInfo{
		Dev:     dev,
		Gates:   gates,
		GatesOf: lists[:nd:nd],
		NonCoex: lists[nd:],
	}
	entries := make([]int, start[nd]+total)
	of, co := entries[:start[nd]:start[nd]], entries[start[nd]:start[nd]]
	for idx, g := range gates {
		for _, d := range [3]int{g.Q1, g.Q2, dev.CouplerDevice(g.Coupler)} {
			of[start[d]] = idx
			start[d]++
		}
	}
	// start[d] now ends device d's block, which begins where d-1's ends.
	for d, lo := 0, 0; d < nd; d++ {
		if hi := start[d]; hi > lo {
			gi.GatesOf[d] = of[lo:hi:hi]
			lo = hi
		}
	}
	// A merge of the two ascending GatesOf lists, without repeats and
	// without a itself, lists the gates sharing a qubit with gate a in
	// ascending order.
	for a, g := range gates {
		p, q := gi.GatesOf[g.Q1], gi.GatesOf[g.Q2]
		lo := len(co)
		for len(p) > 0 || len(q) > 0 {
			var b int
			switch {
			case len(q) == 0 || len(p) > 0 && p[0] < q[0]:
				b, p = p[0], p[1:]
			case len(p) == 0 || q[0] < p[0]:
				b, q = q[0], q[1:]
			default:
				b, p, q = p[0], p[1:], q[1:]
			}
			if b != a {
				co = append(co, b)
			}
		}
		if hi := len(co); hi > lo {
			gi.NonCoex[a] = co[lo:hi:hi]
		}
	}
	return gi
}

// GateDevices returns the three devices a gate occupies.
func (gi *GateInfo) GateDevices(g int) [3]int {
	gate := gi.Gates[g]
	return [3]int{gate.Q1, gate.Q2, gi.Dev.CouplerDevice(gate.Coupler)}
}

// ParallelismIndex returns the paper's parallelism index for device dev:
// the mean, over gates occupying the device, of the number of
// topologically non-coexistent 2q gates, divided by the device's
// connectivity (always 1 for couplers). Devices that participate in no
// gate (isolated qubits) have index 0.
func (gi *GateInfo) ParallelismIndex(dev int) float64 {
	gates := gi.GatesOf[dev]
	if len(gates) == 0 {
		return 0
	}
	var total int
	for _, g := range gates {
		total += len(gi.NonCoex[g])
	}
	conn := 1
	if !gi.Dev.IsCoupler(dev) {
		conn = gi.Dev.chip.Degree(dev)
	}
	if conn == 0 {
		return 0
	}
	return float64(total) / float64(conn)
}

// AllParallelismIndices returns the index for every device.
func (gi *GateInfo) AllParallelismIndices() []float64 {
	out := make([]float64, gi.Dev.Count())
	for d := range out {
		out[d] = gi.ParallelismIndex(d)
	}
	return out
}

// Group is one TDM group: the devices wired to a single Z line, through
// a cryo-DEMUX when the group holds more than one device.
type Group struct {
	Devices []int
	// Level is the DEMUX hardware chosen for the group, derived from
	// its final size (1: direct line, 2: 1:2, 3-4: 1:4).
	Level DemuxLevel
}

// Grouping is a complete TDM plan for a chip (or a partition region).
// Once assembled (Groups no longer appended to), a Grouping is safe for
// concurrent readers: the GroupOf cache is built under a sync.Once.
type Grouping struct {
	Groups []Group
	// Theta is the parallelism threshold used.
	Theta float64
	// groupOf caches device -> group index, built once on first use.
	groupOfOnce sync.Once
	groupOf     map[int]int
}

// NumZLines returns the number of physical Z lines (= groups).
func (g *Grouping) NumZLines() int { return len(g.Groups) }

// ControlLines returns the total number of twisted-pair digital control
// lines needed by all DEMUXes.
func (g *Grouping) ControlLines() int {
	var n int
	for _, grp := range g.Groups {
		n += grp.Level.ControlBits()
	}
	return n
}

// GroupOf returns the group index holding device dev, or -1. It may be
// called from any number of goroutines; the lazy index is built exactly
// once. Do not mutate Groups after the first call.
func (g *Grouping) GroupOf(dev int) int {
	g.groupOfOnce.Do(func() {
		g.groupOf = make(map[int]int)
		for gi, grp := range g.Groups {
			for _, d := range grp.Devices {
				g.groupOf[d] = gi
			}
		}
	})
	if gi, ok := g.groupOf[dev]; ok {
		return gi
	}
	return -1
}

// LevelCounts returns how many groups use each DEMUX level.
func (g *Grouping) LevelCounts() map[DemuxLevel]int {
	m := make(map[DemuxLevel]int)
	for _, grp := range g.Groups {
		m[grp.Level]++
	}
	return m
}

// Validate checks the grouping invariants against the gate tables:
// every device appears exactly once, no group exceeds its level
// capacity, and — the Case 2 legality rule — no gate has two of its
// devices in the same group (which would make the gate unrealizable).
func (g *Grouping) Validate(gi *GateInfo) error {
	devices := make([]int, gi.Dev.Count())
	for i := range devices {
		devices[i] = i
	}
	return g.ValidateDevices(gi, devices)
}

// ValidateDevices checks the grouping invariants over exactly the given
// device set — the fault-aware variant of Validate for plans where dead
// qubits and broken couplers are excluded: coverage is required for
// every listed device and forbidden for every other (so a dead device
// in any group is an error).
func (g *Grouping) ValidateDevices(gi *GateInfo, devices []int) error {
	n := gi.Dev.Count()
	want := make([]bool, n)
	var beyond map[int]bool // listed devices outside [0, n), which no group may hold
	for _, d := range devices {
		if d >= 0 && d < n {
			if want[d] {
				return fmt.Errorf("tdm: duplicate device %d in validation set", d)
			}
			want[d] = true
			continue
		}
		if beyond[d] {
			return fmt.Errorf("tdm: duplicate device %d in validation set", d)
		}
		if beyond == nil {
			beyond = make(map[int]bool)
		}
		beyond[d] = true
	}
	seen := make([]int32, n) // seen[d]: 1 + the group holding d, or 0
	covered := 0
	for gid, grp := range g.Groups {
		if len(grp.Devices) == 0 {
			return fmt.Errorf("tdm: group %d is empty", gid)
		}
		if len(grp.Devices) > int(grp.Level) {
			return fmt.Errorf("tdm: group %d has %d devices, level %s", gid, len(grp.Devices), grp.Level)
		}
		for _, d := range grp.Devices {
			if d < 0 || d >= n {
				return fmt.Errorf("tdm: group %d has out-of-range device %d", gid, d)
			}
			if !want[d] {
				return fmt.Errorf("tdm: group %d contains device %s outside the device set", gid, gi.Dev.Name(d))
			}
			if seen[d] != 0 {
				return fmt.Errorf("tdm: device %s in groups %d and %d", gi.Dev.Name(d), seen[d]-1, gid)
			}
			seen[d] = int32(gid) + 1
			covered++
		}
	}
	if covered != len(devices) {
		return fmt.Errorf("tdm: grouping covers %d of %d devices", covered, len(devices))
	}
	for gIdx := range gi.Gates {
		devs := gi.GateDevices(gIdx)
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				// A gate device outside the validated set (e.g. a dead
				// qubit's coupler in a degraded design) has no group to
				// collide in.
				ga, gb := seen[devs[a]], seen[devs[b]]
				if ga != 0 && ga == gb {
					return fmt.Errorf("tdm: gate %d devices %s and %s share group %d (unrealizable 2q gate)",
						gIdx, gi.Dev.Name(devs[a]), gi.Dev.Name(devs[b]), ga-1)
				}
			}
		}
	}
	return nil
}

// levelFor derives the DEMUX hardware from the final group size.
func levelFor(size int) DemuxLevel {
	switch {
	case size <= 1:
		return DemuxNone
	case size == 2:
		return Demux1to2
	default:
		return Demux1to4
	}
}

// SortByIndex sorts device ids, in place, by ascending parallelism
// index, ties broken by id for determinism, and returns them; idx[d] is
// device d's index, as AllParallelismIndices lists it. It is the order
// GroupDevices searches each level in, and GroupSortedNoise's input order.
func SortByIndex(devices []int, idx []float64) []int {
	slices.SortFunc(devices, func(a, b int) int { return byIndex(idx, a, b) })
	return devices
}

// byIndex orders devices a and b by parallelism index, then by id.
func byIndex(idx []float64, a, b int) int {
	switch ia, ib := idx[a], idx[b]; {
	case ia < ib:
		return -1
	case ia > ib:
		return 1
	}
	return a - b
}
