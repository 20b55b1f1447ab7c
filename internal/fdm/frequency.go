package fdm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/chip"
)

// CellWidthGHz is the frequency-cell granularity (10 MHz).
const CellWidthGHz = 0.010

// CellRef identifies one frequency cell: zone index and cell index
// within the zone.
type CellRef struct {
	Zone, Cell int
}

// FrequencyPlan is the result of two-level frequency allocation: a
// frequency (GHz) and cell for every qubit.
type FrequencyPlan struct {
	Zones        int
	CellsPerZone int
	// Freq maps qubit id to assigned frequency (GHz).
	Freq map[int]float64
	// Cell maps qubit id to its cell.
	Cell map[int]CellRef
	// Reused counts qubits placed into already-occupied cells
	// (frequency reuse under crowding).
	Reused int
}

// ZoneBounds returns the [lo, hi) frequency range of zone z for a plan
// with the given zone count over the effective qubit range.
func ZoneBounds(zones, z int) (lo, hi float64) {
	width := (chip.FreqMax - chip.FreqMin) / float64(zones)
	lo = chip.FreqMin + float64(z)*width
	return lo, lo + width
}

// CellFreq returns the centre frequency of a cell.
func CellFreq(zones int, ref CellRef) float64 {
	lo, _ := ZoneBounds(zones, ref.Zone)
	return lo + (float64(ref.Cell)+0.5)*CellWidthGHz
}

// AllocOptions tune the allocation pass.
type AllocOptions struct {
	// SwapPasses bounds the within-group zone-swap local search.
	SwapPasses int
	// CrossLine enables the cross-line crosstalk term in the allocation
	// objective; disabling it reproduces the George et al. in-line-only
	// baseline.
	CrossLine bool
}

// DefaultAllocOptions is YOUTIAO's configuration.
func DefaultAllocOptions() AllocOptions {
	return AllocOptions{SwapPasses: 3, CrossLine: true}
}

// leakage is the residual coupling between two tones spaced df GHz
// apart on nearby hardware: a Lorentzian with the ~40 MHz bandwidth of
// a 25 ns pulse. Equal frequencies leak fully; one zone of spacing
// suppresses leakage well below the -30 dB target.
func leakage(df float64) float64 {
	const width = 0.04 // GHz
	return 1 / (1 + (df/width)*(df/width))
}

// pairCost scores the allocation interaction of two qubits: predicted
// hardware crosstalk scaled by the spectral leakage of their assigned
// tones.
func pairCost(xt CrosstalkFunc, fi, fj float64, i, j int) float64 {
	return xt(i, j) * leakage(fi-fj)
}

// Allocate performs the two-level coarse-grained frequency allocation
// (Figure 7b) for a grouping. Zones equal the line capacity; each group
// spreads its members across distinct zones, cells within a zone are
// kept distinct across groups while free cells remain, and a bounded
// local search swaps zone assignments within each group to reduce the
// crosstalk objective. When a zone's cells are exhausted, the new qubit
// reuses the occupied cell whose occupants have the lowest predicted
// crosstalk to it (frequency reuse, the crowding rule).
func Allocate(g *Grouping, xt CrosstalkFunc, opts AllocOptions) (*FrequencyPlan, error) {
	zones := g.Capacity
	if zones < 1 {
		return nil, fmt.Errorf("fdm: grouping has capacity %d", g.Capacity)
	}
	lo0, hi0 := ZoneBounds(zones, 0)
	cellsPerZone := int((hi0 - lo0) / CellWidthGHz)
	if cellsPerZone < 1 {
		return nil, fmt.Errorf("fdm: zone width %.3f GHz below cell width", hi0-lo0)
	}

	plan := &FrequencyPlan{
		Zones:        zones,
		CellsPerZone: cellsPerZone,
		Freq:         make(map[int]float64),
		Cell:         make(map[int]CellRef),
	}
	// occupants[zone][cell] lists qubits in the cell.
	occupants := make([][][]int, zones)
	for z := range occupants {
		occupants[z] = make([][]int, cellsPerZone)
	}
	var assigned []int

	// cellFor picks the cell for qubit q in zone z: among free cells,
	// the one minimizing the leakage-weighted predicted crosstalk
	// against every qubit already assigned (anywhere — cells near a
	// zone border are spectrally close to the next zone's cells). Under
	// crowding, occupied cells compete too, and the cheapest reuse
	// wins.
	cellFor := func(q, z int) (int, bool) {
		bestFree, bestFreeCost := -1, math.Inf(1)
		bestAny, bestAnyCost := 0, math.Inf(1)
		for cell := 0; cell < cellsPerZone; cell++ {
			f := CellFreq(zones, CellRef{Zone: z, Cell: cell})
			var cost float64
			for _, o := range assigned {
				cost += pairCost(xt, f, plan.Freq[o], q, o)
			}
			free := len(occupants[z][cell]) == 0
			if free && cost < bestFreeCost {
				bestFree, bestFreeCost = cell, cost
			}
			if cost < bestAnyCost {
				bestAny, bestAnyCost = cell, cost
			}
		}
		if bestFree >= 0 {
			return bestFree, false
		}
		return bestAny, true
	}

	// groupCost scores a candidate zone permutation for one group given
	// everything already assigned.
	groupCost := func(group []int, zoneOf []int) float64 {
		var cost float64
		freq := func(idx int) float64 {
			z := zoneOf[idx]
			lo, _ := ZoneBounds(zones, z)
			return lo + (hi0-lo0)/2
		}
		for a := 0; a < len(group); a++ {
			fa := freq(a)
			// In-line: members of the same group share a physical line,
			// so their mutual leakage always counts.
			for b := a + 1; b < len(group); b++ {
				cost += pairCost(xt, fa, freq(b), group[a], group[b])
			}
			if opts.CrossLine {
				for _, o := range assigned {
					cost += pairCost(xt, fa, plan.Freq[o], group[a], o)
				}
			}
		}
		return cost
	}

	for _, group := range g.Groups {
		if len(group) > zones {
			return nil, fmt.Errorf("fdm: group of %d exceeds %d zones", len(group), zones)
		}
		// Initial zone assignment by position in the group.
		zoneOf := make([]int, len(group))
		for i := range group {
			zoneOf[i] = i
		}
		// Local search: swap zone assignments within the group while it
		// improves the objective (constraint 3 / the q4<->q6 swap).
		for pass := 0; pass < opts.SwapPasses; pass++ {
			improved := false
			for a := 0; a < len(group); a++ {
				for b := a + 1; b < len(group); b++ {
					before := groupCost(group, zoneOf)
					zoneOf[a], zoneOf[b] = zoneOf[b], zoneOf[a]
					if groupCost(group, zoneOf) < before {
						improved = true
					} else {
						zoneOf[a], zoneOf[b] = zoneOf[b], zoneOf[a]
					}
				}
			}
			if !improved {
				break
			}
		}
		// Commit: pick cells and final frequencies.
		for i, q := range group {
			z := zoneOf[i]
			cell, reused := cellFor(q, z)
			if reused {
				plan.Reused++
			}
			occupants[z][cell] = append(occupants[z][cell], q)
			ref := CellRef{Zone: z, Cell: cell}
			plan.Cell[q] = ref
			plan.Freq[q] = CellFreq(zones, ref)
			assigned = append(assigned, q)
		}
	}
	return plan, nil
}

// Validate checks plan invariants: every qubit of the grouping has a
// frequency inside its zone, group members occupy distinct zones, and
// cell bookkeeping matches frequencies.
func (p *FrequencyPlan) Validate(g *Grouping) error {
	// zones[i] is the zone of the line's i-th qubit; a line holds few
	// qubits, so a scan finds a shared zone.
	var buf [8]int
	zones := buf[:0]
	for li, group := range g.Groups {
		zones = zones[:0]
		for _, q := range group {
			ref, ok := p.Cell[q]
			if !ok {
				return fmt.Errorf("fdm: qubit %d (line %d) has no cell", q, li)
			}
			if j := slices.Index(zones, ref.Zone); j >= 0 {
				return fmt.Errorf("fdm: line %d qubits %d and %d share zone %d", li, group[j], q, ref.Zone)
			}
			zones = append(zones, ref.Zone)
			f, ok := p.Freq[q]
			if !ok {
				return fmt.Errorf("fdm: qubit %d has no frequency", q)
			}
			lo, hi := ZoneBounds(p.Zones, ref.Zone)
			if f < lo || f >= hi {
				return fmt.Errorf("fdm: qubit %d frequency %.4f outside zone %d [%.3f,%.3f)", q, f, ref.Zone, lo, hi)
			}
			if want := CellFreq(p.Zones, ref); math.Abs(f-want) > 1e-9 {
				return fmt.Errorf("fdm: qubit %d frequency %.6f does not match cell centre %.6f", q, f, want)
			}
		}
	}
	return nil
}

// InLineAllocate is the George et al. baseline: each line spreads its
// qubits evenly over the band (one per zone) with a per-line comb
// offset of one cell — in-line separation is excellent, but no
// cross-line crosstalk model guides the choice.
func InLineAllocate(g *Grouping) *FrequencyPlan {
	plan := &FrequencyPlan{
		Zones:        g.Capacity,
		CellsPerZone: int((chip.FreqMax - chip.FreqMin) / float64(g.Capacity) / CellWidthGHz),
		Freq:         make(map[int]float64),
		Cell:         make(map[int]CellRef),
	}
	for li, group := range g.Groups {
		for i, q := range group {
			ref := CellRef{Zone: i % g.Capacity, Cell: li % plan.CellsPerZone}
			plan.Cell[q] = ref
			plan.Freq[q] = CellFreq(g.Capacity, ref)
		}
	}
	return plan
}

// TotalCrosstalkCost scores a full plan: the sum of leakage-weighted
// predicted crosstalk over all assigned pairs. Lower is better; the
// experiments use it to compare allocation strategies.
func (p *FrequencyPlan) TotalCrosstalkCost(xt CrosstalkFunc) float64 {
	ids := make([]int, 0, len(p.Freq))
	for q := range p.Freq {
		ids = append(ids, q)
	}
	sort.Ints(ids) // deterministic summation order
	var cost float64
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			i, j := ids[a], ids[b]
			cost += pairCost(xt, p.Freq[i], p.Freq[j], i, j)
		}
	}
	return cost
}
