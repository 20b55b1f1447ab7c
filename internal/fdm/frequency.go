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
//
// Every objective is a sum of pairCost terms xt·leakage(Δf). The
// crosstalk factors and the leakage factors that repeat are read from
// tables built once per group, and each sum adds the same products in
// the same order as evaluating pairCost term by term, so the plan is
// bit-identical to that evaluation; xt is called once per (member,
// assigned qubit) pair instead of once per cell and candidate swap.
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
	n, width := 0, 0 // qubits, and the widest group
	for _, group := range g.Groups {
		if len(group) > zones {
			return nil, fmt.Errorf("fdm: group of %d exceeds %d zones", len(group), zones)
		}
		n += len(group)
		width = max(width, len(group))
	}

	plan := &FrequencyPlan{
		Zones:        zones,
		CellsPerZone: cellsPerZone,
		Freq:         make(map[int]float64, n),
		Cell:         make(map[int]CellRef, n),
	}
	// A group's zones are a permutation of [0, len(group)), so the
	// tables span width zones. All scratch is sized here, once.
	// centre[z] is zone z's centre, the frequency the swap search
	// scores a member at; leakIn[za*width+zb] is the leakage between
	// the centres of zones za and zb.
	centre := make([]float64, width)
	for z := range centre {
		lo, _ := ZoneBounds(zones, z)
		centre[z] = lo + (hi0-lo0)/2
	}
	leakIn := make([]float64, width*width)
	for za := range centre {
		for zb := range centre {
			leakIn[za*width+zb] = leakage(centre[za] - centre[zb])
		}
	}
	// assigned lists the placed qubits in placement order and freq
	// their frequencies: freq[k] is always plan.Freq[assigned[k]].
	// used[z*cellsPerZone+cell] marks an occupied cell.
	assigned, freq := make([]int, 0, n), make([]float64, 0, n)
	used := make([]bool, zones*cellsPerZone)
	// Per group of m members placed after k0 qubits: xrow[a*n+k] is
	// xt(group[a], assigned[k]) for every qubit placed before member a,
	// xin[a*width+b] is xt(group[a], group[b]) for a < b, and
	// leakX[z*n+k] (k < k0) is the leakage between zone z's centre and
	// freq[k].
	xrow := make([]float64, width*n)
	xin := make([]float64, width*width)
	leakX := make([]float64, width*n)
	zoneOf := make([]int, width)

	// cellFor picks the cell for qubit q in zone z, given xq[k] =
	// xt(q, assigned[k]): among free cells, the one minimizing the
	// leakage-weighted predicted crosstalk against every qubit already
	// assigned (anywhere — cells near a zone border are spectrally
	// close to the next zone's cells). Under crowding, occupied cells
	// compete too, and the cheapest reuse wins.
	cellFor := func(xq []float64, z int) (int, bool) {
		bestFree, bestFreeCost := -1, math.Inf(1)
		bestAny, bestAnyCost := 0, math.Inf(1)
		lo, _ := ZoneBounds(zones, z)
		for cell := 0; cell < cellsPerZone; cell++ {
			f := lo + (float64(cell)+0.5)*CellWidthGHz // CellFreq
			var cost float64
			for k, x := range xq {
				cost += x * leakage(f-freq[k])
			}
			free := !used[z*cellsPerZone+cell]
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

	for _, group := range g.Groups {
		m, k0 := len(group), len(assigned)
		for a, q := range group {
			row := xrow[a*n : a*n+k0]
			for k, o := range assigned {
				row[k] = xt(q, o)
			}
			for b := a + 1; b < m; b++ {
				xin[a*width+b] = xt(q, group[b])
			}
		}
		for z := 0; z < m; z++ {
			for k, f := range freq {
				leakX[z*n+k] = leakage(centre[z] - f)
			}
		}
		// groupCost scores the group's current zone permutation given
		// everything already assigned: per member, its in-line terms,
		// then its cross-line terms.
		groupCost := func() float64 {
			var cost float64
			for a := 0; a < m; a++ {
				za := zoneOf[a]
				// In-line: members of the same group share a physical
				// line, so their mutual leakage always counts.
				for b := a + 1; b < m; b++ {
					cost += xin[a*width+b] * leakIn[za*width+zoneOf[b]]
				}
				if opts.CrossLine {
					leak := leakX[za*n : za*n+k0]
					for k, x := range xrow[a*n : a*n+k0] {
						cost += x * leak[k]
					}
				}
			}
			return cost
		}
		// Initial zone assignment by position in the group.
		for i := 0; i < m; i++ {
			zoneOf[i] = i
		}
		// Local search: swap zone assignments within the group while it
		// improves the objective (constraint 3 / the q4<->q6 swap). The
		// cost of the current permutation is carried between candidate
		// swaps rather than re-scored: a rejected swap is undone, so
		// scoring it again would yield the same value.
		if opts.SwapPasses > 0 && m > 1 {
			cost := groupCost()
			for pass := 0; pass < opts.SwapPasses; pass++ {
				improved := false
				for a := 0; a < m; a++ {
					for b := a + 1; b < m; b++ {
						zoneOf[a], zoneOf[b] = zoneOf[b], zoneOf[a]
						if c := groupCost(); c < cost {
							cost, improved = c, true
						} else {
							zoneOf[a], zoneOf[b] = zoneOf[b], zoneOf[a]
						}
					}
				}
				if !improved {
					break
				}
			}
		}
		// Commit: pick cells and final frequencies. Member a's row
		// gains the members placed before it.
		for a, q := range group {
			row := xrow[a*n : a*n+len(assigned)]
			for k := k0; k < len(row); k++ {
				row[k] = xt(q, assigned[k])
			}
			z := zoneOf[a]
			cell, reused := cellFor(row, z)
			if reused {
				plan.Reused++
			}
			used[z*cellsPerZone+cell] = true
			ref := CellRef{Zone: z, Cell: cell}
			f := CellFreq(zones, ref)
			if _, again := plan.Freq[q]; again {
				// A qubit listed twice is read at its latest frequency.
				for k, o := range assigned {
					if o == q {
						freq[k] = f
					}
				}
			}
			plan.Cell[q] = ref
			plan.Freq[q] = f
			assigned, freq = append(assigned, q), append(freq, f)
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
