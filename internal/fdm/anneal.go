package fdm

import (
	"fmt"
	"math"
	"math/rand"
)

// AnnealOptions tune the simulated-annealing refinement of a frequency
// plan.
type AnnealOptions struct {
	// Steps is the number of proposed moves.
	Steps int
	// StartTemp and EndTemp bound the geometric cooling schedule, in
	// units of the crosstalk objective.
	StartTemp, EndTemp float64
	// Seed drives the proposal sequence.
	Seed int64
	// FullScan forces the historical O(n) full-pair delta scan. The
	// default (false) restricts each qubit's objective scan to its
	// sparse neighbor list — the qubits whose crosstalk coefficient is
	// nonzero — which is bit-identical (a zero-coefficient pair
	// contributes exactly +0.0 to every sum) and O(deg) per delta.
	// FullScan exists as the reference path for equivalence checks
	// (hypothesis H7); production callers leave it false.
	FullScan bool
}

// DefaultAnnealOptions is a short refinement suitable after the greedy
// allocation.
func DefaultAnnealOptions() AnnealOptions {
	return AnnealOptions{Steps: 4000, StartTemp: 1e-3, EndTemp: 1e-7, Seed: 1}
}

// Anneal refines a frequency plan in place by simulated annealing over
// two move kinds, always preserving the two-level invariants (group
// members stay in distinct zones):
//
//   - retune: move one qubit to a different cell of its zone;
//   - swap: exchange the zone assignments of two qubits on the same
//     line (re-picking cells in the new zones).
//
// The objective is the plan's leakage-weighted predicted crosstalk. It
// returns the refined plan (a copy; the input is unmodified) and the
// objective before and after.
func Anneal(plan *FrequencyPlan, g *Grouping, xt CrosstalkFunc, opts AnnealOptions) (*FrequencyPlan, float64, float64, error) {
	if opts.Steps < 0 {
		return nil, 0, 0, fmt.Errorf("fdm: negative step count %d", opts.Steps)
	}
	if opts.StartTemp <= 0 || opts.EndTemp <= 0 || opts.EndTemp > opts.StartTemp {
		return nil, 0, 0, fmt.Errorf("fdm: invalid temperature range [%g, %g]", opts.EndTemp, opts.StartTemp)
	}
	cur := clonePlan(plan)
	if err := cur.Validate(g); err != nil {
		return nil, 0, 0, fmt.Errorf("fdm: anneal input: %w", err)
	}

	ids := make([]int, 0, len(cur.Freq))
	lineOf := make(map[int]int)
	for li, grp := range g.Groups {
		for _, q := range grp {
			ids = append(ids, q)
			lineOf[q] = li
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	before := cur.TotalCrosstalkCost(xt)
	cost := before

	// Sparse neighbor lists: for each qubit, the other qubits (in ids
	// order) whose crosstalk coefficient toward it is nonzero. A pair
	// with xt(q,o) == 0 contributes pairCost = 0·leakage = exactly
	// +0.0 to the objective sum, and x + 0.0 == x for every finite x
	// reachable here, so skipping those terms leaves each delta — and
	// therefore every accept decision and RNG draw — bit-identical to
	// the full scan. The lists share one flat arena.
	var nbrOf map[int][]int
	if !opts.FullScan {
		nbrOf = make(map[int][]int, len(ids))
		total := 0
		for _, q := range ids {
			for _, o := range ids {
				if o != q && xt(q, o) != 0 {
					total++
				}
			}
		}
		arena := make([]int, 0, total)
		for _, q := range ids {
			start := len(arena)
			for _, o := range ids {
				if o != q && xt(q, o) != 0 {
					arena = append(arena, o)
				}
			}
			nbrOf[q] = arena[start:len(arena):len(arena)]
		}
	}

	// qubitCost isolates the objective terms touching one qubit so
	// move deltas are O(deg) — O(n) under FullScan — instead of O(n²).
	qubitCost := func(p *FrequencyPlan, q int) float64 {
		var c float64
		fq := p.Freq[q]
		if opts.FullScan {
			for _, o := range ids {
				if o == q {
					continue
				}
				c += pairCost(xt, fq, p.Freq[o], q, o)
			}
			return c
		}
		for _, o := range nbrOf[q] {
			c += pairCost(xt, fq, p.Freq[o], q, o)
		}
		return c
	}

	cool := math.Pow(opts.EndTemp/opts.StartTemp, 1/math.Max(1, float64(opts.Steps)))
	temp := opts.StartTemp
	for step := 0; step < opts.Steps; step++ {
		q := ids[rng.Intn(len(ids))]
		oldRef := cur.Cell[q]
		oldFreq := cur.Freq[q]

		if rng.Float64() < 0.7 {
			// Retune within the zone.
			newCell := rng.Intn(cur.CellsPerZone)
			if newCell == oldRef.Cell {
				temp *= cool
				continue
			}
			delta := -qubitCost(cur, q)
			cur.Cell[q] = CellRef{Zone: oldRef.Zone, Cell: newCell}
			cur.Freq[q] = CellFreq(cur.Zones, cur.Cell[q])
			delta += qubitCost(cur, q)
			if !accept(delta, temp, rng) {
				cur.Cell[q] = oldRef
				cur.Freq[q] = oldFreq
			} else {
				cost += delta
			}
			temp *= cool
			continue
		}

		// Swap zones with a same-line partner.
		grp := g.Groups[lineOf[q]]
		if len(grp) < 2 {
			temp *= cool
			continue
		}
		p := grp[rng.Intn(len(grp))]
		if p == q {
			temp *= cool
			continue
		}
		oldRefP := cur.Cell[p]
		oldFreqP := cur.Freq[p]
		delta := -qubitCost(cur, q) - qubitCost(cur, p) + pairCost(xt, cur.Freq[q], cur.Freq[p], q, p)
		cur.Cell[q] = CellRef{Zone: oldRefP.Zone, Cell: oldRef.Cell % cur.CellsPerZone}
		cur.Cell[p] = CellRef{Zone: oldRef.Zone, Cell: oldRefP.Cell % cur.CellsPerZone}
		cur.Freq[q] = CellFreq(cur.Zones, cur.Cell[q])
		cur.Freq[p] = CellFreq(cur.Zones, cur.Cell[p])
		delta += qubitCost(cur, q) + qubitCost(cur, p) - pairCost(xt, cur.Freq[q], cur.Freq[p], q, p)
		if !accept(delta, temp, rng) {
			cur.Cell[q], cur.Cell[p] = oldRef, oldRefP
			cur.Freq[q], cur.Freq[p] = oldFreq, oldFreqP
		} else {
			cost += delta
		}
		temp *= cool
	}

	after := cur.TotalCrosstalkCost(xt)
	if err := cur.Validate(g); err != nil {
		return nil, 0, 0, fmt.Errorf("fdm: anneal broke invariants: %w", err)
	}
	return cur, before, after, nil
}

func accept(delta, temp float64, rng *rand.Rand) bool {
	if delta <= 0 {
		return true
	}
	return rng.Float64() < math.Exp(-delta/temp)
}

func clonePlan(p *FrequencyPlan) *FrequencyPlan {
	out := &FrequencyPlan{
		Zones:        p.Zones,
		CellsPerZone: p.CellsPerZone,
		Freq:         make(map[int]float64, len(p.Freq)),
		Cell:         make(map[int]CellRef, len(p.Cell)),
		Reused:       p.Reused,
	}
	for q, f := range p.Freq {
		out.Freq[q] = f
	}
	for q, c := range p.Cell {
		out.Cell[q] = c
	}
	return out
}
