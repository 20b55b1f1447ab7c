// Package fdm implements YOUTIAO's FDM control-line design (§4.2):
// noise-aware qubit grouping onto shared XY/readout lines, and the
// two-level coarse-grained frequency allocation that keeps both in-line
// and cross-line crosstalk low.
//
// Grouping treats the equivalent-distance matrix as a weighted
// "equivalent graph" and grows each FDM line greedily from its seed:
// at every step the ungrouped qubit with the minimum equivalent
// distance to any current member joins the line (the paper's 3-step
// flow in Figure 7a). Qubits that are close — physically or
// topologically — land on the same line because chip design naturally
// separates their frequencies.
package fdm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/chip"
)

// DistanceFunc returns the (symmetric) pairwise metric that grouping
// minimizes — normally the equivalent distance under the fitted
// crosstalk-model weights.
type DistanceFunc func(i, j int) float64

// CrosstalkFunc returns predicted crosstalk between two qubits —
// normally crosstalk.Predictor.Predict.
type CrosstalkFunc func(i, j int) float64

// Grouping assigns qubits to FDM lines.
type Grouping struct {
	// Groups holds the qubit ids on each FDM line.
	Groups [][]int
	// Capacity is the maximum number of qubits per line.
	Capacity int
}

// NumLines returns the number of FDM lines.
func (g *Grouping) NumLines() int { return len(g.Groups) }

// LineOf returns the line index carrying qubit q, or -1.
func (g *Grouping) LineOf(q int) int {
	for li, grp := range g.Groups {
		for _, m := range grp {
			if m == q {
				return li
			}
		}
	}
	return -1
}

// Validate checks that the grouping is a partition of [0, n) with no
// line above capacity.
func (g *Grouping) Validate(n int) error {
	seen := make([]bool, n)
	total := 0
	for li, grp := range g.Groups {
		if len(grp) > g.Capacity {
			return fmt.Errorf("fdm: line %d has %d qubits, capacity %d", li, len(grp), g.Capacity)
		}
		for _, q := range grp {
			if q < 0 || q >= n {
				return fmt.Errorf("fdm: line %d contains out-of-range qubit %d", li, q)
			}
			if seen[q] {
				return fmt.Errorf("fdm: qubit %d appears in more than one line", q)
			}
			seen[q] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("fdm: grouping covers %d of %d qubits", total, n)
	}
	return nil
}

// ValidateMembers checks that the grouping is a partition of exactly
// the given member set with no line above capacity — the fault-aware
// variant of Validate for designs where dead qubits are excluded and
// the grouping must cover the alive set, the whole alive set and
// nothing else.
func (g *Grouping) ValidateMembers(members []int) error {
	// state[q-lo] over the members' id span [lo, lo+len(state)):
	// 0 outside the set, 1 a member, 2 a member already grouped.
	lo, hi := 0, -1
	for i, q := range members {
		if i == 0 || q < lo {
			lo = q
		}
		if i == 0 || q > hi {
			hi = q
		}
	}
	state := make([]int8, hi-lo+1)
	for _, q := range members {
		if state[q-lo] != 0 {
			return fmt.Errorf("fdm: duplicate member %d in validation set", q)
		}
		state[q-lo] = 1
	}
	covered := 0
	for li, grp := range g.Groups {
		if len(grp) > g.Capacity {
			return fmt.Errorf("fdm: line %d has %d qubits, capacity %d", li, len(grp), g.Capacity)
		}
		for _, q := range grp {
			if q < lo || q > hi || state[q-lo] == 0 {
				return fmt.Errorf("fdm: line %d contains qubit %d outside the member set", li, q)
			}
			if state[q-lo] == 2 {
				return fmt.Errorf("fdm: qubit %d appears in more than one line", q)
			}
			state[q-lo] = 2
			covered++
		}
	}
	if covered != len(members) {
		return fmt.Errorf("fdm: grouping covers %d of %d members", covered, len(members))
	}
	return nil
}

// Group partitions the qubits in members into FDM lines of at most
// capacity qubits using the greedy frontier search over dist. The first
// seed is the first element of members; each subsequent line is seeded
// with the lowest-id remaining qubit, keeping the algorithm
// deterministic.
//
// Invalid input — an empty member list, a nil distance predictor, a
// negative qubit id or a duplicate — is reported as a descriptive
// error, never a panic or a silently empty grouping: a fault-degraded
// pipeline may legitimately shrink a region to nothing, and the caller
// must be able to tell that apart from a designed-empty line set.
func Group(members []int, capacity int, dist DistanceFunc) (*Grouping, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("fdm: capacity must be >= 1, got %d", capacity)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("fdm: empty member list (no qubits to group)")
	}
	if dist == nil {
		return nil, fmt.Errorf("fdm: nil distance predictor")
	}
	remaining := make(map[int]bool, len(members))
	order := append([]int(nil), members...)
	sort.Ints(order)
	for _, q := range order {
		if q < 0 {
			return nil, fmt.Errorf("fdm: negative qubit id %d", q)
		}
		if remaining[q] {
			return nil, fmt.Errorf("fdm: duplicate member %d", q)
		}
		remaining[q] = true
	}

	g := &Grouping{Capacity: capacity}
	for len(remaining) > 0 {
		// Seed: lowest remaining id.
		seed := -1
		for _, q := range order {
			if remaining[q] {
				seed = q
				break
			}
		}
		group := []int{seed}
		delete(remaining, seed)

		for len(group) < capacity && len(remaining) > 0 {
			// Frontier step: the ungrouped qubit with minimum distance
			// to any current member joins.
			best, bestD := -1, math.Inf(1)
			for _, q := range order {
				if !remaining[q] {
					continue
				}
				for _, m := range group {
					if d := dist(m, q); d < bestD {
						best, bestD = q, d
					}
				}
			}
			group = append(group, best)
			delete(remaining, best)
		}
		g.Groups = append(g.Groups, group)
	}
	return g, nil
}

// GroupChip groups every qubit of the chip.
func GroupChip(c *chip.Chip, capacity int, dist DistanceFunc) (*Grouping, error) {
	members := make([]int, c.NumQubits())
	for i := range members {
		members[i] = i
	}
	return Group(members, capacity, dist)
}

// LocalClusterGroup is the unoptimized baseline grouping: qubits are
// packed into lines in raster (id) order, the "chip-local clustering"
// the paper compares against. Nearby same-row qubits — which the chip
// designer gave similar frequencies — end up sharing lines.
func LocalClusterGroup(members []int, capacity int) *Grouping {
	order := append([]int(nil), members...)
	sort.Ints(order)
	g := &Grouping{Capacity: capacity}
	for start := 0; start < len(order); start += capacity {
		end := start + capacity
		if end > len(order) {
			end = len(order)
		}
		g.Groups = append(g.Groups, append([]int(nil), order[start:end]...))
	}
	return g
}
