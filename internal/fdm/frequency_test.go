package fdm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chip"
)

// flatXT is a distance-free crosstalk stub.
func flatXT(i, j int) float64 {
	if i == j {
		return 0
	}
	return 1e-3
}

// lineXT decays with id distance, mimicking a 1-D chip.
func lineXT(i, j int) float64 {
	if i == j {
		return 0
	}
	d := math.Abs(float64(i - j))
	return 0.02 * math.Exp(-d)
}

func TestZoneBoundsPartitionBand(t *testing.T) {
	for _, zones := range []int{1, 2, 3, 4, 5} {
		prevHi := chip.FreqMin
		for z := 0; z < zones; z++ {
			lo, hi := ZoneBounds(zones, z)
			if math.Abs(lo-prevHi) > 1e-12 {
				t.Errorf("zones=%d z=%d: lo %v != previous hi %v", zones, z, lo, prevHi)
			}
			if hi <= lo {
				t.Errorf("zones=%d z=%d: empty zone", zones, z)
			}
			prevHi = hi
		}
		if math.Abs(prevHi-chip.FreqMax) > 1e-12 {
			t.Errorf("zones=%d: band ends at %v, want %v", zones, prevHi, chip.FreqMax)
		}
	}
}

func TestCellFreqInsideZone(t *testing.T) {
	for z := 0; z < 3; z++ {
		for cell := 0; cell < 10; cell++ {
			f := CellFreq(3, CellRef{Zone: z, Cell: cell})
			lo, hi := ZoneBounds(3, z)
			if f < lo || f >= hi {
				t.Errorf("cell (%d,%d) frequency %v outside zone [%v,%v)", z, cell, f, lo, hi)
			}
		}
	}
}

func TestAllocateValid(t *testing.T) {
	g, err := Group(members(12), 3, euclid)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(g, lineXT, DefaultAllocOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(g); err != nil {
		t.Error(err)
	}
	if plan.Reused != 0 {
		t.Errorf("no crowding expected, got %d reuses", plan.Reused)
	}
	if len(plan.Freq) != 12 {
		t.Errorf("got %d frequencies, want 12", len(plan.Freq))
	}
}

func TestAllocateSeparatesGroupMembers(t *testing.T) {
	g, err := Group(members(9), 3, euclid)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(g, lineXT, DefaultAllocOptions())
	if err != nil {
		t.Fatal(err)
	}
	for li, grp := range g.Groups {
		for a := 0; a < len(grp); a++ {
			for b := a + 1; b < len(grp); b++ {
				qa, qb := grp[a], grp[b]
				if plan.Cell[qa].Zone == plan.Cell[qb].Zone {
					t.Errorf("line %d: members q%d and q%d share zone %d", li, qa, qb, plan.Cell[qa].Zone)
				}
				df := math.Abs(plan.Freq[qa] - plan.Freq[qb])
				if l := leakage(df); l > 0.05 {
					t.Errorf("line %d: in-line pair (%d,%d) spacing %.3f GHz leaks %.1f%%",
						li, qa, qb, df, 100*l)
				}
			}
		}
	}
}

func TestAllocateRejectsOversizedGroup(t *testing.T) {
	g := &Grouping{Capacity: 2, Groups: [][]int{{0, 1, 2}}}
	if _, err := Allocate(g, flatXT, DefaultAllocOptions()); err == nil {
		t.Error("group larger than zones accepted")
	}
	g = &Grouping{Capacity: 0}
	if _, err := Allocate(g, flatXT, DefaultAllocOptions()); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestAllocateAvoidsOccupiedCells(t *testing.T) {
	// 30 qubits in groups of 3: 10 qubits per zone, plenty of cells, so
	// no two qubits should share a cell.
	g, err := Group(members(30), 3, euclid)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Allocate(g, lineXT, DefaultAllocOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[CellRef][]int)
	for q, ref := range plan.Cell {
		seen[ref] = append(seen[ref], q)
	}
	for ref, qs := range seen {
		if len(qs) > 1 {
			t.Errorf("cell %+v shared by %v without crowding", ref, qs)
		}
	}
}

func TestAllocateFrequencyReuseUnderCrowding(t *testing.T) {
	// Capacity 1 -> a single zone spanning the whole band. With more
	// qubits than cells, reuse must kick in (and be counted).
	n := int((chip.FreqMax-chip.FreqMin)/CellWidthGHz) + 10
	var ids []int
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	g := &Grouping{Capacity: 1}
	for _, q := range ids {
		g.Groups = append(g.Groups, []int{q})
	}
	plan, err := Allocate(g, flatXT, DefaultAllocOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reused < 10 {
		t.Errorf("expected >= 10 reuses, got %d", plan.Reused)
	}
	if err := plan.Validate(g); err != nil {
		t.Error(err)
	}
}

func TestAllocateLowersCostVersusInLine(t *testing.T) {
	// On a 1-D chip with decaying crosstalk, the crosstalk-aware
	// allocation must beat the George-style in-line comb.
	g, err := Group(members(20), 4, euclid)
	if err != nil {
		t.Fatal(err)
	}
	smart, err := Allocate(g, lineXT, DefaultAllocOptions())
	if err != nil {
		t.Fatal(err)
	}
	naive := InLineAllocate(g)
	cs, cn := smart.TotalCrosstalkCost(lineXT), naive.TotalCrosstalkCost(lineXT)
	if cs > cn {
		t.Errorf("smart allocation cost %.4g exceeds in-line cost %.4g", cs, cn)
	}
}

func TestInLineAllocateSpacing(t *testing.T) {
	g := LocalClusterGroup(members(12), 4)
	plan := InLineAllocate(g)
	zoneWidth := (chip.FreqMax - chip.FreqMin) / 4
	for li, grp := range g.Groups {
		for a := 0; a < len(grp); a++ {
			for b := a + 1; b < len(grp); b++ {
				df := math.Abs(plan.Freq[grp[a]] - plan.Freq[grp[b]])
				if df < zoneWidth-1e-9 {
					t.Errorf("line %d in-line spacing %.3f below a zone width", li, df)
				}
			}
		}
	}
}

func TestValidatePlanCatchesZoneSharing(t *testing.T) {
	g := &Grouping{Capacity: 2, Groups: [][]int{{0, 1}}}
	plan := &FrequencyPlan{
		Zones:        2,
		CellsPerZone: 10,
		Freq: map[int]float64{
			0: CellFreq(2, CellRef{0, 0}),
			1: CellFreq(2, CellRef{0, 1}),
		},
		Cell: map[int]CellRef{0: {0, 0}, 1: {0, 1}},
	}
	if plan.Validate(g) == nil {
		t.Error("same-zone group members accepted")
	}
	// The error names the first member holding the shared zone.
	g.Capacity, g.Groups = 3, [][]int{{0, 1, 2}}
	plan.Zones = 3
	for q, ref := range []CellRef{{0, 0}, {1, 0}, {0, 2}} {
		plan.Cell[q], plan.Freq[q] = ref, CellFreq(3, ref)
	}
	if err, want := plan.Validate(g), "fdm: line 0 qubits 0 and 2 share zone 0"; err == nil || err.Error() != want {
		t.Errorf("Validate = %v, want %q", err, want)
	}
}

func TestValidatePlanCatchesMissingAssignments(t *testing.T) {
	g := &Grouping{Capacity: 2, Groups: [][]int{{0}}}
	plan := &FrequencyPlan{Zones: 2, CellsPerZone: 10, Freq: map[int]float64{}, Cell: map[int]CellRef{}}
	if plan.Validate(g) == nil {
		t.Error("missing cell assignment accepted")
	}
}

func TestLeakageMonotone(t *testing.T) {
	prev := leakage(0)
	if prev != 1 {
		t.Errorf("leakage(0) = %v, want 1", prev)
	}
	for df := 0.01; df < 2; df += 0.01 {
		l := leakage(df)
		if l > prev {
			t.Fatalf("leakage not monotone at %v", df)
		}
		prev = l
	}
	if l := leakage(0.75); l > 1e-2 {
		t.Errorf("one-zone spacing leaks %.3g, want < 1%%", l)
	}
	if leakage(0.3) != leakage(-0.3) {
		t.Error("leakage should be even in detuning")
	}
}

func TestDeterministicAllocation(t *testing.T) {
	g, err := Group(members(15), 3, euclid)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := Allocate(g, lineXT, DefaultAllocOptions())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Allocate(g, lineXT, DefaultAllocOptions())
	if err != nil {
		t.Fatal(err)
	}
	for q, f := range p1.Freq {
		if p2.Freq[q] != f {
			t.Fatalf("allocation not deterministic at q%d", q)
		}
	}
}

func TestAllocateRandomizedGroupings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(25)
		cap := 2 + rng.Intn(4)
		g, err := Group(members(n), cap, func(i, j int) float64 {
			return math.Abs(float64(i-j)) + 0.1*rng.Float64()
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Allocate(g, lineXT, DefaultAllocOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := plan.Validate(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// allocateReference is Allocate evaluated term by term, as it was
// before its tables: every objective calls pairCost, reading xt and
// plan.Freq at each use. Allocate must reproduce its plans bit for bit.
func allocateReference(g *Grouping, xt CrosstalkFunc, opts AllocOptions) (*FrequencyPlan, error) {
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

// planDiff describes the first difference between two plans, comparing
// frequencies by their bits, or returns "" when they are identical.
func planDiff(got, want *FrequencyPlan) string {
	if got.Zones != want.Zones || got.CellsPerZone != want.CellsPerZone || got.Reused != want.Reused {
		return fmt.Sprintf("zones/cells/reused %d/%d/%d, want %d/%d/%d",
			got.Zones, got.CellsPerZone, got.Reused, want.Zones, want.CellsPerZone, want.Reused)
	}
	if len(got.Freq) != len(want.Freq) || len(got.Cell) != len(want.Cell) {
		return fmt.Sprintf("%d frequencies and %d cells, want %d and %d", len(got.Freq), len(got.Cell), len(want.Freq), len(want.Cell))
	}
	for q, f := range want.Freq {
		if g, ok := got.Freq[q]; !ok || math.Float64bits(g) != math.Float64bits(f) {
			return fmt.Sprintf("q%d frequency %v, want %v", q, g, f)
		}
		if got.Cell[q] != want.Cell[q] {
			return fmt.Sprintf("q%d cell %+v, want %+v", q, got.Cell[q], want.Cell[q])
		}
	}
	return ""
}

// hashXT is an asymmetric crosstalk stub of 16 levels, so ties between
// cells and swaps are common.
func hashXT(seed uint64) CrosstalkFunc {
	return func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 0.05 * float64(fuzzMix(seed^fuzzMix(uint64(i)<<32|uint64(j)))%16) / 16
	}
}

// randomGrouping splits n distinct qubit ids, drawn from [0, 2n), into
// groups of 1..capacity members.
func randomGrouping(rng *rand.Rand, n, capacity int) *Grouping {
	ids := rng.Perm(2 * n)[:n]
	g := &Grouping{Capacity: capacity}
	for len(ids) > 0 {
		k := min(1+rng.Intn(capacity), len(ids))
		g.Groups = append(g.Groups, ids[:k:k])
		ids = ids[k:]
	}
	return g
}

// checkAgainstReference runs Allocate and allocateReference on g under
// every swap budget 0..3 with and without the cross-line term.
func checkAgainstReference(t *testing.T, name string, g *Grouping, xt CrosstalkFunc) {
	t.Helper()
	for passes := 0; passes <= 3; passes++ {
		for _, cross := range []bool{true, false} {
			opts := AllocOptions{SwapPasses: passes, CrossLine: cross}
			got, err := Allocate(g, xt, opts)
			want, werr := allocateReference(g, xt, opts)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s %+v: error %v, reference %v", name, opts, err, werr)
			}
			if err != nil {
				continue
			}
			if d := planDiff(got, want); d != "" {
				t.Fatalf("%s %+v: %s", name, opts, d)
			}
		}
	}
}

func TestAllocateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		g := randomGrouping(rng, 1+rng.Intn(60), 1+rng.Intn(8))
		checkAgainstReference(t, fmt.Sprintf("trial %d", trial), g, hashXT(rng.Uint64()))
		// Uniform crosstalk makes swaps and cells tie in exact
		// arithmetic, so rounding, and with it the order of every
		// sum, decides them.
		checkAgainstReference(t, fmt.Sprintf("trial %d, uniform", trial), g, flatXT)
	}
	// Crowded: 62 full lines of the paper's capacity outnumber every
	// zone's 60 cells, and 20 lines of 3 over 60 zones of 5 cells
	// outnumber the first three zones' cells, so reuse runs. Uniform
	// crosstalk ties the reused cells; the small case checks it.
	for _, tc := range []struct{ lines, size, capacity int }{{62, 5, 5}, {20, 3, 60}} {
		g, ids := &Grouping{Capacity: tc.capacity}, rng.Perm(tc.lines*tc.size)
		for l := 0; l < tc.lines; l++ {
			g.Groups = append(g.Groups, ids[l*tc.size:(l+1)*tc.size])
		}
		name := fmt.Sprintf("crowded %dx%d over %d zones", tc.lines, tc.size, tc.capacity)
		checkAgainstReference(t, name, g, hashXT(rng.Uint64()))
		if tc.capacity > tc.size {
			checkAgainstReference(t, name+", uniform", g, flatXT)
		}
		plan, err := Allocate(g, hashXT(1), DefaultAllocOptions())
		if err != nil {
			t.Fatal(err)
		}
		if plan.Reused == 0 {
			t.Errorf("%s: no cell reused", name)
		}
	}
	// An oversized line fails alike; a repeated qubit is placed alike.
	checkAgainstReference(t, "oversized", &Grouping{Capacity: 2, Groups: [][]int{{0}, {1, 2, 3}}}, flatXT)
	checkAgainstReference(t, "repeated qubit", &Grouping{Capacity: 3, Groups: [][]int{{0, 1}, {2, 0, 3}, {1}}}, hashXT(9))
}
