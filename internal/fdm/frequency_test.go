package fdm

import (
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
