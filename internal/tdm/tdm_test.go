package tdm

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/chip"
)

func TestDeviceIndexing(t *testing.T) {
	c := chip.Square(3, 3)
	dev := NewDevices(c)
	if dev.Count() != 9+12 {
		t.Fatalf("device count %d, want 21", dev.Count())
	}
	if dev.QubitDevice(5) != 5 {
		t.Error("qubit device index wrong")
	}
	cd := dev.CouplerDevice(3)
	if cd != 12 {
		t.Errorf("coupler device index %d, want 12", cd)
	}
	if !dev.IsCoupler(cd) || dev.IsCoupler(8) {
		t.Error("IsCoupler wrong")
	}
	if dev.CouplerID(cd) != 3 {
		t.Error("CouplerID wrong")
	}
	if dev.Name(5) != "q5" || dev.Name(cd) != "c3" {
		t.Errorf("names wrong: %s %s", dev.Name(5), dev.Name(cd))
	}
}

func TestDemuxLevels(t *testing.T) {
	if DemuxNone.ControlBits() != 0 || Demux1to2.ControlBits() != 1 || Demux1to4.ControlBits() != 2 {
		t.Error("control bits wrong")
	}
	if DemuxNone.String() != "direct" || Demux1to2.String() != "1:2" || Demux1to4.String() != "1:4" {
		t.Error("level names wrong")
	}
}

func TestAnalyzeGates(t *testing.T) {
	c := chip.Square(3, 3)
	gi := AnalyzeGates(c)
	if len(gi.Gates) != 12 {
		t.Fatalf("got %d gates, want 12", len(gi.Gates))
	}
	// Every gate occupies exactly 3 devices, each listing it back.
	for g := range gi.Gates {
		devs := gi.GateDevices(g)
		for _, d := range devs {
			found := false
			for _, gg := range gi.GatesOf[d] {
				if gg == g {
					found = true
				}
			}
			if !found {
				t.Fatalf("gate %d missing from GatesOf[%d]", g, d)
			}
		}
	}
	// Couplers carry exactly one gate.
	dev := gi.Dev
	for cID := 0; cID < c.NumCouplers(); cID++ {
		if n := len(gi.GatesOf[dev.CouplerDevice(cID)]); n != 1 {
			t.Errorf("coupler %d has %d gates, want 1", cID, n)
		}
	}
	// Qubits carry degree-many gates.
	for q := 0; q < c.NumQubits(); q++ {
		if len(gi.GatesOf[q]) != c.Degree(q) {
			t.Errorf("qubit %d has %d gates, want %d", q, len(gi.GatesOf[q]), c.Degree(q))
		}
	}
}

func TestNonCoexSymmetric(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	inList := func(list []int, g int) bool {
		for _, x := range list {
			if x == g {
				return true
			}
		}
		return false
	}
	for a := range gi.Gates {
		for _, b := range gi.NonCoex[a] {
			if !inList(gi.NonCoex[b], a) {
				t.Fatalf("non-coexistence not symmetric: %d vs %d", a, b)
			}
			if a == b {
				t.Fatalf("gate %d non-coexistent with itself", a)
			}
		}
	}
}

func TestParallelismIndexHandCounted(t *testing.T) {
	// A star-with-tail graph whose index values are easy to count by
	// hand (ids: 0=q1 1=q2 2=q3 3=q4 4=q7):
	//
	//      q1 -c0- q2 -c1- q3 -c2- q4
	//                      |
	//                      c3
	//                      |
	//                      q7
	//
	// Gates: A=(q1,q2), B=(q2,q3), C=(q3,q4), D=(q3,q7).
	// NonCoex: A~{B}, B~{A,C,D}, C~{B,D}, D~{B,C}.
	qs := make([]chip.Qubit, 5)
	for i := range qs {
		qs[i] = chip.Qubit{ID: i}
	}
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {2, 4}}
	c, err := chip.New("star", "custom", qs, pairs)
	if err != nil {
		t.Fatal(err)
	}
	gi := AnalyzeGates(c)
	dev := gi.Dev
	// c0 carries only gate A with 1 non-coexistent gate, connectivity 1.
	if got := gi.ParallelismIndex(dev.CouplerDevice(0)); got != 1 {
		t.Errorf("index(c0) = %v, want 1", got)
	}
	// c1 carries gate B (3 non-coexistent gates).
	if got := gi.ParallelismIndex(dev.CouplerDevice(1)); got != 3 {
		t.Errorf("index(c1) = %v, want 3", got)
	}
	// q3 carries gates B, C, D with 3+2+2 = 7 non-coexistent gates over
	// connectivity 3.
	if got := gi.ParallelismIndex(2); math.Abs(got-7.0/3) > 1e-12 {
		t.Errorf("index(q3) = %v, want 7/3", got)
	}
	// q1 carries gate A (1 non-coexistent) over connectivity 1.
	if got := gi.ParallelismIndex(0); got != 1 {
		t.Errorf("index(q1) = %v, want 1", got)
	}
}

func TestParallelismIndexBruteForce(t *testing.T) {
	// Cross-check the index on a lattice against an independent
	// recomputation from first principles.
	c := chip.Square(3, 3)
	gi := AnalyzeGates(c)
	gates := c.TwoQubitGates()
	share := func(a, b chip.TwoQubitGate) bool {
		return a.Q1 == b.Q1 || a.Q1 == b.Q2 || a.Q2 == b.Q1 || a.Q2 == b.Q2
	}
	for q := 0; q < c.NumQubits(); q++ {
		total := 0
		for gIdx, g := range gates {
			if g.Q1 != q && g.Q2 != q {
				continue
			}
			for hIdx, h := range gates {
				if hIdx != gIdx && share(g, h) {
					total++
				}
			}
		}
		want := 0.0
		if c.Degree(q) > 0 {
			want = float64(total) / float64(c.Degree(q))
		}
		if got := gi.ParallelismIndex(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("qubit %d: index %v, want %v", q, got, want)
		}
	}
}

func TestParallelismIndexIsolatedQubit(t *testing.T) {
	qs := []chip.Qubit{{ID: 0}, {ID: 1}, {ID: 2}}
	c, err := chip.New("iso", "custom", qs, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	gi := AnalyzeGates(c)
	if got := gi.ParallelismIndex(2); got != 0 {
		t.Errorf("isolated qubit index %v, want 0", got)
	}
}

func TestAllParallelismIndices(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	all := gi.AllParallelismIndices()
	if len(all) != gi.Dev.Count() {
		t.Fatalf("got %d indices", len(all))
	}
	for d, v := range all {
		if v != gi.ParallelismIndex(d) {
			t.Errorf("index mismatch at device %d", d)
		}
		if v < 0 || math.IsNaN(v) {
			t.Errorf("invalid index %v at device %d", v, d)
		}
	}
	// Square interior devices have higher parallelism than corners.
	corner := gi.ParallelismIndex(0)
	centre := gi.ParallelismIndex(4)
	if centre <= corner {
		t.Errorf("centre index %v should exceed corner %v", centre, corner)
	}
}

func TestGroupingAccessors(t *testing.T) {
	g := &Grouping{Groups: []Group{
		{Devices: []int{0, 1}, Level: Demux1to2},
		{Devices: []int{2}, Level: DemuxNone},
		{Devices: []int{3, 4, 5, 6}, Level: Demux1to4},
	}}
	if g.NumZLines() != 3 {
		t.Errorf("Z lines %d", g.NumZLines())
	}
	if g.ControlLines() != 3 { // 1 + 0 + 2
		t.Errorf("control lines %d, want 3", g.ControlLines())
	}
	if g.GroupOf(4) != 2 || g.GroupOf(0) != 0 {
		t.Error("GroupOf wrong")
	}
	if g.GroupOf(99) != -1 {
		t.Error("GroupOf unknown should be -1")
	}
	counts := g.LevelCounts()
	if counts[Demux1to2] != 1 || counts[DemuxNone] != 1 || counts[Demux1to4] != 1 {
		t.Errorf("level counts %v", counts)
	}
}

func TestValidateCatchesIllegalGroupings(t *testing.T) {
	c := chip.Square(2, 2)
	gi := AnalyzeGates(c)
	dev := gi.Dev

	// A gate's two qubits in the same group -> unrealizable 2q gate.
	bad := &Grouping{Groups: []Group{{Devices: []int{0, 1}, Level: Demux1to2}}}
	for d := 2; d < dev.Count(); d++ {
		bad.Groups = append(bad.Groups, Group{Devices: []int{d}, Level: DemuxNone})
	}
	if bad.Validate(gi) == nil {
		t.Error("gate-sharing group accepted")
	}

	// Missing device.
	incomplete := &Grouping{Groups: []Group{{Devices: []int{0}, Level: DemuxNone}}}
	if incomplete.Validate(gi) == nil {
		t.Error("incomplete grouping accepted")
	}

	// Over capacity.
	over := &Grouping{Groups: []Group{{Devices: []int{0, 3}, Level: DemuxNone}}}
	if over.Validate(gi) == nil {
		t.Error("over-capacity group accepted")
	}

	// Duplicate device.
	dup := &Grouping{Groups: []Group{
		{Devices: []int{0}, Level: DemuxNone},
		{Devices: []int{0}, Level: DemuxNone},
	}}
	if dup.Validate(gi) == nil {
		t.Error("duplicate device accepted")
	}

	// Empty group.
	empty := &Grouping{Groups: []Group{{Devices: nil, Level: DemuxNone}}}
	if empty.Validate(gi) == nil {
		t.Error("empty group accepted")
	}
}

// TestNonCoexMatchesScan checks the merged NonCoex lists against the
// all-pairs scan they replace: gate b ≠ a joins a's list, in ascending
// order, when the two share a qubit.
func TestNonCoexMatchesScan(t *testing.T) {
	chips := append([]*chip.Chip{chip.Square(4, 4), chip.HeavyHexagon(2, 2), chip.LowDensity(4, 4)}, chip.Table2Chips()...)
	for _, c := range chips {
		gi := AnalyzeGatesUsable(c, func(g chip.TwoQubitGate) bool { return g.Coupler%7 != 3 })
		for a, ga := range gi.Gates {
			var want []int
			for b, gb := range gi.Gates {
				if b != a && sharesQubit(ga, gb) {
					want = append(want, b)
				}
			}
			if !reflect.DeepEqual(gi.NonCoex[a], want) {
				t.Errorf("%s gate %d: NonCoex %v, scan %v", c.Topology, a, gi.NonCoex[a], want)
			}
		}
	}
}
