package tdm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chip"
)

func TestGroupDevicesInputValidation(t *testing.T) {
	c := chip.Square(3, 3)
	gi := AnalyzeGates(c)
	cfg := DefaultConfig(nil)

	if _, err := GroupDevices(nil, []int{0}, cfg); err == nil || !strings.Contains(err.Error(), "nil gate tables") {
		t.Errorf("nil gate tables: got %v", err)
	}
	if _, err := GroupDevices(gi, nil, cfg); err == nil || !strings.Contains(err.Error(), "empty device list") {
		t.Errorf("empty devices: got %v", err)
	}
	if _, err := GroupDevices(gi, []int{0, gi.Dev.Count()}, cfg); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range device: got %v", err)
	}
	if _, err := GroupDevices(gi, []int{3, 3}, cfg); err == nil || !strings.Contains(err.Error(), "duplicate device") {
		t.Errorf("duplicate device: got %v", err)
	}
}

func TestGroupSortedInputValidation(t *testing.T) {
	c := chip.Square(3, 3)
	gi := AnalyzeGates(c)
	cfg := DefaultConfig(nil)
	sorted := SortByIndex([]int{0, 1, 2, 3, 9, 10}, gi.AllParallelismIndices())
	if _, err := GroupSorted(gi, sorted, []int{4, 5}, cfg); err != nil {
		t.Fatalf("sorted lists rejected: %v", err)
	}
	for _, tc := range []struct {
		name             string
		sorted, isolated []int
		want             string
	}{
		{"empty", nil, nil, "empty device list"},
		{"out of range", []int{-1}, nil, "out of range"},
		{"listed twice", sorted, []int{sorted[0]}, "duplicate device"},
		{"unsorted", []int{sorted[1], sorted[0]}, nil, "out of parallelism-index order"},
		{"unsorted isolated", nil, []int{5, 4}, "isolated devices 5 and 4 out of order"},
	} {
		if _, err := GroupSorted(gi, tc.sorted, tc.isolated, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestGroupDevicesIsolate: isolated (stuck-lossy) devices land alone on
// direct lines; everything else still validates.
func TestGroupDevicesIsolate(t *testing.T) {
	c := chip.Square(3, 3)
	gi := AnalyzeGates(c)
	cfg := DefaultConfig(nil)
	stuck := map[int]bool{2: true, 7: true}
	cfg.Isolate = func(dev int) bool { return stuck[dev] }

	devs := make([]int, gi.Dev.Count())
	for i := range devs {
		devs[i] = i
	}
	g, err := GroupDevices(gi, devs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(gi); err != nil {
		t.Fatalf("grouping with isolation invalid: %v", err)
	}
	for dev := range stuck {
		gid := g.GroupOf(dev)
		if gid < 0 {
			t.Fatalf("stuck device %d missing from grouping", dev)
		}
		grp := g.Groups[gid]
		if len(grp.Devices) != 1 || grp.Level != DemuxNone {
			t.Errorf("stuck device %d in group %+v, want dedicated direct line", dev, grp)
		}
	}
}

func TestValidateDevicesSubset(t *testing.T) {
	c := chip.Square(3, 3)
	gi := AnalyzeGates(c)
	cfg := DefaultConfig(nil)
	// Group only the first half of the devices.
	var devs []int
	for d := 0; d < gi.Dev.Count()/2; d++ {
		devs = append(devs, d)
	}
	g, err := GroupDevices(gi, devs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ValidateDevices(gi, devs); err != nil {
		t.Errorf("exact device set rejected: %v", err)
	}
	// Full-chip validation must now fail (coverage gap)…
	if err := g.Validate(gi); err == nil {
		t.Error("half-chip grouping passed full-chip validation")
	}
	// …and so must validation against a set missing a grouped device.
	if err := g.ValidateDevices(gi, devs[:len(devs)-1]); err == nil {
		t.Error("grouped device outside the validation set not detected")
	}
}

func TestAnalyzeGatesUsableFiltersGates(t *testing.T) {
	c := chip.Square(3, 3)
	full := AnalyzeGates(c)
	deadQubit := 4 // centre of the 3x3 lattice: degree 4
	filtered := AnalyzeGatesUsable(c, func(g chip.TwoQubitGate) bool {
		return g.Q1 != deadQubit && g.Q2 != deadQubit
	})
	if len(filtered.Gates) >= len(full.Gates) {
		t.Fatalf("filter removed nothing: %d vs %d gates", len(filtered.Gates), len(full.Gates))
	}
	if got := len(full.Gates) - len(filtered.Gates); got != c.Degree(deadQubit) {
		t.Errorf("removed %d gates, want %d (degree of q%d)", got, c.Degree(deadQubit), deadQubit)
	}
	if n := len(filtered.GatesOf[deadQubit]); n != 0 {
		t.Errorf("dead qubit still occupies %d gates", n)
	}
	for gIdx, g := range filtered.Gates {
		if g.Q1 == deadQubit || g.Q2 == deadQubit {
			t.Errorf("gate %d still references dead qubit", gIdx)
		}
	}
}

// validateDevicesReference is ValidateDevices as first written, over
// maps; the dense rewrite must return exactly its errors.
func validateDevicesReference(g *Grouping, gi *GateInfo, devices []int) error {
	want := make(map[int]bool, len(devices))
	for _, d := range devices {
		if want[d] {
			return fmt.Errorf("tdm: duplicate device %d in validation set", d)
		}
		want[d] = true
	}
	seen := make(map[int]int)
	for gid, grp := range g.Groups {
		if len(grp.Devices) == 0 {
			return fmt.Errorf("tdm: group %d is empty", gid)
		}
		if len(grp.Devices) > int(grp.Level) {
			return fmt.Errorf("tdm: group %d has %d devices, level %s", gid, len(grp.Devices), grp.Level)
		}
		for _, d := range grp.Devices {
			if d < 0 || d >= gi.Dev.Count() {
				return fmt.Errorf("tdm: group %d has out-of-range device %d", gid, d)
			}
			if !want[d] {
				return fmt.Errorf("tdm: group %d contains device %s outside the device set", gid, gi.Dev.Name(d))
			}
			if prev, dup := seen[d]; dup {
				return fmt.Errorf("tdm: device %s in groups %d and %d", gi.Dev.Name(d), prev, gid)
			}
			seen[d] = gid
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("tdm: grouping covers %d of %d devices", len(seen), len(want))
	}
	for gIdx := range gi.Gates {
		devs := gi.GateDevices(gIdx)
		for a := 0; a < 3; a++ {
			for b := a + 1; b < 3; b++ {
				ga, inA := seen[devs[a]]
				gb, inB := seen[devs[b]]
				if inA && inB && ga == gb {
					return fmt.Errorf("tdm: gate %d devices %s and %s share group %d (unrealizable 2q gate)",
						gIdx, gi.Dev.Name(devs[a]), gi.Dev.Name(devs[b]), ga)
				}
			}
		}
	}
	return nil
}

// TestValidateDevicesMatchesReference breaks a valid grouping and its
// device set in every way ValidateDevices checks and compares the
// errors with the map-based reference.
func TestValidateDevicesMatchesReference(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	n := gi.Dev.Count()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	base, err := GroupChip(gi, DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *Grouping {
		g := &Grouping{Theta: base.Theta}
		for _, grp := range base.Groups {
			g.Groups = append(g.Groups, Group{Devices: append([]int(nil), grp.Devices...), Level: grp.Level})
		}
		return g
	}
	gate := gi.GateDevices(0)
	cases := []struct {
		name    string
		devices []int
		edit    func(g *Grouping)
	}{
		{"valid", all, nil},
		{"duplicate in set", append([]int{3}, all...), nil},
		{"set beyond range", append(append([]int(nil), all...), -4, n+2), nil},
		{"duplicate beyond range", append(append([]int(nil), all...), n+2, n+2), nil},
		{"missing from set", all[1:], nil},
		{"coverage gap", append(append([]int(nil), all...), n+2), nil},
		{"empty group", all, func(g *Grouping) { g.Groups = append(g.Groups, Group{Level: DemuxNone}) }},
		{"over level", all, func(g *Grouping) {
			g.Groups[0].Level = DemuxNone
			g.Groups[0].Devices = append(g.Groups[0].Devices, 0, 1)
		}},
		{"out of range", all, func(g *Grouping) { g.Groups[0].Devices[0] = n }},
		{"negative", all, func(g *Grouping) { g.Groups[0].Devices[0] = -1 }},
		{"twice", all, func(g *Grouping) {
			g.Groups = append(g.Groups, Group{Devices: []int{g.Groups[0].Devices[0]}, Level: DemuxNone})
		}},
		{"dropped", all, func(g *Grouping) { g.Groups = g.Groups[1:] }},
		{"gate shares group", all, func(g *Grouping) {
			// Regroup: the gate's two qubits together, everything else
			// alone.
			g.Groups = []Group{{Devices: []int{gate[0], gate[1]}, Level: Demux1to2}}
			for d := 0; d < n; d++ {
				if d != gate[0] && d != gate[1] {
					g.Groups = append(g.Groups, Group{Devices: []int{d}, Level: DemuxNone})
				}
			}
		}},
	}
	for _, tc := range cases {
		g := clone()
		if tc.edit != nil {
			tc.edit(g)
		}
		got, want := g.ValidateDevices(gi, tc.devices), validateDevicesReference(g, gi, tc.devices)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
		if tc.name != "valid" && want == nil {
			t.Errorf("%s: the reference accepts the broken grouping", tc.name)
		}
	}
}
