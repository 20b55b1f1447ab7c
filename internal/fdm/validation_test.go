package fdm

import (
	"fmt"
	"strings"
	"testing"
)

func unitDist(i, j int) float64 { return 1 }

func TestGroupInputValidation(t *testing.T) {
	cases := []struct {
		name     string
		members  []int
		capacity int
		dist     DistanceFunc
		wantSub  string
	}{
		{"empty members", nil, 3, unitDist, "empty member list"},
		{"nil predictor", []int{0, 1}, 3, nil, "nil distance predictor"},
		{"negative id", []int{0, -2}, 3, unitDist, "negative qubit id"},
		{"duplicate", []int{1, 1}, 3, unitDist, "duplicate member"},
		{"zero capacity", []int{0}, 0, unitDist, "capacity"},
	}
	for _, tc := range cases {
		g, err := Group(tc.members, tc.capacity, tc.dist)
		if err == nil {
			t.Errorf("%s: want error, got grouping %v", tc.name, g.Groups)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestValidateMembers(t *testing.T) {
	g, err := Group([]int{2, 5, 9, 11}, 2, unitDist)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ValidateMembers([]int{2, 5, 9, 11}); err != nil {
		t.Errorf("exact member set rejected: %v", err)
	}
	if err := g.ValidateMembers([]int{2, 5, 9}); err == nil {
		t.Error("extra grouped qubit 11 not detected")
	}
	if err := g.ValidateMembers([]int{2, 5, 9, 11, 13}); err == nil {
		t.Error("missing member 13 not detected")
	}
	if err := g.ValidateMembers([]int{2, 2, 5, 9, 11}); err == nil {
		t.Error("duplicate validation member not detected")
	}
}

// validateMembersReference is ValidateMembers as first written, over
// maps; the dense rewrite must return exactly its errors.
func validateMembersReference(g *Grouping, members []int) error {
	want := make(map[int]bool, len(members))
	for _, q := range members {
		if want[q] {
			return fmt.Errorf("fdm: duplicate member %d in validation set", q)
		}
		want[q] = true
	}
	seen := make(map[int]bool, len(members))
	for li, grp := range g.Groups {
		if len(grp) > g.Capacity {
			return fmt.Errorf("fdm: line %d has %d qubits, capacity %d", li, len(grp), g.Capacity)
		}
		for _, q := range grp {
			if !want[q] {
				return fmt.Errorf("fdm: line %d contains qubit %d outside the member set", li, q)
			}
			if seen[q] {
				return fmt.Errorf("fdm: qubit %d appears in more than one line", q)
			}
			seen[q] = true
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("fdm: grouping covers %d of %d members", len(seen), len(want))
	}
	return nil
}

func TestValidateMembersMatchesReference(t *testing.T) {
	cases := []struct {
		name    string
		groups  [][]int
		members []int
	}{
		{"valid", [][]int{{2, 5}, {9, 11}}, []int{2, 5, 9, 11}},
		{"no members", nil, nil},
		{"no members, grouped", [][]int{{0}}, nil},
		{"negative members", [][]int{{-3, 5}, {-1}}, []int{5, -1, -3}},
		{"duplicate", [][]int{{2, 5}}, []int{5, 2, 5}},
		{"outside below", [][]int{{1, 5}}, []int{2, 5}},
		{"outside above", [][]int{{2, 7}}, []int{2, 5}},
		{"outside within span", [][]int{{2, 4}}, []int{2, 5}},
		{"twice", [][]int{{2, 5}, {5}}, []int{2, 5}},
		{"over capacity", [][]int{{2, 5, 9}}, []int{2, 5, 9}},
		{"coverage gap", [][]int{{2}, {9}}, []int{2, 5, 9}},
	}
	for _, tc := range cases {
		g := &Grouping{Groups: tc.groups, Capacity: 2}
		got, want := g.ValidateMembers(tc.members), validateMembersReference(g, tc.members)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, want)
		}
	}
}
