package faults

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/xmon"
)

// planWithRates draws a plan that definitely has faults of every class
// at a rate high enough for a 5x5 chip to hit each.
func planWithRates(t *testing.T, spec Spec, seed int64) *Plan {
	t.Helper()
	p, err := New(chip.Square(5, 5), spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBrokenCouplersListsExactlyTheBrokenOnes(t *testing.T) {
	c := chip.Square(5, 5)
	p := planWithRates(t, Spec{BrokenCouplerRate: 0.3}, 7)
	broken := p.BrokenCouplers()
	if len(broken) == 0 {
		t.Fatal("rate 0.3 on 40 couplers drew no broken coupler; pick another seed")
	}
	set := make(map[int]bool, len(broken))
	prev := -1
	for _, ci := range broken {
		if ci <= prev {
			t.Errorf("BrokenCouplers not sorted: %v", broken)
		}
		prev = ci
		set[ci] = true
	}
	for ci := 0; ci < c.NumCouplers(); ci++ {
		if set[ci] != p.CouplerBroken(ci) {
			t.Errorf("coupler %d: listed=%v, CouplerBroken=%v", ci, set[ci], p.CouplerBroken(ci))
		}
	}
	var nilPlan *Plan
	if got := nilPlan.BrokenCouplers(); got != nil {
		t.Errorf("nil plan lists broken couplers: %v", got)
	}
}

func TestStuckLossyCountExcludesDeadAndBroken(t *testing.T) {
	p := planWithRates(t, Spec{DeadQubitRate: 0.3, BrokenCouplerRate: 0.3, StuckLossyRate: 0.5}, 11)
	// Recount by hand from the public predicates.
	want := 0
	for q := 0; q < 25; q++ {
		if p.QubitStuckLossy(q) && !p.QubitDead(q) {
			want++
		}
	}
	for ci := 0; ci < 40; ci++ {
		if p.CouplerStuckLossy(ci) && !p.CouplerBroken(ci) {
			want++
		}
	}
	if got := p.StuckLossyCount(); got != want {
		t.Errorf("StuckLossyCount = %d, recount from predicates = %d", got, want)
	}
	// A dead qubit that is also stuck must not be double-counted: verify
	// at least one such overlap exists at these rates, or the exclusion
	// clause was never exercised.
	overlap := false
	for q := 0; q < 25; q++ {
		if p.QubitStuckLossy(q) && p.QubitDead(q) {
			overlap = true
		}
	}
	if !overlap {
		t.Log("no dead+stuck overlap at this seed; exclusion untested here")
	}
	var nilPlan *Plan
	if nilPlan.StuckLossyCount() != 0 {
		t.Error("nil plan has stuck-lossy devices")
	}
}

func TestSummary(t *testing.T) {
	var nilPlan *Plan
	if got := nilPlan.Summary(); got != "no faults" {
		t.Errorf("nil plan summary %q", got)
	}
	p := planWithRates(t, Spec{DeadQubitRate: 0.2, BrokenCouplerRate: 0.2, StuckLossyRate: 0.2}, 3)
	s := p.Summary()
	for _, want := range []string{"dead qubits", "broken couplers", "stuck-lossy"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestCampaignStatsAdd(t *testing.T) {
	a := CampaignStats{Pairs: 1, SkippedDead: 2, Dropouts: 3, Retried: 4, LostPairs: 5, Outliers: 6}
	b := CampaignStats{Pairs: 10, SkippedDead: 20, Dropouts: 30, Retried: 40, LostPairs: 50, Outliers: 60}
	a.Add(b)
	want := CampaignStats{Pairs: 11, SkippedDead: 22, Dropouts: 33, Retried: 44, LostPairs: 55, Outliers: 66}
	if a != want {
		t.Errorf("Add: %+v, want %+v", a, want)
	}
}

func TestOutlierScaleOverride(t *testing.T) {
	if got := (Spec{}).outlierScale(); got != DefaultOutlierScale {
		t.Errorf("zero OutlierScale resolves to %g, want default %g", got, DefaultOutlierScale)
	}
	if got := (Spec{OutlierScale: 7}).outlierScale(); got != 7 {
		t.Errorf("explicit OutlierScale resolves to %g, want 7", got)
	}
}

// TestObserveRoutesCampaignCounters: a faulty campaign must fold its
// stats into the registry its context carries; a context without it
// must not; and the counter values must equal the returned
// CampaignStats exactly.
func TestObserveRoutesCampaignCounters(t *testing.T) {
	reg := obs.New()
	ctx := obs.NewContext(context.Background(), reg)

	c := chip.Square(5, 5)
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(1)))
	spec := Spec{DeadQubitRate: 0.1, DropoutRate: 0.3, OutlierRate: 0.2}
	plan, err := New(c, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Measure(ctx, dev, xmon.XY, 0.02, 5, 2, 3, plan)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"faults/pairs":        int64(stats.Pairs),
		"faults/skipped_dead": int64(stats.SkippedDead),
		"faults/dropouts":     int64(stats.Dropouts),
		"faults/retried":      int64(stats.Retried),
		"faults/lost_pairs":   int64(stats.LostPairs),
		"faults/outliers":     int64(stats.Outliers),
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (stats %+v)", name, got, want, stats)
		}
	}
	if stats.Dropouts == 0 || stats.Outliers == 0 || stats.SkippedDead == 0 {
		t.Errorf("campaign too clean to exercise the counters: %+v", stats)
	}

	// The fault-free path records too (pairs only).
	before := reg.Snapshot().Counters["faults/pairs"]
	if _, ffStats, err := Measure(ctx, dev, xmon.XY, 0.02, 6, 1, 0, nil); err != nil {
		t.Fatal(err)
	} else if got := reg.Snapshot().Counters["faults/pairs"] - before; got != int64(ffStats.Pairs) {
		t.Errorf("fault-free campaign recorded %d pairs, stats say %d", got, ffStats.Pairs)
	}

	// Without the registry: no further accounting, and obsRecord must
	// not panic.
	prev := reg.Snapshot().Counters["faults/pairs"]
	if _, _, err := Measure(context.Background(), dev, xmon.XY, 0.02, 7, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["faults/pairs"]; got != prev {
		t.Errorf("a campaign without the registry still accumulated: %d -> %d", prev, got)
	}
}

func TestMeasureNilDeviceAndNegativeRetryBudget(t *testing.T) {
	if _, _, err := Measure(context.Background(), nil, xmon.XY, 0, 1, 1, 0, nil); err == nil {
		t.Error("nil device accepted")
	}
	c := chip.Square(3, 3)
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(1)))
	plan, err := New(c, Spec{DropoutRate: 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A negative budget clamps to 0 (no retries): every dropout loses
	// its pair, and Retried stays 0.
	_, stats, err := Measure(context.Background(), dev, xmon.XY, 0.02, 1, 1, -5, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retried != 0 {
		t.Errorf("no-retry campaign recorded %d retried pairs", stats.Retried)
	}
	if stats.LostPairs != stats.Dropouts {
		t.Errorf("with budget 0 every dropout is a lost pair: dropouts %d, lost %d",
			stats.Dropouts, stats.LostPairs)
	}
}
