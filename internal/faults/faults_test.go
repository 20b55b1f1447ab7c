package faults

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/xmon"
)

func testDevice(t *testing.T, w, h int, seed int64) *xmon.Device {
	t.Helper()
	c := chip.Square(w, h)
	return xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(seed)))
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero", Spec{}, true},
		{"uniform", UniformSpec(0.05), true},
		{"negative", Spec{DeadQubitRate: -0.1}, false},
		{"above one", Spec{OutlierRate: 1.5}, false},
		{"dropout one", Spec{DropoutRate: 1}, false},
		{"dead one", Spec{DeadQubitRate: 1}, true},
		{"negative scale", Spec{OutlierScale: -3}, false},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestNewPlanDeterministic(t *testing.T) {
	c := chip.Square(6, 6)
	spec := UniformSpec(0.1)
	p1, err := New(c, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(c, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Error("identical (chip, spec, seed) produced different plans")
	}
	p3, err := New(c, spec, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(p1.DeadQubits(), p3.DeadQubits()) &&
		reflect.DeepEqual(p1.BrokenCouplers(), p3.BrokenCouplers()) {
		t.Error("different seeds produced identical fault sets (suspicious)")
	}
}

func TestNewPlanRejectsBadSpec(t *testing.T) {
	if _, err := New(chip.Square(2, 2), Spec{DropoutRate: 1}, 1); err == nil {
		t.Error("want error for DropoutRate == 1")
	}
	if _, err := New(nil, Spec{}, 1); err == nil {
		t.Error("want error for nil chip")
	}
}

func TestNilPlanIsFaultFree(t *testing.T) {
	var p *Plan
	if p.QubitDead(0) || p.CouplerBroken(0) || p.QubitStuckLossy(0) || p.CouplerStuckLossy(0) {
		t.Error("nil plan reported a fault")
	}
	if got := p.AliveQubits(4); len(got) != 4 {
		t.Errorf("nil plan AliveQubits = %v", got)
	}
	if p.StuckLossyCount() != 0 || p.Summary() != "no faults" {
		t.Error("nil plan has non-empty degradation summary")
	}
}

func TestCouplerUsable(t *testing.T) {
	c := chip.Square(3, 3)
	spec := Spec{DeadQubitRate: 0.5}
	p, err := New(c, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	for ci, cp := range c.Couplers {
		want := !p.QubitDead(cp.A) && !p.QubitDead(cp.B)
		if got := p.CouplerUsable(c, ci); got != want {
			t.Errorf("coupler %d usable = %v, want %v", ci, got, want)
		}
	}
}

// TestMeasureFaultFreeParity: a nil plan (and a zero spec) must
// reproduce dev.MeasureSeeded bit-identically — same streams, same
// samples — so fault-free pipelines are unchanged by the faults layer.
func TestMeasureFaultFreeParity(t *testing.T) {
	dev := testDevice(t, 4, 4, 3)
	want, err := dev.MeasureSeeded(context.Background(), xmon.XY, 0.05, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, plan := range map[string]*Plan{"nil": nil} {
		got, stats, err := Measure(context.Background(), dev, xmon.XY, 0.05, 99, 4, 3, plan)
		if err != nil {
			t.Fatalf("%s plan: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s plan: campaign differs from MeasureSeeded", name)
		}
		if stats.Pairs != len(want) || stats.Dropouts != 0 || stats.LostPairs != 0 {
			t.Errorf("%s plan: unexpected stats %+v", name, stats)
		}
	}
	zeroPlan, err := New(dev.Chip, Spec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Measure(context.Background(), dev, xmon.XY, 0.05, 99, 2, 3, zeroPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("zero-spec plan: campaign differs from MeasureSeeded")
	}
}

// TestMeasureWorkerCountInvariant: the fault-injected campaign is
// bit-identical for any worker count, including its stats.
func TestMeasureWorkerCountInvariant(t *testing.T) {
	dev := testDevice(t, 5, 5, 11)
	plan, err := New(dev.Chip, Spec{
		DeadQubitRate: 0.15,
		DropoutRate:   0.2,
		OutlierRate:   0.1,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, refStats, err := Measure(context.Background(), dev, xmon.XY, 0.05, 77, 1, 2, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, stats, err := Measure(context.Background(), dev, xmon.XY, 0.05, 77, workers, 2, plan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: samples differ from sequential run", workers)
		}
		if stats != refStats {
			t.Fatalf("workers=%d: stats %+v differ from %+v", workers, stats, refStats)
		}
	}
}

func TestMeasureSkipsDeadQubits(t *testing.T) {
	dev := testDevice(t, 4, 4, 2)
	plan, err := New(dev.Chip, Spec{DeadQubitRate: 0.3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	dead := plan.DeadQubits()
	if len(dead) == 0 {
		t.Skip("seed drew no dead qubits; adjust seed")
	}
	samples, stats, err := Measure(context.Background(), dev, xmon.ZZ, 0.05, 1, 1, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	isDead := make(map[int]bool)
	for _, q := range dead {
		isDead[q] = true
	}
	for _, s := range samples {
		if isDead[s.I] || isDead[s.J] {
			t.Fatalf("sample (%d,%d) touches a dead qubit", s.I, s.J)
		}
	}
	n := dev.Chip.NumQubits()
	if stats.SkippedDead == 0 || stats.Pairs+stats.SkippedDead != n*(n-1)/2 {
		t.Errorf("pair accounting wrong: %+v", stats)
	}
}

// TestMeasureRetryRescuesDropouts: with a generous budget, a lossy
// campaign still measures every alive pair; with no budget it loses
// some, and the dropout/retry accounting is consistent.
func TestMeasureRetryRescuesDropouts(t *testing.T) {
	dev := testDevice(t, 4, 4, 6)
	plan, err := New(dev.Chip, Spec{DropoutRate: 0.4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, statsFull, err := Measure(context.Background(), dev, xmon.XY, 0.05, 5, 1, 20, plan)
	if err != nil {
		t.Fatal(err)
	}
	if statsFull.LostPairs != 0 {
		t.Errorf("budget 20 still lost %d pairs", statsFull.LostPairs)
	}
	if len(full) != statsFull.Pairs {
		t.Errorf("got %d samples for %d pairs", len(full), statsFull.Pairs)
	}
	if statsFull.Dropouts == 0 || statsFull.Retried == 0 {
		t.Errorf("40%% dropout campaign recorded no dropouts: %+v", statsFull)
	}

	lossy, statsNone, err := Measure(context.Background(), dev, xmon.XY, 0.05, 5, 1, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if statsNone.LostPairs == 0 {
		t.Error("budget 0 under 40% dropout lost no pairs (improbable)")
	}
	if len(lossy)+statsNone.LostPairs != statsNone.Pairs {
		t.Errorf("sample/lost accounting wrong: %d + %d != %d",
			len(lossy), statsNone.LostPairs, statsNone.Pairs)
	}
}

func TestMeasureOutliersAreLarge(t *testing.T) {
	dev := testDevice(t, 4, 4, 8)
	plan, err := New(dev.Chip, Spec{OutlierRate: 0.2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	faulty, stats, err := Measure(context.Background(), dev, xmon.XY, 0.05, 13, 1, 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Outliers == 0 {
		t.Fatal("20% outlier rate injected none")
	}
	clean, err := dev.MeasureSeeded(context.Background(), xmon.XY, 0.05, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cleanMax float64
	for _, s := range clean {
		if s.Value > cleanMax {
			cleanMax = s.Value
		}
	}
	var faultyMax float64
	for _, s := range faulty {
		if s.Value > faultyMax {
			faultyMax = s.Value
		}
	}
	if faultyMax < cleanMax*5 {
		t.Errorf("outliers not heavy-tailed: max %g vs clean max %g", faultyMax, cleanMax)
	}
}

func TestMeasureAllDeadFailsDescriptively(t *testing.T) {
	dev := testDevice(t, 2, 2, 1)
	plan, err := New(dev.Chip, Spec{DeadQubitRate: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.AliveQubits(dev.Chip.NumQubits())) != 0 {
		t.Fatal("rate-1 plan left qubits alive")
	}
	_, _, err = Measure(context.Background(), dev, xmon.XY, 0.05, 1, 1, 3, plan)
	if err == nil {
		t.Fatal("want descriptive error for fully-dead chip")
	}
}

func TestMeasureHonorsContext(t *testing.T) {
	dev := testDevice(t, 4, 4, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan, err := New(dev.Chip, UniformSpec(0.05), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Measure(ctx, dev, xmon.XY, 0.05, 1, 1, 3, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
