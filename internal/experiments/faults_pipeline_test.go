package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/faults"
)

func TestOptionsNormalizedExplicitZero(t *testing.T) {
	def := Options{}.normalized()
	if def.Theta != 4 {
		t.Errorf("default Theta = %v, want 4", def.Theta)
	}
	if def.MaxFitSamples != 1500 {
		t.Errorf("default MaxFitSamples = %v, want 1500", def.MaxFitSamples)
	}
	if def.RetryBudget != 3 {
		t.Errorf("default RetryBudget = %v, want 3", def.RetryBudget)
	}

	expl := Options{HasTheta: true, HasMaxFitSamples: true}.normalized()
	if expl.Theta != 0 {
		t.Errorf("explicit Theta 0 overridden to %v", expl.Theta)
	}
	if expl.MaxFitSamples != 0 {
		t.Errorf("explicit MaxFitSamples 0 overridden to %v", expl.MaxFitSamples)
	}

	noRetry := Options{RetryBudget: -1}.normalized()
	if noRetry.RetryBudget != 0 {
		t.Errorf("RetryBudget -1 normalized to %v, want 0", noRetry.RetryBudget)
	}
}

func TestOptionsNormalizedAutoTrim(t *testing.T) {
	o := Options{Faults: faults.Spec{OutlierRate: 0.03}}.normalized()
	if o.Fit.TrimOutlierFraction != 0.06 {
		t.Errorf("auto trim fraction = %v, want 0.06", o.Fit.TrimOutlierFraction)
	}
	o = Options{Faults: faults.Spec{OutlierRate: 0.5}}.normalized()
	if o.Fit.TrimOutlierFraction != 0.2 {
		t.Errorf("auto trim fraction = %v, want cap 0.2", o.Fit.TrimOutlierFraction)
	}
	o = Options{Faults: faults.Spec{OutlierRate: 0.5}, Fit: Options{}.normalized().Fit}
	o.Fit.TrimOutlierFraction = 0.01
	if o.normalized().Fit.TrimOutlierFraction != 0.01 {
		t.Error("explicit trim fraction overridden")
	}
}

// faultOpts is the acceptance-criteria configuration: an 8x8 chip at a
// uniform 2% defect rate.
func faultOpts(workers int) Options {
	return Options{Seed: 5, Workers: workers, Faults: faults.UniformSpec(0.02)}
}

func buildFaulty(t *testing.T, workers int) *Pipeline {
	t.Helper()
	p, err := BuildPipeline(chip.Square(8, 8), faultOpts(workers))
	if err != nil {
		t.Fatalf("BuildPipeline with faults (workers=%d): %v", workers, err)
	}
	return p
}

// TestBuildPipelineWithFaults: the degraded build completes, passes
// Validate, and no dead or broken device appears in any group.
func TestBuildPipelineWithFaults(t *testing.T) {
	p := buildFaulty(t, 0)
	if p.Faults == nil {
		t.Fatal("fault plan missing from pipeline")
	}
	if len(p.Faults.DeadQubits()) == 0 {
		t.Fatal("2% plan on 64 qubits drew no dead qubits (seed too lucky for the test)")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for gi, grp := range p.FDM.Groups {
		for _, q := range grp {
			if p.Faults.QubitDead(q) {
				t.Errorf("FDM group %d contains dead qubit %d", gi, q)
			}
		}
	}
	for gid, grp := range p.TDM.Groups {
		for _, d := range grp.Devices {
			if p.Gates.Dev.IsCoupler(d) {
				if !p.Faults.CouplerUsable(p.Chip, p.Gates.Dev.CouplerID(d)) {
					t.Errorf("TDM group %d contains unusable coupler device %s", gid, p.Gates.Dev.Name(d))
				}
			} else if p.Faults.QubitDead(d) {
				t.Errorf("TDM group %d contains dead qubit %d", gid, d)
			}
		}
	}
	if p.Calib.Pairs == 0 || p.Calib.SkippedDead == 0 {
		t.Errorf("campaign stats not recorded: %+v", p.Calib)
	}
}

// TestBuildPipelineFaultDeterminism: the full degraded design is
// bit-identical for 1 and 4 workers.
func TestBuildPipelineFaultDeterminism(t *testing.T) {
	p1 := buildFaulty(t, 1)
	p4 := buildFaulty(t, 4)

	if !reflect.DeepEqual(p1.Faults.DeadQubits(), p4.Faults.DeadQubits()) {
		t.Fatal("fault plans differ across worker counts")
	}
	if p1.Partition == nil || p4.Partition == nil {
		t.Fatal("64-qubit build skipped partitioning")
	}
	if !reflect.DeepEqual(p1.Partition.Regions, p4.Partition.Regions) {
		t.Error("partition regions differ across worker counts")
	}
	if !reflect.DeepEqual(p1.FDM.Groups, p4.FDM.Groups) {
		t.Error("FDM groups differ across worker counts")
	}
	if !reflect.DeepEqual(p1.FreqPlan.Freq, p4.FreqPlan.Freq) {
		t.Error("frequency plans differ across worker counts")
	}
	if len(p1.TDM.Groups) != len(p4.TDM.Groups) {
		t.Fatalf("TDM group counts differ: %d vs %d", len(p1.TDM.Groups), len(p4.TDM.Groups))
	}
	for gi := range p1.TDM.Groups {
		if !reflect.DeepEqual(p1.TDM.Groups[gi].Devices, p4.TDM.Groups[gi].Devices) ||
			p1.TDM.Groups[gi].Level != p4.TDM.Groups[gi].Level {
			t.Fatalf("TDM group %d differs across worker counts", gi)
		}
	}
	if p1.Calib != p4.Calib {
		t.Errorf("campaign stats differ: %+v vs %+v", p1.Calib, p4.Calib)
	}
	if p1.ModelXY.Weights != p4.ModelXY.Weights || mustZZ(p1).Weights != mustZZ(p4).Weights {
		t.Error("fitted model weights differ across worker counts")
	}
}

// TestBuildPipelineDeadline: a deadline that cannot possibly fit the
// build surfaces context.DeadlineExceeded promptly.
func TestBuildPipelineDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := BuildPipelineCtx(ctx, chip.Square(8, 8), faultOpts(0))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation not prompt: took %v", elapsed)
	}
	var de *DesignError
	if !errors.As(err, &de) {
		t.Errorf("deadline error not wrapped in DesignError: %v", err)
	}
}

func TestBuildPipelineAllDead(t *testing.T) {
	opts := Options{Seed: 1, Faults: faults.Spec{DeadQubitRate: 1}}
	_, err := BuildPipeline(chip.Square(3, 3), opts)
	var de *DesignError
	if !errors.As(err, &de) {
		t.Fatalf("want DesignError, got %v", err)
	}
	if de.Stage != "faults" {
		t.Errorf("stage = %q, want faults", de.Stage)
	}
}

func TestDefectSweep(t *testing.T) {
	rates := []float64{0, 0.02, 0.05}
	points, err := DefectSweep(context.Background(), chip.Square(5, 5), rates, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(rates) {
		t.Fatalf("got %d points, want %d", len(points), len(rates))
	}
	clean := points[0]
	if clean.DeadQubits != 0 || clean.AliveQubits != 25 {
		t.Errorf("rate-0 point reports damage: %+v", clean)
	}
	for _, pt := range points {
		if pt.AliveQubits+pt.DeadQubits != 25 {
			t.Errorf("rate %.2f: alive %d + dead %d != 25", pt.Rate, pt.AliveQubits, pt.DeadQubits)
		}
		if pt.XYLines <= 0 || pt.ZLines <= 0 || pt.WiringCost <= 0 {
			t.Errorf("rate %.2f: degenerate wiring %+v", pt.Rate, pt)
		}
		if pt.GateFidelity <= 0 || pt.GateFidelity > 1 {
			t.Errorf("rate %.2f: fidelity %v out of range", pt.Rate, pt.GateFidelity)
		}
	}
}
