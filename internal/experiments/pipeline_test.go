package experiments

import (
	"testing"

	"repro/internal/chip"
)

func TestBuildPipelineSmallChip(t *testing.T) {
	c := chip.Square(4, 4)
	p, err := BuildPipeline(c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Partition != nil {
		t.Error("16-qubit chip should not be partitioned (target 36)")
	}
	if err := p.FDM.Validate(c.NumQubits()); err != nil {
		t.Errorf("FDM grouping invalid: %v", err)
	}
	if err := p.FreqPlan.Validate(p.FDM); err != nil {
		t.Errorf("frequency plan invalid: %v", err)
	}
	if err := p.TDM.Validate(p.Gates); err != nil {
		t.Errorf("TDM grouping invalid: %v", err)
	}
	if zz, _, err := p.ZZ(); p.ModelXY == nil || zz == nil || err != nil {
		t.Fatal("missing crosstalk models")
	}
	if p.ModelXY.Weights.WPhy == 0 && p.ModelXY.Weights.WTop == 0 {
		t.Error("degenerate XY model weights")
	}
}

func TestBuildPipelinePartitionsLargeChip(t *testing.T) {
	c := chip.Square(8, 8)
	p, err := BuildPipeline(c, Options{Seed: 1, PartitionTargetSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if p.Partition == nil {
		t.Fatal("64-qubit chip should be partitioned at target 16")
	}
	if err := p.Partition.Validate(c); err != nil {
		t.Errorf("partition invalid: %v", err)
	}
	if len(p.Partition.Regions) < 3 {
		t.Errorf("only %d regions", len(p.Partition.Regions))
	}
	// Groupings must still cover the whole chip.
	if err := p.FDM.Validate(c.NumQubits()); err != nil {
		t.Errorf("FDM grouping invalid: %v", err)
	}
	if err := p.TDM.Validate(p.Gates); err != nil {
		t.Errorf("TDM grouping invalid: %v", err)
	}
	if err := p.FreqPlan.Validate(p.FDM); err != nil {
		t.Errorf("frequency plan invalid: %v", err)
	}
}

func TestBuildPipelineDeterministic(t *testing.T) {
	c := chip.Square(4, 4)
	p1, err := BuildPipeline(c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPipeline(chip.Square(4, 4), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if p1.TDM.NumZLines() != p2.TDM.NumZLines() {
		t.Error("TDM results differ across identical seeds")
	}
	for q, f := range p1.FreqPlan.Freq {
		if p2.FreqPlan.Freq[q] != f {
			t.Fatalf("frequency plan differs at q%d", q)
		}
	}
}

func TestPipelineRespectsFDMCapacity(t *testing.T) {
	c := chip.Square(4, 4)
	p, err := BuildPipeline(c, Options{Seed: 1, FDMCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for li, g := range p.FDM.Groups {
		if len(g) > 4 {
			t.Errorf("line %d has %d qubits, capacity 4", li, len(g))
		}
	}
}

func TestScheduleBenchmarkThroughPipeline(t *testing.T) {
	c := chip.Square(4, 4)
	p, err := BuildPipeline(c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := p.ScheduleBenchmark("DJ", 5)
	if err != nil {
		t.Fatal(err)
	}
	if sched.TwoQubitDepth == 0 || sched.LatencyNs == 0 {
		t.Errorf("degenerate schedule: depth %d latency %v", sched.TwoQubitDepth, sched.LatencyNs)
	}
	if _, err := p.ScheduleBenchmark("nope", 5); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Seed != 1 || o.FDMCapacity != 5 || o.Theta != 4 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.MaxFitSamples != 1500 || o.PartitionTargetSize != 36 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if len(o.Fit.WeightGrid) == 0 || o.Fit.Folds != 5 {
		t.Errorf("fit defaults wrong: %+v", o.Fit)
	}
}
