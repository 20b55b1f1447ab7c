package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/xmon"
)

// designFingerprint serializes everything the pipeline designed —
// model weights and CV errors, partition regions, FDM lines, the full
// frequency plan and every TDM group — so two designs can be compared
// byte for byte.
func designFingerprint(p *Pipeline) string {
	zz := mustZZ(p)
	s := fmt.Sprintf("XY:%+v cv=%v ZZ:%+v cv=%v\n",
		p.ModelXY.Weights, p.ModelXY.CVError, zz.Weights, zz.CVError)
	if p.Partition != nil {
		s += fmt.Sprintf("partition:%v\n", p.Partition.Regions)
	}
	s += fmt.Sprintf("fdm:%v\n", p.FDM.Groups)
	for q := 0; q < p.Chip.NumQubits(); q++ {
		s += fmt.Sprintf("f[%d]=%v ", q, p.FreqPlan.Freq[q])
	}
	s += "\n"
	for _, g := range p.TDM.Groups {
		s += fmt.Sprintf("tdm:%v@%v\n", g.Devices, g.Level)
	}
	return s
}

// mustZZ returns p's ZZ model, recalling it if need be.
func mustZZ(p *Pipeline) *crosstalk.Model {
	zz, _, err := p.ZZ()
	if err != nil {
		panic(err)
	}
	return zz
}

// TestPipelineWorkerCountInvariant is the end-to-end determinism
// regression test of the parallel execution layer: the complete design
// with Workers=4 must be bit-identical to Workers=1 for three seeds.
// The 8×8 chip with a small partition target exercises every parallel
// stage — campaign, grid search, per-region FDM and TDM.
func TestPipelineWorkerCountInvariant(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var prints [2]string
		var pipes [2]*Pipeline
		for wi, workers := range []int{1, 4} {
			p, err := BuildPipeline(chip.Square(8, 8), Options{
				Seed:                seed,
				Workers:             workers,
				PartitionTargetSize: 16,
			})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			prints[wi] = designFingerprint(p)
			pipes[wi] = p
		}
		if prints[0] != prints[1] {
			t.Errorf("seed %d: design differs between Workers=1 and Workers=4:\n--- sequential ---\n%s--- parallel ---\n%s",
				seed, prints[0], prints[1])
		}
		// The fabricated device must be identical too (fabrication is
		// worker-independent by construction).
		seqXT := pipes[0].Device.CrosstalkMatrix(xmon.XY)
		parXT := pipes[1].Device.CrosstalkMatrix(xmon.XY)
		if !reflect.DeepEqual(seqXT, parXT) {
			t.Errorf("seed %d: fabricated devices differ", seed)
		}
	}
}

// TestPipelineWorkerCountInvariantSmallChip covers the unpartitioned
// path (single region) with annealed allocation enabled.
func TestPipelineWorkerCountInvariantSmallChip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var prints [2]string
		for wi, workers := range []int{1, 4} {
			p, err := BuildPipeline(chip.Square(4, 4), Options{
				Seed:        seed,
				Workers:     workers,
				AnnealSteps: 300,
			})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			prints[wi] = designFingerprint(p)
		}
		if prints[0] != prints[1] {
			t.Errorf("seed %d: small-chip design differs across worker counts", seed)
		}
	}
}

// TestFig17WorkerCountInvariant checks the scalesim calibration path:
// the calibrated fan-outs and every sweep point must match across
// worker counts.
func TestFig17WorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("fig17 runs three full pipelines")
	}
	var results [2]*Fig17Result
	for wi, workers := range []int{1, 4} {
		res, err := Fig17(Options{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		results[wi] = res
	}
	seq, par := results[0], results[1]
	if seq.ZFanoutSquare != par.ZFanoutSquare || seq.ZFanoutHeavyHex != par.ZFanoutHeavyHex {
		t.Errorf("fan-outs differ: (%v,%v) vs (%v,%v)",
			seq.ZFanoutSquare, seq.ZFanoutHeavyHex, par.ZFanoutSquare, par.ZFanoutHeavyHex)
	}
	if !reflect.DeepEqual(seq.SmallSweep, par.SmallSweep) || !reflect.DeepEqual(seq.LargeSweep, par.LargeSweep) {
		t.Error("sweeps differ across worker counts")
	}
	if seq.System150 != par.System150 {
		t.Errorf("150q panel differs: %+v vs %+v", seq.System150, par.System150)
	}
}
