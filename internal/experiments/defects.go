package experiments

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/wiring"
)

// DefectPoint is one row of the defect sweep: the designed system for a
// chip degraded at a uniform defect rate, with the wiring and fidelity
// the degraded design still achieves.
type DefectPoint struct {
	// Rate is the uniform defect rate applied to every fault class.
	Rate float64
	// AliveQubits, DeadQubits, BrokenCouplers and StuckLossy summarize
	// the drawn fault plan.
	AliveQubits    int
	DeadQubits     int
	BrokenCouplers int
	StuckLossy     int
	// Calib is the calibration campaign accounting (dropouts, retries,
	// lost pairs, outliers) at this rate.
	Calib faults.CampaignStats
	// XYLines, ZLines and CoaxLines are the degraded design's wiring.
	XYLines   int
	ZLines    int
	CoaxLines int
	// WiringCost is the plan's cost under cost.DefaultModel.
	WiringCost float64
	// GateFidelity is the per-gate fidelity of Fig12Layers rounds of
	// simultaneous 1q drives over the alive qubits.
	GateFidelity float64
	// CacheHits and CacheMisses count the artifact-store traffic of this
	// point's build: hits are stages recalled from an earlier point
	// (fabrication is shared across the whole sweep; repeated rates reuse
	// everything), misses are stages that actually executed.
	CacheHits   int
	CacheMisses int
}

// DefectSweep designs the chip at each uniform defect rate and reports
// how gracefully the pipeline degrades: every returned point passed
// Pipeline.Validate, so a sweep that completes certifies the
// degradation contract across the rate range. Rates must be
// non-decreasing in damage tolerance — a rate that kills the whole
// chip aborts the sweep with the failing rate in the error.
//
// All points build through one Designer, so stages whose keyed inputs
// repeat across rates (fabrication always; everything for a repeated
// rate) are recalled from the artifact store instead of re-executed;
// each point logs its hit/miss counts.
func DefectSweep(ctx context.Context, c *chip.Chip, rates []float64, opts Options) ([]DefectPoint, error) {
	return DefectSweepWith(ctx, NewDesigner(c), rates, opts)
}

// DefectSweepWith is DefectSweep over a caller-provided Designer —
// typically one handed out by a persistent DesignCache, so a re-run
// sweep recalls every point's stages from the warm disk tier instead
// of re-executing them.
func DefectSweepWith(ctx context.Context, designer *Designer, rates []float64, opts Options) ([]DefectPoint, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("experiments: defect sweep needs at least one rate")
	}
	model := cost.DefaultModel()
	points := make([]DefectPoint, 0, len(rates))
	for _, rate := range rates {
		o := opts
		o.Faults = faults.UniformSpec(rate)
		before := designer.Report()
		p, err := designer.RedesignCtx(ctx, o)
		if err != nil {
			return points, fmt.Errorf("experiments: defect sweep at rate %.3f: %w", rate, err)
		}
		delta := designer.Report().Sub(before)
		if err := p.Validate(); err != nil {
			return points, fmt.Errorf("experiments: defect sweep at rate %.3f: %w", rate, err)
		}
		plan, err := wiring.Youtiao(p.Chip, p.FDM, p.TDM)
		if err != nil {
			return points, fmt.Errorf("experiments: defect sweep at rate %.3f: wiring: %w", rate, err)
		}
		calib, err := p.CampaignStats()
		if err != nil {
			return points, fmt.Errorf("experiments: defect sweep at rate %.3f: %w", rate, err)
		}
		alive := p.aliveQubits()
		total := planLayerFidelity(p.Device, p.FreqPlan.Freq, alive, Fig12Layers)
		pt := DefectPoint{
			Rate:         rate,
			AliveQubits:  len(alive),
			XYLines:      plan.XYLines,
			ZLines:       plan.ZLines,
			CoaxLines:    plan.CoaxLines(),
			WiringCost:   model.WiringCost(plan),
			GateFidelity: perGate(total, Fig12Layers*len(alive)),
			Calib:        calib,
			CacheHits:    delta.Hits + delta.DiskHits,
			CacheMisses:  delta.Misses,
		}
		if p.Faults != nil {
			pt.DeadQubits = len(p.Faults.DeadQubits())
			pt.BrokenCouplers = len(p.Faults.BrokenCouplers())
			pt.StuckLossy = p.Faults.StuckLossyCount()
		}
		points = append(points, pt)
	}
	return points, nil
}
