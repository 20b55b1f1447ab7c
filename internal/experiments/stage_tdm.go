package experiments

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stage"
	"repro/internal/tdm"
	"repro/internal/xmon"
)

// tdmDesign is the artifact of the tdm stage: the gate-site parallelism
// analysis and the readout/Z grouping built from it.
type tdmDesign struct {
	Gates    *tdm.GateInfo
	Grouping *tdm.Grouping
}

// tdmParams keys the TDM stage after its fault, partition and ZZ-model
// lineage: exactly the options the stage reads. Theta lives here and
// nowhere upstream, which is what makes a Theta sweep re-run only this
// stage.
func tdmParams(b *build, k *stage.KeyBuilder) {
	k.Float64(b.opts.Theta).Bool(b.opts.SparseQubitZ).
		Float64(b.opts.TDMMinLossyFraction).Int(b.opts.TDMLossyLimit)
}

// runTDM analyzes gate parallelism and groups qubits and couplers onto
// shared readout/Z lines, region by region. A fault plan drops unusable
// gate sites from the parallelism analysis, removes broken/dead
// couplers from the device sets and forces stuck-lossy devices onto
// dedicated direct lines. The grouping reads ZZ crosstalk through
// zz's uncounted pair lookup (crosstalk.Predictor.Pairs), which counts
// as one matrix of predictions per execution, and its noisy qubit
// pairs from zz's list of the pairs above the noise threshold.
func runTDM(ctx context.Context, b *build, in []any) (any, error) {
	opts := b.opts
	c := get[*xmon.Device](in, nFabricate).Chip
	plan := get[*faults.Plan](in, nFaults)
	part := get[*partition.Partition](in, nPartition)
	zz := get[*characterization](in, nCharacterizeZZ).Pred
	var usableGate func(chip.TwoQubitGate) bool
	if plan != nil {
		usableGate = func(g chip.TwoQubitGate) bool { return plan.GateUsable(c, g) }
	}
	gates := tdm.AnalyzeGatesUsable(c, usableGate)
	cfg := tdm.DefaultConfig(zz.Pairs())
	start, noisy := zz.Above(cfg.NoiseThreshold)
	cfg.Noisy = func(a int) []int32 { return noisy[start[a]:start[a+1]] }
	cfg.Theta = opts.Theta
	cfg.SparseQubitZ = opts.SparseQubitZ
	if opts.TDMMinLossyFraction > 0 {
		cfg.MinLossyFraction = opts.TDMMinLossyFraction
	}
	if opts.TDMLossyLimit > 0 {
		cfg.LossyLimit = opts.TDMLossyLimit
	}
	if plan != nil {
		cfg.Isolate = func(dev int) bool {
			if gates.Dev.IsCoupler(dev) {
				return plan.CouplerStuckLossy(gates.Dev.CouplerID(dev))
			}
			return plan.QubitStuckLossy(dev)
		}
	}
	regions := regionsOf(part, plan.AliveQubits(c.NumQubits()))
	couplerRegions := couplerRegionsOf(part, c)
	regionDevs := make([][]int, len(regions))
	couplers := make([]int, len(regions))
	for _, cr := range couplerRegions {
		if cr >= 0 && cr < len(regions) {
			couplers[cr]++
		}
	}
	for ri, region := range regions {
		devs := append(make([]int, 0, len(region)+couplers[ri]), region...)
		for ci, cr := range couplerRegions {
			if cr == ri && plan.CouplerUsable(c, ci) {
				devs = append(devs, gates.Dev.CouplerDevice(ci))
			}
		}
		regionDevs[ri] = devs
	}
	grouping := &tdm.Grouping{Theta: cfg.Theta}
	results := make([]*tdm.Grouping, len(regions))
	err := parallel.ForEachCtx(ctx, opts.Workers, len(regions), func(ri int) error {
		var err error
		results[ri], err = tdm.GroupDevices(gates, regionDevs[ri], cfg)
		if err != nil {
			return fmt.Errorf("region %d: %w", ri, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, r := range results {
		total += len(r.Groups)
	}
	grouping.Groups = make([]tdm.Group, 0, total)
	for _, r := range results {
		grouping.Groups = append(grouping.Groups, r.Groups...)
	}
	return &tdmDesign{Gates: gates, Grouping: grouping}, nil
}
