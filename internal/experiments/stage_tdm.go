package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stage"
	"repro/internal/tdm"
	"repro/internal/xmon"
)

// tdmGates is the artifact of the tdm-gates stage: everything the TDM
// grouping reads that no tdm option changes. A Theta sweep recalls it
// and re-runs only the grouping search.
type tdmGates struct {
	// Gates is the parallelism analysis of the usable gate sites.
	Gates *tdm.GateInfo
	// Qubit a's noisy out-neighbours, the qubits whose predicted ZZ
	// crosstalk with a exceeds the grouping's noise threshold, are
	// Noisy[NoisyStart[a]:NoisyStart[a+1]] (crosstalk.Predictor.Above).
	NoisyStart, Noisy []int32
	// Regions[ri] lists region ri's devices to group in tdm.SortByIndex
	// order, and Isolated[ri] its stuck-lossy devices, ascending: the
	// inputs of tdm.GroupSortedNoise.
	Regions, Isolated [][]int

	// noise[ri] is region ri's noise tables (tdm.NewNoise), built once,
	// at the artifact's first tdm run, under the noise settings every
	// run shares; they are not encoded.
	noiseOnce sync.Once
	noise     []*tdm.Noise
	noiseErr  error
}

// noiseTables returns every region's noise tables, built under cfg on
// the first call.
func (tg *tdmGates) noiseTables(cfg tdm.Config) ([]*tdm.Noise, error) {
	tg.noiseOnce.Do(func() {
		tg.noise = make([]*tdm.Noise, len(tg.Regions))
		for ri, devs := range tg.Regions {
			if tg.noise[ri], tg.noiseErr = tdm.NewNoise(tg.Gates, devs, cfg); tg.noiseErr != nil {
				tg.noiseErr = fmt.Errorf("region %d: %w", ri, tg.noiseErr)
				return
			}
		}
	})
	return tg.noise, tg.noiseErr
}

// noisy lists qubit a's noisy out-neighbours (tdm.Config.Noisy).
func (tg *tdmGates) noisy(a int) []int32 { return tg.Noisy[tg.NoisyStart[a]:tg.NoisyStart[a+1]] }

// runTDMGates analyzes the usable gate sites, lists the noisy qubit
// pairs and splits and sorts every region's devices for the grouping:
// the Theta-independent part of TDM design, keyed by the fault,
// partition and ZZ-model lineage alone. A fault plan drops unusable
// gate sites from the parallelism analysis and broken or dead couplers
// from the device sets, and marks stuck-lossy devices for dedicated
// direct lines. The lists are checked against the ZZ predictor on
// every local qubit's pairs, once per execution, where the grouping
// itself checks one qubit per region on every run.
func runTDMGates(ctx context.Context, _ *build, in []any) (any, error) {
	c := get[*xmon.Device](in, nFabricate).Chip
	plan := get[*faults.Plan](in, nFaults)
	zz := get[*characterization](in, nCharacterizeZZ).Pred
	tg := prepareTDMGates(c, plan, get[*partition.Partition](in, nPartition), zz)
	if err := tg.checkNoisy(pairs(ctx, zz)); err != nil {
		return nil, err
	}
	return tg, nil
}

// prepareTDMGates builds the tdm-gates artifact, unchecked.
func prepareTDMGates(c *chip.Chip, plan *faults.Plan, part *partition.Partition, zz *crosstalk.Predictor) *tdmGates {
	var usableGate func(chip.TwoQubitGate) bool
	if plan != nil {
		usableGate = func(g chip.TwoQubitGate) bool { return plan.GateUsable(c, g) }
	}
	gates := tdm.AnalyzeGatesUsable(c, usableGate)
	tg := &tdmGates{Gates: gates}
	tg.NoisyStart, tg.Noisy = zz.Above(tdm.DefaultConfig(nil).NoiseThreshold)
	regions := regionsOf(part, plan.AliveQubits(c.NumQubits()))
	couplerRegions := couplerRegionsOf(part, c)
	idx := gates.AllParallelismIndices()
	tg.Regions, tg.Isolated = make([][]int, len(regions)), make([][]int, len(regions))
	for ri, region := range regions {
		var rest, isolated []int
		add := func(dev int, stuck bool) {
			if stuck {
				isolated = append(isolated, dev)
			} else {
				rest = append(rest, dev)
			}
		}
		for _, q := range region {
			add(q, plan.QubitStuckLossy(q))
		}
		for ci, cr := range couplerRegions {
			if cr == ri && plan.CouplerUsable(c, ci) {
				add(gates.Dev.CouplerDevice(ci), plan.CouplerStuckLossy(ci))
			}
		}
		sort.Ints(isolated)
		tg.Regions[ri], tg.Isolated[ri] = tdm.SortByIndex(rest, idx), isolated
	}
	return tg
}

// checkNoisy checks the noisy lists against the ZZ crosstalk zz on the
// pairs of every local qubit of every region (tdm.CheckNoisy).
func (tg *tdmGates) checkNoisy(zz func(i, j int) float64) error {
	cfg := tdm.DefaultConfig(zz)
	cfg.Noisy = tg.noisy
	for ri, devs := range tg.Regions {
		if err := tdm.CheckNoisy(tg.Gates, devs, cfg); err != nil {
			return fmt.Errorf("region %d: %w", ri, err)
		}
	}
	return nil
}

// tdmParams keys the TDM stage after its tdm-gates and ZZ-model
// lineage: exactly the options the stage reads. Theta lives here and
// nowhere upstream, which is what makes a Theta sweep re-run only this
// stage.
func tdmParams(b *build, k *stage.KeyBuilder) {
	k.Float64(b.opts.Theta).Bool(b.opts.SparseQubitZ).
		Float64(b.opts.TDMMinLossyFraction).Int(b.opts.TDMLossyLimit)
}

// runTDM groups qubits and couplers onto shared readout/Z lines,
// region by region, from the tdm-gates artifact; stuck-lossy devices
// close each region's plan as dedicated direct lines. The grouping
// reads ZZ crosstalk through the predictor's pair table (pairs), which
// counts as one matrix of predictions per execution, and its noisy
// qubit pairs from the tdm-gates lists, through the noise tables the
// artifact builds at its first tdm run.
func runTDM(ctx context.Context, b *build, in []any) (any, error) {
	opts := b.opts
	tg := get[*tdmGates](in, nTDMGates)
	cfg := tdm.DefaultConfig(pairs(ctx, get[*characterization](in, nCharacterizeZZ).Pred))
	cfg.Noisy = tg.noisy
	cfg.Theta = opts.Theta
	cfg.SparseQubitZ = opts.SparseQubitZ
	if opts.TDMMinLossyFraction > 0 {
		cfg.MinLossyFraction = opts.TDMMinLossyFraction
	}
	if opts.TDMLossyLimit > 0 {
		cfg.LossyLimit = opts.TDMLossyLimit
	}
	noise, err := tg.noiseTables(cfg)
	if err != nil {
		return nil, err
	}
	results := make([]*tdm.Grouping, len(tg.Regions))
	err = parallel.ForEachCtx(ctx, opts.Workers, len(tg.Regions), func(ri int) error {
		var err error
		results[ri], err = tdm.GroupSortedNoise(tg.Gates, tg.Regions[ri], tg.Isolated[ri], noise[ri], cfg)
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
	grouping := &tdm.Grouping{Theta: cfg.Theta, Groups: make([]tdm.Group, 0, total)}
	for _, r := range results {
		grouping.Groups = append(grouping.Groups, r.Groups...)
	}
	return grouping, nil
}
