package experiments

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/fdm"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// fdmGroupParams keys the per-region FDM grouping after its partition
// and XY-model lineage: the line capacity. The region list is a pure
// function of the partition artifact (and the fault plan upstream of
// it), so it rides on the partition key.
func fdmGroupParams(b *build, k *stage.KeyBuilder) { k.Int(b.opts.FDMCapacity) }

// runFDMGroup groups every region's qubits onto shared XY lines,
// fanning regions out over the worker pool and assembling in region
// order so the artifact is deterministic.
func runFDMGroup(ctx context.Context, b *build, in []any) (any, error) {
	c := get[*xmon.Device](in, nFabricate).Chip
	regions := regionsOf(get[*partition.Partition](in, nPartition), get[*faults.Plan](in, nFaults).AliveQubits(c.NumQubits()))
	dist := get[*characterization](in, nCharacterizeXY).Pred.EquivDistance
	capacity := b.opts.FDMCapacity
	results := make([]*fdm.Grouping, len(regions))
	err := parallel.ForEachCtx(ctx, b.opts.Workers, len(regions), func(ri int) error {
		var err error
		results[ri], err = fdm.Group(regions[ri], capacity, dist)
		if err != nil {
			return fmt.Errorf("region %d: %w", ri, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &fdm.Grouping{Capacity: capacity}
	for _, r := range results {
		out.Groups = append(out.Groups, r.Groups...)
	}
	return out, nil
}

// runAllocate runs the greedy two-level frequency allocation. It reads
// only the FDM grouping and the XY predictor, both already in its key,
// and reads XY crosstalk through the predictor's pair table (pairs):
// Predict's values, counted as one matrix of predictions per execution.
func runAllocate(ctx context.Context, _ *build, in []any) (any, error) {
	return fdm.Allocate(get[*fdm.Grouping](in, nFDMGroup),
		pairs(ctx, get[*characterization](in, nCharacterizeXY).Pred), fdm.DefaultAllocOptions())
}

// annealParams keys the simulated-annealing refinement after the
// allocation it starts from: the step budget and the anneal seed.
func annealParams(b *build, k *stage.KeyBuilder) { k.Int(b.opts.AnnealSteps).Int64(b.opts.Seed) }

// runAnneal refines the allocated frequency plan with simulated
// annealing, reading XY crosstalk through the pair table as allocate
// does. fdm.Anneal returns a fresh plan, so the cached input stays
// immutable.
func runAnneal(ctx context.Context, b *build, in []any) (any, error) {
	opts := fdm.DefaultAnnealOptions()
	opts.Steps = b.opts.AnnealSteps
	opts.Seed = b.opts.Seed
	out, _, _, err := fdm.Anneal(get[*fdm.FrequencyPlan](in, nAllocate), get[*fdm.Grouping](in, nFDMGroup),
		pairs(ctx, get[*characterization](in, nCharacterizeXY).Pred), opts)
	return out, err
}
