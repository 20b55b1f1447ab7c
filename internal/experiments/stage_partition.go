package experiments

import (
	"context"
	"math/rand"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// partitionSeed is the seed of the generative partition's stream.
func (b *build) partitionSeed() int64 { return parallel.TaskSeed(b.seed, streamPartition) }

// partitionParams keys the generative partition after its fault and
// XY-model lineage (the partition walks the equivalent-distance metric
// of the fitted XY model): the region target and the partition seed.
func partitionParams(b *build, k *stage.KeyBuilder) {
	k.Int(b.opts.PartitionTargetSize).Int64(b.partitionSeed())
}

// runPartition generates the chip partition, excluding dead qubits.
// Chips at or below one region yield a nil partition — the whole-chip
// design path.
func runPartition(_ context.Context, b *build, in []any) (any, error) {
	c := get[*xmon.Device](in, nFabricate).Chip
	plan := get[*faults.Plan](in, nFaults)
	target := b.opts.PartitionTargetSize
	if len(plan.AliveQubits(c.NumQubits())) <= target {
		return (*partition.Partition)(nil), nil
	}
	rng := rand.New(rand.NewSource(b.partitionSeed()))
	cfg := partition.Config{TargetSize: target}
	if plan != nil {
		cfg.Exclude = plan.QubitDead
	}
	return partition.Generate(c, get[*characterization](in, nCharacterizeXY).Pred.EquivDistance, cfg, rng)
}

// regionsOf returns the partition's regions, or one whole-(alive-)chip
// region for a nil partition.
func regionsOf(part *partition.Partition, alive []int) [][]int {
	if part != nil {
		return part.Regions
	}
	return [][]int{alive}
}

// couplerRegionsOf returns the region index per coupler (all zero for a
// nil partition).
func couplerRegionsOf(part *partition.Partition, c *chip.Chip) []int {
	if part != nil {
		return part.CouplerRegion(c)
	}
	return make([]int, c.NumCouplers())
}
