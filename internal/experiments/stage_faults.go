package experiments

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// faultsParams keys the fault-plan draw: the design seed that feeds the
// plan's RNG stream and every rate of the spec.
func faultsParams(b *build, k *stage.KeyBuilder) {
	spec := b.opts.Faults
	k.Int64(b.seed).
		Float64(spec.DeadQubitRate).Float64(spec.BrokenCouplerRate).
		Float64(spec.StuckLossyRate).Float64(spec.DropoutRate).
		Float64(spec.OutlierRate).Float64(spec.OutlierScale)
}

// runFaults draws the fault plan. A disabled spec yields a nil plan —
// the perfect-device path, bit-identical to the historical fault-free
// pipeline. A plan that kills every qubit is an error (and, like all
// stage errors, is never cached).
func runFaults(_ context.Context, b *build, in []any) (any, error) {
	if !b.opts.Faults.Enabled() {
		return (*faults.Plan)(nil), nil
	}
	c := get[*xmon.Device](in, nFabricate).Chip
	plan, err := faults.New(c, b.opts.Faults, parallel.TaskSeed(b.seed, streamFaults))
	if err != nil {
		return nil, err
	}
	if len(plan.AliveQubits(c.NumQubits())) == 0 {
		return nil, fmt.Errorf("fault plan killed all %d qubits (defect rate %.3f too high for this chip)",
			c.NumQubits(), b.opts.Faults.DeadQubitRate)
	}
	return plan, nil
}
