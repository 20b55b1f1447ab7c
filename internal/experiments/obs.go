package experiments

import (
	"context"

	"repro/internal/crosstalk"
	"repro/internal/obs"
	"repro/internal/stage"
)

// pairs returns p's pair lookup (crosstalk.Predictor.Predict) and counts
// the n(n-1)/2 predictions of one matrix as "crosstalk/predictions"
// into the registry ctx carries. The predictor is a cached artifact
// shared across builds, so the stage that reads it does the counting.
func pairs(ctx context.Context, p *crosstalk.Predictor) func(i, j int) float64 {
	n := int64(p.NumQubits())
	obs.FromContext(ctx).Counter("crosstalk/predictions").Add(n * (n - 1) / 2)
	return p.Predict
}

// Digest returns a stable hex digest of every normalized option that
// participates in the designed artifact — the manifest's identity for
// "same design inputs". Workers, Fit.Workers and Obs are excluded by
// the determinism contract: they change how the pipeline runs, never
// what it designs.
func (o Options) Digest() string {
	n := o.normalized()
	b := stage.NewKey("options").
		Int64(n.Seed).
		Int(n.FDMCapacity).
		Float64(n.Theta).Bool(n.HasTheta).
		Int(n.PartitionTargetSize).
		Int(n.MaxFitSamples).Bool(n.HasMaxFitSamples).
		Bool(n.SparseQubitZ).
		Float64(n.TDMMinLossyFraction).
		Int(n.TDMLossyLimit).
		Int(n.AnnealSteps).
		Floats(n.Fit.WeightGrid).
		Int(n.Fit.Folds).
		Int(n.Fit.Forest.NumTrees).
		Int(n.Fit.Forest.Tree.MaxDepth).
		Int(n.Fit.Forest.Tree.MinLeafSize).
		Int(n.Fit.Forest.Tree.MaxFeatures).
		Int64(n.Fit.Forest.Seed).
		Float64(n.Fit.TrimOutlierFraction).
		Float64(n.Faults.DeadQubitRate).
		Float64(n.Faults.BrokenCouplerRate).
		Float64(n.Faults.StuckLossyRate).
		Float64(n.Faults.DropoutRate).
		Float64(n.Faults.OutlierRate).
		Float64(n.Faults.OutlierScale).
		Int(n.RetryBudget)
	return string(b.Done())
}
