package experiments

import (
	"repro/internal/crosstalk"
	"repro/internal/faults"
	"repro/internal/fdm"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/quantum"
	"repro/internal/route"
	"repro/internal/stage"
)

// Observe installs r as the process-global observer of every
// instrumented package the pipeline drives: the worker pool, the
// calibration fault accounting, the crosstalk fit, the quantum
// simulators, the routing arena and the anneal's sparse neighbor
// structure. Pass nil to uninstall. Per-build instrumentation (stage
// outcome counters, stage and build latency histograms) is wired
// separately through Options.Obs, which follows the build rather than
// the process.
func Observe(r *obs.Registry) {
	parallel.Observe(r)
	faults.Observe(r)
	crosstalk.Observe(r)
	quantum.Observe(r)
	route.Observe(r)
	fdm.Observe(r)
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
