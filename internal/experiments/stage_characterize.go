package experiments

import (
	"context"

	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// characterization is the artifact of one characterize stage: a fitted
// crosstalk model, its predictor bound to the measured device's chip
// and the campaign's fault accounting. The predictor is cached with the
// model because binding (crosstalk.Model.On) builds the pair table
// that the design stages downstream read, so a redesign rebinds
// nothing.
type characterization struct {
	Model *crosstalk.Model
	Pred  *crosstalk.Predictor
	Stats faults.CampaignStats
}

// characterizeNode declares one channel's measure-and-fit. After the
// device and fault lineage its key holds the seed streams and exactly
// the normalized-options subset the stage reads (sample cap, retry
// budget and the full fit search space). Workers is deliberately
// absent — results are bit-identical for every worker count, so a
// cached fit is valid at any parallelism. unread is the node's
// stage.Node.Unread.
func characterizeNode(name string, kind xmon.CrosstalkKind, measureStream, subStream uint64, unread func(*build) bool) stage.Node[*build] {
	return stage.Node[*build]{
		Name:     name,
		Unread:   unread,
		Inputs:   []string{StageFabricate, StageFaults},
		Parallel: true,
		Params: func(b *build, k *stage.KeyBuilder) {
			o := b.opts
			k.Int64(b.seed).Uint64(measureStream).Uint64(subStream).
				Int(o.MaxFitSamples).Int(o.RetryBudget).
				Floats(o.Fit.WeightGrid).Int(o.Fit.Folds).
				Int(o.Fit.Forest.NumTrees).Int64(o.Fit.Forest.Seed).
				Int(o.Fit.Forest.Tree.MaxDepth).
				Int(o.Fit.Forest.Tree.MinLeafSize).
				Int(o.Fit.Forest.Tree.MaxFeatures).
				Float64(o.Fit.TrimOutlierFraction)
		},
		Run: func(ctx context.Context, b *build, in []any) (any, error) {
			dev := get[*xmon.Device](in, nFabricate)
			m, stats, err := fitModel(ctx, dev.Chip, dev, kind, b.opts, b.seed, measureStream, subStream, get[*faults.Plan](in, nFaults))
			if err != nil {
				return nil, err
			}
			return &characterization{Model: m, Pred: m.On(dev.Chip), Stats: stats}, nil
		},
		Codec: characterizeCodec,
	}
}

// fitModel measures one crosstalk channel and fits the characterization
// model, subsampling large campaigns. The measurement campaign and the
// subsample draw run on their own streams of the design seed. With a
// nil (or disabled) fault plan the campaign is the historical
// MeasureSeeded path, bit for bit; otherwise dropouts are retried
// within opts.RetryBudget and surviving samples may carry injected
// outliers (trimmed by the fit when configured).
func fitModel(ctx context.Context, c *chip.Chip, dev *xmon.Device, kind xmon.CrosstalkKind, opts Options, designSeed int64, measureStream, subStream uint64, plan *faults.Plan) (*crosstalk.Model, faults.CampaignStats, error) {
	samples, stats, err := faults.Measure(ctx, dev, kind, 0.05, parallel.TaskSeed(designSeed, measureStream), opts.Workers, opts.RetryBudget, plan)
	if err != nil {
		return nil, stats, err
	}
	if opts.MaxFitSamples > 0 && len(samples) > opts.MaxFitSamples {
		rng := parallel.TaskRand(designSeed, subStream)
		perm := rng.Perm(len(samples))[:opts.MaxFitSamples]
		sub := make([]xmon.Sample, len(perm))
		for i, pi := range perm {
			sub[i] = samples[pi]
		}
		samples = sub
	}
	m, err := crosstalk.FitCtx(ctx, c, samples, opts.Fit)
	return m, stats, err
}
