package faults

import (
	"context"

	"repro/internal/obs"
)

// obsRecord folds one finished campaign's stats into the registry ctx
// carries, if any. Every counter mirrors a CampaignStats field, which
// is deterministic in (chip, Spec, seed) and invariant in the worker
// count — so they satisfy obs's counter contract and survive manifest
// diffs.
func obsRecord(ctx context.Context, s CampaignStats) {
	r := obs.FromContext(ctx)
	if r == nil {
		return
	}
	r.Counter("faults/pairs").Add(int64(s.Pairs))
	r.Counter("faults/skipped_dead").Add(int64(s.SkippedDead))
	r.Counter("faults/dropouts").Add(int64(s.Dropouts))
	r.Counter("faults/retried").Add(int64(s.Retried))
	r.Counter("faults/lost_pairs").Add(int64(s.LostPairs))
	r.Counter("faults/outliers").Add(int64(s.Outliers))
}
