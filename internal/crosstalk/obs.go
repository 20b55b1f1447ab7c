package crosstalk

import (
	"sync/atomic"

	"repro/internal/obs"
)

// fitObs caches the resolved characterization counters.
//
// fits, candidates, classes, trimmed and predictions are deterministic:
// the grid is fixed by FitConfig, its ordinal classes and their
// midpoint fallbacks are a pure function of the grid and the sample
// set, trimming is a pure function of the sample set, and the pipeline
// issues the same Predict calls for any worker count. classes counts
// the CV forests grown: one per ordinal class of weight candidates
// plus one per candidate re-run alone by the midpoint check.
// forestWalks is deliberately a gauge: it counts prediction-cache
// misses, and concurrent fills of Model.predCache may double-walk the
// forest for the same distance (benignly — the stored value is equal),
// so the miss count depends on scheduling and must not participate in
// the deterministic counter section.
type fitObs struct {
	fits        *obs.Counter
	candidates  *obs.Counter
	classes     *obs.Counter
	trimmed     *obs.Counter
	predictions *obs.Counter
	forestWalks *obs.Gauge
}

var observer atomic.Pointer[fitObs]

// Observe routes characterization instrumentation into r; nil disables
// it. Process-global, like parallel.Observe.
func Observe(r *obs.Registry) {
	if r == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fitObs{
		fits:        r.Counter("crosstalk/fits"),
		candidates:  r.Counter("crosstalk/fit_candidates"),
		classes:     r.Counter("crosstalk/fit_classes"),
		trimmed:     r.Counter("crosstalk/trimmed_samples"),
		predictions: r.Counter("crosstalk/predictions"),
		forestWalks: r.Gauge("crosstalk/forest_walks"),
	})
}
