package experiments

import "repro/internal/stage"

// DesignError reports which pipeline stage failed, so callers (and
// operators reading logs) see where a degraded design gave up instead
// of a bare cause. It wraps the stage's underlying error; errors.Is /
// errors.As see through it, so context cancellation and sentinel
// checks keep working.
//
// Stage is the failing node of PipelineStageGraph — "fabricate",
// "faults", "characterize-xy", "characterize-zz", "partition",
// "tdm-gates", "fdm-group", "allocate", "anneal" or "tdm" — or, from
// Pipeline.Validate, the check that failed: "validate", "partition",
// "fdm-group", "allocate" or "tdm".
type DesignError = stage.Error
