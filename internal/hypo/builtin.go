package hypo

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	youtiao "repro"
	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fdm"
	"repro/internal/mlfit"
	"repro/internal/obs"
	"repro/internal/scalesim"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/xmon"
)

// Builtin experiment parameters. The chips are deliberately moderate —
// the claims under test are about structure (cache reuse, determinism,
// robust fitting), not absolute scale, and the deterministic tier runs
// on every CI push.
const (
	builtinChipSide = 5 // 25 qubits, 40 couplers
	// h1ChipSide is larger than the shared chip: the warm side re-runs
	// only the tdm stage, whose cost grows far slower than the full
	// pipeline's, so a bigger chip widens the cold/warm ratio and keeps
	// the measurement comfortably clear of its floor under timer noise.
	h1ChipSide = 7 // 49 qubits, 84 couplers
	// h1MinSpeedup is H1's predicted direction: the claim folklore says
	// ~1850x, the hypothesis requires >= 100x so the experiment stays
	// meaningful on slow shared runners.
	h1MinSpeedup = 100.0
	// h3Tolerance: the trimmed fit must land within 20% of the
	// fault-free CV error.
	h3Tolerance = 0.20
	// h4HitRateFloor is the stated stage-cache hit-rate floor under the
	// defect sweep (repeated rates re-use whole builds; distinct rates
	// share fabrication).
	h4HitRateFloor = 0.30
	// h9FairnessCap bounds the max/min per-tenant completion ratio of
	// the steady-state workload: sharing one cache must not starve any
	// tenant past 2x.
	h9FairnessCap = 2.0
)

func builtinChip() *chip.Chip { return chip.Square(builtinChipSide, builtinChipSide) }

// builtinFitConfig mirrors the pipeline's fast default fit (see
// experiments.Options.normalized) so H3 measures the configuration the
// design flow actually uses.
func builtinFitConfig() crosstalk.FitConfig {
	return crosstalk.FitConfig{
		WeightGrid: []float64{0, 0.25, 0.5, 1.0},
		Folds:      5,
		Forest: mlfit.ForestConfig{
			NumTrees: 12,
			Tree:     mlfit.TreeConfig{MaxDepth: 10, MinLeafSize: 4},
			Seed:     1,
		},
		Workers: 1,
	}
}

// Builtin returns the repository's experiment registry: the claims the
// codebase already makes (CHANGES.md PRs 1-5, EXPERIMENTS.md) turned
// into checked hypotheses.
func Builtin() *Registry {
	r := NewRegistry()
	r.MustRegister(&Experiment{
		ID:    "H1-warm-redesign",
		Claim: fmt.Sprintf("A warm Theta-only Redesign is >= %.0fx faster than a cold build at the same options and returns a bit-identical design.", h1MinSpeedup),
		Class: Statistical,
		Run:   runWarmRedesign,
	})
	r.MustRegister(&Experiment{
		ID:    "H2-worker-invariance",
		Claim: "The designed system and its stripped observability snapshot are bit-identical for Workers in {1, 4, 8}, and the scalesim sweep is slice-identical up to 1M qubits for any worker count.",
		Class: Deterministic,
		Run:   runWorkerInvariance,
	})
	r.MustRegister(&Experiment{
		ID:    "H3-trim-recovery",
		Claim: fmt.Sprintf("Under heavy-tailed outlier injection, TrimOutlierFraction recovers the crosstalk fit to within %.0f%% of the fault-free CV error.", h3Tolerance*100),
		Class: Statistical,
		Run:   runTrimRecovery,
	})
	r.MustRegister(&Experiment{
		ID:    "H4-cache-hit-rate",
		Claim: fmt.Sprintf("Across a defect sweep with repeated rates, the stage-cache hit rate measured from obs counters exceeds %.0f%%.", h4HitRateFloor*100),
		Class: Statistical,
		Run:   runCacheHitRate,
	})
	r.MustRegister(&Experiment{
		ID:    "H5-manifest-strip",
		Claim: "Manifest.StripTimings() of two independent, identically-configured runs is byte-identical, including stage report and observability snapshot.",
		Class: Deterministic,
		Run:   runManifestStrip,
	})
	r.MustRegister(&Experiment{
		ID:    "H6-serve-coalescing",
		Claim: fmt.Sprintf("%d concurrent identical design requests against youtiao-serve execute each pipeline stage exactly once and return byte-identical designs and stripped manifests.", h6Requests),
		Class: Deterministic,
		Run:   runServeCoalescing,
	})
	r.MustRegister(&Experiment{
		ID:    "H7-sparse-anneal",
		Claim: fmt.Sprintf("The sparse neighbor-list anneal returns plans and objectives bit-identical to the FullScan reference across %d anneal seeds on a distance-cutoff crosstalk model.", h7AnnealSeeds),
		Class: Deterministic,
		Run:   runSparseAnnealEquiv,
	})
	r.MustRegister(&Experiment{
		ID:    "H8-disk-warm-restart",
		Claim: "A cold process over a warm disk cache reproduces the in-memory design and stripped manifest byte-identically, recalling every stage from disk with zero re-executions.",
		Class: Deterministic,
		Run:   runDiskWarmRestart,
	})
	r.MustRegister(&Experiment{
		ID: "H9-workload-fairness",
		Claim: fmt.Sprintf("Replaying the steady-state multi-tenant workload through one shared cache yields a stage-cache hit rate >= %.0f%% while per-tenant completions stay within %.0fx of each other, identically at any dispatch worker count.",
			h4HitRateFloor*100, h9FairnessCap),
		Class: Deterministic,
		Run:   runWorkloadFairness,
	})
	return r
}

// runWarmRedesign measures H1. Both designers see the same chip
// structure; the warm one is primed at Theta=4 so each swept redesign
// re-executes only the tdm stage, while the cold one builds everything.
// Both sides are timed min-of-N — the bench gate's policy: every
// scheduling disturbance inflates a sample, so the minimum is the
// noise-robust estimate of the true cost. Each warm sample uses a
// fresh Theta so the tdm stage genuinely re-runs instead of hitting
// the artifact cache.
func runWarmRedesign(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	base := youtiao.Options{Seed: seed, Workers: 1, Theta: 4, HasTheta: true}
	swept := base
	swept.Theta = 6

	h1Chip := func() *chip.Chip { return chip.Square(h1ChipSide, h1ChipSide) }
	warmD := youtiao.NewDesigner(h1Chip())
	if _, err := warmD.RedesignCtx(ctx, base); err != nil {
		return m, fmt.Errorf("priming build: %w", err)
	}

	coldNs := int64(0)
	var coldRes *youtiao.DesignResult
	for i := 0; i < 2; i++ {
		coldD := youtiao.NewDesigner(h1Chip())
		start := time.Now()
		res, err := coldD.RedesignCtx(ctx, swept)
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return m, fmt.Errorf("cold build: %w", err)
		}
		if coldRes == nil || elapsed < coldNs {
			coldNs = elapsed
		}
		if coldRes == nil {
			coldRes = res
		}
	}

	// The first warm sample (Theta=6) is the one compared bit-for-bit
	// against the cold build; the extra Thetas only tighten the timing.
	warmNs := int64(0)
	var warmRes *youtiao.DesignResult
	for i, theta := range []float64{6, 7, 8} {
		opts := swept
		opts.Theta = theta
		start := time.Now()
		res, err := warmD.RedesignCtx(ctx, opts)
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return m, fmt.Errorf("warm redesign (theta %g): %w", theta, err)
		}
		if i == 0 {
			warmRes = res
		}
		if i == 0 || elapsed < warmNs {
			warmNs = elapsed
		}
	}

	coldJSON, err := coldRes.ExportJSON()
	if err != nil {
		return m, err
	}
	warmJSON, err := warmRes.ExportJSON()
	if err != nil {
		return m, err
	}
	identical := bytes.Equal(coldJSON, warmJSON)
	speedup := float64(coldNs) / float64(warmNs)

	m.Holds = identical && speedup >= h1MinSpeedup
	// Effect is the fraction of cold work the warm path avoided
	// (timing-derived, as the claim itself is about time).
	m.Effect = 1 - float64(warmNs)/float64(coldNs)
	m.Values = map[string]float64{
		"identical": b2f(identical),
		"qubits":    float64(h1ChipSide * h1ChipSide),
	}
	m.Timings = map[string]float64{
		"cold_ns":   float64(coldNs),
		"warm_ns":   float64(warmNs),
		"speedup_x": speedup,
	}
	if !identical {
		m.Note = "warm redesign diverged from cold build"
	} else {
		m.Note = fmt.Sprintf("%.0fx warm speedup", speedup)
	}
	return m, nil
}

// runWorkerInvariance measures H2: the full design at Workers 1/4/8
// must export identical JSON, identical options digests and identical
// stripped observability snapshots, and the scalesim sweep must be
// slice-identical across worker counts at up-to-1M-qubit scale.
func runWorkerInvariance(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	workerSet := []int{1, 4, 8}
	mismatches := 0
	var refDesign, refObs []byte
	var refDigest string
	for i, w := range workerSet {
		reg := obs.New()
		opts := youtiao.Options{Seed: seed, Workers: w, Obs: reg}
		res, err := youtiao.DesignCtx(ctx, builtinChip(), opts)
		if err != nil {
			return m, fmt.Errorf("workers=%d: %w", w, err)
		}
		design, err := res.ExportJSON()
		if err != nil {
			return m, err
		}
		snap := reg.Snapshot().StripTimings()
		obsJSON, err := snap.JSON()
		if err != nil {
			return m, err
		}
		digest := opts.Digest()
		if i == 0 {
			refDesign, refObs, refDigest = design, obsJSON, digest
			continue
		}
		if !bytes.Equal(design, refDesign) {
			mismatches++
			m.Note = joinNote(m.Note, fmt.Sprintf("design differs at workers=%d", w))
		}
		if !bytes.Equal(obsJSON, refObs) {
			mismatches++
			m.Note = joinNote(m.Note, fmt.Sprintf("stripped obs snapshot differs at workers=%d", w))
		}
		if digest != refDigest {
			mismatches++
			m.Note = joinNote(m.Note, fmt.Sprintf("options digest differs at workers=%d", w))
		}
	}

	counts := []int{100, 5000, 100000, 1000000}
	want := scalesim.SweepWorkers(counts, 3.3, 1)
	sweepChecks := 0
	for _, w := range []int{4, 16} {
		sweepChecks++
		if !reflect.DeepEqual(scalesim.SweepWorkers(counts, 3.3, w), want) {
			mismatches++
			m.Note = joinNote(m.Note, fmt.Sprintf("scalesim sweep differs at workers=%d", w))
		}
	}

	m.Holds = mismatches == 0
	m.Effect = 1
	m.Values = map[string]float64{
		"worker_counts":   float64(len(workerSet)),
		"scalesim_points": float64(len(counts) * sweepChecks),
		"mismatches":      float64(mismatches),
	}
	if m.Note == "" {
		m.Note = fmt.Sprintf("identical across workers %v and %d scalesim worker counts", workerSet, sweepChecks)
	}
	return m, nil
}

// runTrimRecovery measures H3: a fault-injected calibration campaign
// (heavy-tailed outliers via faults.Measure) is fitted clean, dirty and
// trimmed; the trimmed CV error must land within h3Tolerance of the
// fault-free baseline, and the effect size is the fraction of the
// outlier damage the trim removed.
func runTrimRecovery(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	c := chip.Square(4, 4)
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(seed)))
	clean, err := dev.MeasureSeeded(ctx, xmon.XY, 0.02, seed, 1)
	if err != nil {
		return m, err
	}

	spec := faults.Spec{OutlierRate: 0.05}
	plan, err := faults.New(c, spec, seed)
	if err != nil {
		return m, err
	}
	corrupted, stats, err := faults.Measure(ctx, dev, xmon.XY, 0.02, seed, 1, 0, plan)
	if err != nil {
		return m, err
	}

	cfg := builtinFitConfig()
	cleanModel, err := crosstalk.FitCtx(ctx, c, clean, cfg)
	if err != nil {
		return m, fmt.Errorf("clean fit: %w", err)
	}
	dirtyModel, err := crosstalk.FitCtx(ctx, c, corrupted, cfg)
	if err != nil {
		return m, fmt.Errorf("dirty fit: %w", err)
	}
	trimCfg := cfg
	// The pipeline's own defense: trim twice the injection rate.
	trimCfg.TrimOutlierFraction = 2 * spec.OutlierRate
	trimmedModel, err := crosstalk.FitCtx(ctx, c, corrupted, trimCfg)
	if err != nil {
		return m, fmt.Errorf("trimmed fit: %w", err)
	}

	cvClean, cvDirty, cvTrimmed := cleanModel.CVError, dirtyModel.CVError, trimmedModel.CVError
	m.Holds = cvTrimmed <= cvClean*(1+h3Tolerance)
	if cvDirty > 0 {
		m.Effect = (cvDirty - cvTrimmed) / cvDirty
	}
	m.Values = map[string]float64{
		"cv_clean":          cvClean,
		"cv_dirty":          cvDirty,
		"cv_trimmed":        cvTrimmed,
		"outliers_injected": float64(stats.Outliers),
	}
	m.Note = fmt.Sprintf("trimmed/clean = %.3f (tolerance %.2f)", cvTrimmed/cvClean, 1+h3Tolerance)
	return m, nil
}

// runCacheHitRate measures H4: a defect sweep with repeated rates
// through one Designer must recall enough stages from the artifact
// store that the obs-counted hit rate clears the stated floor.
func runCacheHitRate(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	reg := obs.New()
	opts := youtiao.Options{Seed: seed, Workers: 1, Obs: reg}
	rates := []float64{0, 0.01, 0.01, 0.02, 0.02}
	points, err := experiments.DefectSweep(ctx, builtinChip(), rates, opts)
	if err != nil {
		return m, err
	}
	snap := reg.Snapshot()
	hits := float64(snap.Counters["stage/hits"])
	misses := float64(snap.Counters["stage/misses"])
	if hits+misses == 0 {
		return m, fmt.Errorf("no stage-cache traffic recorded")
	}
	rate := hits / (hits + misses)

	m.Holds = rate >= h4HitRateFloor
	m.Effect = (rate - h4HitRateFloor) / h4HitRateFloor
	m.Values = map[string]float64{
		"hits":     hits,
		"misses":   misses,
		"hit_rate": rate,
		"points":   float64(len(points)),
	}
	m.Note = fmt.Sprintf("hit rate %.2f over %d sweep points (floor %.2f)", rate, len(points), h4HitRateFloor)
	return m, nil
}

// runManifestStrip measures H5: two fully independent runs — fresh
// designer, fresh registry on Options.Obs collecting the stage and
// package counters — at identical options must strip to byte-identical
// manifests even though their CreatedAt, wall times and latency
// quantiles differ.
func runManifestStrip(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	var blobs [][]byte
	for run := 0; run < 2; run++ {
		reg := youtiao.NewObservability()
		opts := youtiao.Options{Seed: seed, Workers: 1, Obs: reg, Faults: youtiao.UniformFaults(0.02)}
		designer := youtiao.NewDesigner(builtinChip())
		res, err := designer.RedesignCtx(ctx, opts)
		if err != nil {
			return m, fmt.Errorf("run %d: %w", run, err)
		}
		man := youtiao.NewManifest(res, opts)
		// Deliberately divergent timing fields: StripTimings must erase
		// exactly these.
		man.CreatedAt = time.Now().UTC().Format(time.RFC3339Nano)
		report := designer.StageReport()
		man.Stages = &report
		snap := reg.Snapshot()
		man.Obs = &snap
		blob, err := man.StripTimings().JSON()
		if err != nil {
			return m, err
		}
		blobs = append(blobs, blob)
	}
	identical := bytes.Equal(blobs[0], blobs[1])

	m.Holds = identical
	m.Effect = 1
	m.Values = map[string]float64{
		"runs":           2,
		"manifest_bytes": float64(len(blobs[0])),
		"identical":      b2f(identical),
	}
	if identical {
		m.Note = fmt.Sprintf("stripped manifests byte-identical (%d bytes)", len(blobs[0]))
	} else {
		m.Note = "stripped manifests differ between identical runs"
	}
	return m, nil
}

// h6Requests is the burst width of H6: enough concurrency to exceed
// the server's execution slots, so coalescing — not just caching — is
// what keeps executions at one per stage.
const h6Requests = 6

// runServeCoalescing measures H6: a burst of identical requests against
// an in-process serve.Server must coalesce onto single-flight stage
// executions (each stage executes exactly once, counted by the shared
// store's miss column) and every response must carry byte-identical
// designs and stripped manifests.
func runServeCoalescing(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	srv, err := serve.New(serve.Config{
		MaxInFlight: 2,
		MaxQueue:    h6Requests,
		QueueWait:   time.Minute,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		return m, err
	}
	h := srv.Handler()
	body := fmt.Sprintf(`{"topology": "square", "qubits": %d, "seed": %d}`,
		builtinChipSide*builtinChipSide, seed)

	recs := make([]*httptest.ResponseRecorder, h6Requests)
	var wg sync.WaitGroup
	for i := 0; i < h6Requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/design", strings.NewReader(body))
			h.ServeHTTP(rec, req.WithContext(ctx))
			recs[i] = rec
		}(i)
	}
	wg.Wait()

	mismatches := 0
	var refDesign, refManifest []byte
	for i, rec := range recs {
		if rec.Code != 200 {
			return m, fmt.Errorf("request %d: status %d (%s)", i, rec.Code, rec.Body.String())
		}
		var resp serve.DesignResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return m, fmt.Errorf("request %d: %w", i, err)
		}
		design, err := json.Marshal(resp.Design)
		if err != nil {
			return m, err
		}
		manifest, err := resp.Manifest.StripTimings().JSON()
		if err != nil {
			return m, err
		}
		if i == 0 {
			refDesign, refManifest = design, manifest
			continue
		}
		if !bytes.Equal(design, refDesign) {
			mismatches++
			m.Note = joinNote(m.Note, fmt.Sprintf("design differs at request %d", i))
		}
		if !bytes.Equal(manifest, refManifest) {
			mismatches++
			m.Note = joinNote(m.Note, fmt.Sprintf("stripped manifest differs at request %d", i))
		}
	}

	duplicateExecs := 0
	report := srv.Cache().StageReport()
	for _, st := range report.Stages {
		if st.Misses != 1 {
			duplicateExecs += st.Misses - 1
			m.Note = joinNote(m.Note, fmt.Sprintf("stage %s executed %d times", st.Name, st.Misses))
		}
	}
	if len(report.Stages) == 0 {
		return m, fmt.Errorf("no stage executions recorded")
	}

	m.Holds = mismatches == 0 && duplicateExecs == 0
	m.Effect = 1
	m.Values = map[string]float64{
		"requests":        h6Requests,
		"stages":          float64(len(report.Stages)),
		"mismatches":      float64(mismatches),
		"duplicate_execs": float64(duplicateExecs),
	}
	if m.Note == "" {
		m.Note = fmt.Sprintf("%d requests coalesced onto %d stage executions, responses byte-identical",
			h6Requests, len(report.Stages))
	}
	return m, nil
}

// h7AnnealSeeds is the number of independent anneal seeds H7 compares.
// Each seed drives a full proposal sequence, so divergence anywhere in
// the delta computation would desynchronize the RNG and cascade.
const h7AnnealSeeds = 3

// runSparseAnnealEquiv measures H7: fdm.Anneal's default sparse
// neighbor-list delta scan against its FullScan reference on a
// distance-cutoff crosstalk model — the regime the sparse path exists
// for, where most coefficients are exactly zero. For every seed the
// refined plan, the before/after objectives and the validated
// invariants must be bit-identical; a single float divergence would
// flip an accept decision and desynchronize every later RNG draw.
func runSparseAnnealEquiv(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	c := chip.Square(6, 6)
	n := c.NumQubits()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	// Crosstalk decays with physical distance and is exactly zero past
	// ~2 lattice pitches — the locality real fitted models exhibit.
	nn := c.PhysicalDistance(0, 1)
	cutoff := 2.1 * nn
	xt := func(i, j int) float64 {
		if i == j {
			return 0
		}
		d := c.PhysicalDistance(i, j)
		if d > cutoff {
			return 0
		}
		return 1e-3 * math.Exp(-d/nn)
	}
	nonzero := 0
	for _, q := range ids {
		for _, o := range ids {
			if o != q && xt(q, o) != 0 {
				nonzero++
			}
		}
	}

	g, err := fdm.Group(ids, 4, c.PhysicalDistance)
	if err != nil {
		return m, err
	}
	plan, err := fdm.Allocate(g, xt, fdm.DefaultAllocOptions())
	if err != nil {
		return m, err
	}

	mismatches := 0
	for i := 0; i < h7AnnealSeeds; i++ {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		opts := fdm.DefaultAnnealOptions()
		opts.Seed = seed + int64(i)
		sparse, sb, sa, err := fdm.Anneal(plan, g, xt, opts)
		if err != nil {
			return m, fmt.Errorf("sparse anneal (seed %d): %w", opts.Seed, err)
		}
		opts.FullScan = true
		full, fb, fa, err := fdm.Anneal(plan, g, xt, opts)
		if err != nil {
			return m, fmt.Errorf("full-scan anneal (seed %d): %w", opts.Seed, err)
		}
		if sb != fb || sa != fa {
			mismatches++
			m.Note = joinNote(m.Note, fmt.Sprintf("objectives differ at seed %d: sparse %.17g->%.17g, full %.17g->%.17g", opts.Seed, sb, sa, fb, fa))
			continue
		}
		if !reflect.DeepEqual(sparse, full) {
			mismatches++
			m.Note = joinNote(m.Note, fmt.Sprintf("refined plans differ at seed %d", opts.Seed))
		}
	}

	m.Holds = mismatches == 0
	// Effect is the fraction of pair terms the sparse scan skips — the
	// work the equivalence makes free.
	total := n * (n - 1)
	m.Effect = 1 - float64(nonzero)/float64(total)
	m.Values = map[string]float64{
		"seeds":             h7AnnealSeeds,
		"qubits":            float64(n),
		"nonzero_pairs":     float64(nonzero),
		"total_pairs":       float64(total),
		"neighbor_fraction": float64(nonzero) / float64(total),
		"mismatches":        float64(mismatches),
	}
	if m.Note == "" {
		m.Note = fmt.Sprintf("bit-identical across %d seeds; sparse scan skips %.0f%% of pair terms",
			h7AnnealSeeds, m.Effect*100)
	}
	return m, nil
}

// h8Opts exercises the rich artifact variants — injected faults, a
// real partition, annealed allocation — so every stage codec is on the
// identity-critical path.
func h8Opts(seed int64) youtiao.Options {
	return youtiao.Options{
		Seed:                seed,
		Workers:             1,
		Faults:              youtiao.UniformFaults(0.02),
		AnnealSteps:         25,
		PartitionTargetSize: 9,
	}
}

// h8Artifacts renders one run's identity evidence: the exported design
// JSON and the stripped manifest (with the designer's stage report
// embedded, whose cache-provenance counters StripTimings erases).
func h8Artifacts(res *youtiao.DesignResult, opts youtiao.Options, report youtiao.StageReport) (design, manifest []byte, err error) {
	design, err = res.ExportJSON()
	if err != nil {
		return nil, nil, err
	}
	man := youtiao.NewManifest(res, opts)
	man.CreatedAt = time.Now().UTC().Format(time.RFC3339Nano)
	man.Stages = &report
	manifest, err = man.StripTimings().JSON()
	return design, manifest, err
}

// runDiskWarmRestart measures H8: designing through a persistent cache
// directory, restarting the process (a fresh SharedCache over the same
// directory, memory tier empty) and designing again must serve every
// stage from the disk tier, execute nothing, and reproduce the purely
// in-memory design and stripped manifest byte for byte.
func runDiskWarmRestart(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	opts := h8Opts(seed)

	// Reference: the purely in-memory run.
	memD := youtiao.NewDesigner(builtinChip())
	memRes, err := memD.RedesignCtx(ctx, opts)
	if err != nil {
		return m, fmt.Errorf("in-memory run: %w", err)
	}
	memDesign, memManifest, err := h8Artifacts(memRes, opts, memD.StageReport())
	if err != nil {
		return m, err
	}

	dir, err := os.MkdirTemp("", "youtiao-h8-")
	if err != nil {
		return m, err
	}
	defer os.RemoveAll(dir)
	cacheCfg := youtiao.CacheConfig{Dir: dir}

	// First process: executes everything, writes the warm tier.
	warm, err := youtiao.OpenSharedCache(cacheCfg)
	if err != nil {
		return m, err
	}
	if _, err := warm.Designer(builtinChip()).RedesignCtx(ctx, opts); err != nil {
		return m, fmt.Errorf("warm-write run: %w", err)
	}

	// "Restart": a fresh cache over the same directory. Its memory
	// tier is empty, so every recall must come from disk.
	cold, err := youtiao.OpenSharedCache(cacheCfg)
	if err != nil {
		return m, err
	}
	coldD := cold.Designer(builtinChip())
	coldRes, err := coldD.RedesignCtx(ctx, opts)
	if err != nil {
		return m, fmt.Errorf("disk-warm run: %w", err)
	}
	coldDesign, coldManifest, err := h8Artifacts(coldRes, opts, coldD.StageReport())
	if err != nil {
		return m, err
	}

	stages := experiments.PipelineStageGraph.Len()
	rep := cold.StageReport()
	stats := cold.Stats()
	designIdentical := bytes.Equal(memDesign, coldDesign)
	manifestIdentical := bytes.Equal(memManifest, coldManifest)

	m.Holds = designIdentical && manifestIdentical &&
		rep.Misses == 0 && rep.DiskHits == stages && stats.DiskHits > 0
	m.Effect = 1
	m.Values = map[string]float64{
		"stages":             float64(stages),
		"disk_hits":          float64(rep.DiskHits),
		"reexecutions":       float64(rep.Misses),
		"disk_entries":       float64(stats.DiskEntries),
		"decode_errors":      float64(stats.DecodeErrors),
		"design_bytes":       float64(len(coldDesign)),
		"manifest_bytes":     float64(len(coldManifest)),
		"design_identical":   b2f(designIdentical),
		"manifest_identical": b2f(manifestIdentical),
	}
	switch {
	case !designIdentical:
		m.Note = "disk-warm design differs from the in-memory design"
	case !manifestIdentical:
		m.Note = "disk-warm stripped manifest differs from the in-memory one"
	case rep.Misses != 0:
		m.Note = fmt.Sprintf("disk-warm run re-executed %d stages", rep.Misses)
	case rep.DiskHits != stages:
		m.Note = fmt.Sprintf("disk-warm run took %d disk hits, want %d", rep.DiskHits, stages)
	default:
		m.Note = fmt.Sprintf("byte-identical design (%d bytes) and manifest; %d/%d stages recalled from disk, 0 re-executed",
			len(coldDesign), rep.DiskHits, stages)
	}
	return m, nil
}

// runWorkloadFairness measures H9: the steady-state traffic-simulator
// workload — three Poisson tenants with heavily repeated request shapes
// over two chips — replayed through the library driver against one
// shared cache. The tenants' repeated specs must make the cache earn
// its keep (hit rate at least the H4 floor) without the shared store
// skewing service: per-tenant completed requests stay within
// h9FairnessCap of each other. Both facts must be dispatch-invariant,
// so the run repeats at workers 1 and 4 and the deterministic summary
// sections must be byte-identical.
func runWorkloadFairness(ctx context.Context, seed int64) (Measurement, error) {
	var m Measurement
	spec, err := sim.BuiltinSpec("steady-state")
	if err != nil {
		return m, err
	}
	trace, err := sim.Generate(spec, seed)
	if err != nil {
		return m, err
	}

	summaries := make([][]byte, 0, 2)
	var sum *sim.Summary
	for _, workers := range []int{1, 4} {
		d := sim.NewLibraryDriver(youtiao.NewSharedCache(youtiao.CacheConfig{}), 1)
		s, err := sim.Run(ctx, trace, d, sim.RunConfig{Workers: workers})
		if err != nil {
			return m, fmt.Errorf("workers=%d: %w", workers, err)
		}
		det, err := s.StripTimings().JSON()
		if err != nil {
			return m, err
		}
		summaries = append(summaries, det)
		sum = s
	}

	invariant := bytes.Equal(summaries[0], summaries[1])
	allOK := sum.Outcomes[sim.OutcomeOK] == sum.Requests
	hitRate := 0.0
	if sum.Cache != nil {
		hitRate = sum.Cache.HitRate
	}
	fairnessHolds := sum.Fairness > 0 && sum.Fairness <= h9FairnessCap

	m.Holds = invariant && allOK && hitRate >= h4HitRateFloor && fairnessHolds
	m.Effect = (hitRate - h4HitRateFloor) / h4HitRateFloor
	m.Values = map[string]float64{
		"requests":         float64(sum.Requests),
		"ok":               float64(sum.Outcomes[sim.OutcomeOK]),
		"tenants":          float64(len(sum.Clients)),
		"hit_rate":         hitRate,
		"fairness":         sum.Fairness,
		"worker_invariant": b2f(invariant),
		"all_completed":    b2f(allOK),
	}
	switch {
	case !invariant:
		m.Note = "deterministic summary differs between workers 1 and 4"
	case !allOK:
		m.Note = fmt.Sprintf("outcomes %v: not every request completed", sum.Outcomes)
	case hitRate < h4HitRateFloor:
		m.Note = fmt.Sprintf("hit rate %.2f below the %.2f floor", hitRate, h4HitRateFloor)
	case !fairnessHolds:
		m.Note = fmt.Sprintf("fairness %.2fx outside (0, %.0fx]", sum.Fairness, h9FairnessCap)
	default:
		m.Note = fmt.Sprintf("%d requests from %d tenants all completed: hit rate %.2f (floor %.2f), fairness %.2fx (cap %.0fx), worker-invariant",
			sum.Requests, len(sum.Clients), hitRate, h4HitRateFloor, sum.Fairness, h9FairnessCap)
	}
	return m, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
