// Package crosstalk implements the paper's crosstalk characterization
// model (§4.1): it fits the relationship between the equivalent distance
//
//	d_equiv(i,j) = w_phy · d_phy(i,j) + w_top · d_top(i,j)
//
// and measured crosstalk with a random-forest regressor, selecting the
// weight pair (w_phy, w_top) that minimizes 5-fold cross-validated MSE.
// The fitted model then predicts crosstalk for any qubit pair of the
// training chip — or of a different chip with the same qubit type,
// topology family and process (Figure 12's generality study).
package crosstalk

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/chip"
	"repro/internal/graphx"
	"repro/internal/mlfit"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/xmon"
)

// FitConfig controls the characterization fit.
type FitConfig struct {
	// WeightGrid is the set of candidate values for each of w_phy and
	// w_top; the search evaluates the full cross product (excluding the
	// all-zero pair).
	WeightGrid []float64
	// Folds is the cross-validation fold count (the paper uses 5).
	Folds  int
	Forest mlfit.ForestConfig
	// Workers bounds the fit's goroutines (<= 0: runtime.GOMAXPROCS(0),
	// 1: sequential): the topology-distance matrix fans out over
	// source qubits, and the cross-validation over the weight grid's
	// ordinal classes (candidates that rank the samples alike share one
	// CV; see mlfit.OrdinalClasses). Every class's CV is seeded
	// independently, so the selected model is identical for any worker
	// count.
	Workers int
	// TrimOutlierFraction drops the largest-valued fraction of the
	// samples before fitting (0: keep all; must be < 1). Calibration
	// campaigns on faulty hardware produce heavy-tailed outlier
	// readings that would otherwise dominate the regression; trimming
	// is deterministic — samples sort by (value, index) — so the fitted
	// model stays reproducible.
	TrimOutlierFraction float64
}

// DefaultFitConfig mirrors the paper's setup: 5-fold CV and a coarse
// weight grid over [0, 1].
func DefaultFitConfig() FitConfig {
	return FitConfig{
		WeightGrid: []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0},
		Folds:      5,
		Forest:     mlfit.DefaultForestConfig(),
	}
}

// Model is a fitted crosstalk characterization model. A Model is safe
// for concurrent prediction (the FDM region grouping predicts from many
// goroutines) and must not be copied after first use.
type Model struct {
	Kind    xmon.CrosstalkKind
	Weights chip.EquivWeights
	CVError float64 // cross-validated MSE at the selected weights

	// rec is a decoded model's forest record (mlfit.ScanBinary): the
	// forest stays encoded until the first prediction builds it, once,
	// into forest. A fitted model has forest and no record.
	rec    []byte
	build  sync.Once
	forest *mlfit.Forest
}

// trees returns the forest, building a decoded model's on first use.
func (m *Model) trees() *mlfit.Forest {
	m.build.Do(func() {
		if m.forest == nil && m.rec != nil {
			m.forest = mlfit.BuildBinary(m.rec)
		}
	})
	return m.forest
}

// Fit trains the characterization model from calibration samples taken
// on the given chip. It returns the model with the best (w_phy, w_top)
// under k-fold CV, matching the paper's procedure.
func Fit(c *chip.Chip, samples []xmon.Sample, cfg FitConfig) (*Model, error) {
	return FitCtx(context.Background(), c, samples, cfg)
}

// FitCtx is Fit with cooperative cancellation: the grid search checks
// ctx between ordinal classes of weight candidates and returns
// ctx.Err() once it fires. The fit counts into the registry ctx
// carries: "crosstalk/fits", "crosstalk/fit_candidates",
// "crosstalk/fit_classes" (the CV forests grown: one per ordinal class
// plus one per candidate the midpoint check re-runs alone) and
// "crosstalk/trimmed_samples", all pure functions of the samples and
// the FitConfig, and its fan-outs count as parallel calls.
func FitCtx(ctx context.Context, c *chip.Chip, samples []xmon.Sample, cfg FitConfig) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("crosstalk: no samples")
	}
	if cfg.Folds < 2 {
		return nil, fmt.Errorf("crosstalk: need at least 2 folds, got %d", cfg.Folds)
	}
	r := obs.FromContext(ctx)
	untrimmed := len(samples)
	samples, err := trimOutliers(samples, cfg.TrimOutlierFraction)
	if err != nil {
		return nil, err
	}
	r.Counter("crosstalk/trimmed_samples").Add(int64(untrimmed - len(samples)))
	kind := samples[0].Kind
	for _, s := range samples {
		if s.Kind != kind {
			return nil, fmt.Errorf("crosstalk: mixed sample kinds %v and %v", kind, s.Kind)
		}
	}

	top, err := c.Graph().AllMultiPathDistancesWorkers(ctx, cfg.Workers)
	if err != nil {
		return nil, err
	}
	// Every candidate's equivalent distance is a function of the
	// sample's (d_phy, d_top) pair, so the columns are built over the
	// distinct pairs, the atoms (mlfit.Atoms): a chip has far fewer
	// than samples.
	y := make([]float64, len(samples))
	of := make([]int32, len(samples))
	var phys, topo []float64
	atoms := make(map[[2]uint64]int32)
	for i, s := range samples {
		if s.I < 0 || s.J < 0 || s.I >= c.NumQubits() || s.J >= c.NumQubits() {
			return nil, fmt.Errorf("crosstalk: sample %d pair (%d,%d) out of range", i, s.I, s.J)
		}
		y[i] = s.Value
		p, t := c.PhysicalDistance(s.I, s.J), top[s.I][s.J]
		if math.IsInf(t, 1) {
			t = float64(c.NumQubits())
		}
		key := [2]uint64{math.Float64bits(p), math.Float64bits(t)}
		at, ok := atoms[key]
		if !ok {
			at = int32(len(phys))
			atoms[key] = at
			phys, topo = append(phys, p), append(topo, t)
		}
		of[i] = at
	}

	// The grid search is the hot loop of characterization. A CART
	// split reads its feature only through '<' and '==', so candidates
	// whose equivalent distances rank the samples alike share one
	// k-fold CV (mlfit.CVPlan.KFoldMSEAtoms), and the ordinal classes
	// fan out over the worker pool. Selection scans the results in
	// grid order with a strict '<', reproducing the sequential
	// first-best tie-break for any worker count.
	type candidate struct {
		wp, wt float64
	}
	var cands []candidate
	for _, wp := range cfg.WeightGrid {
		for _, wt := range cfg.WeightGrid {
			if wp == 0 && wt == 0 {
				continue
			}
			cands = append(cands, candidate{wp, wt})
		}
	}
	n, na := len(samples), len(phys)
	flat := make([]float64, len(cands)*na)
	cols := make([][]float64, len(cands))
	for ci, cand := range cands {
		cols[ci] = equivColumn(flat[ci*na:(ci+1)*na:(ci+1)*na], phys, topo, cand.wp, cand.wt)
	}
	set := mlfit.Atoms{Cols: cols, Of: of}
	classes := mlfit.OrdinalClasses(cols)
	r.Counter("crosstalk/fits").Inc()
	r.Counter("crosstalk/fit_candidates").Add(int64(len(cands)))
	grownClasses := r.Counter("crosstalk/fit_classes")
	// One plan (fold split and bootstrap draws) serves every class.
	plan, err := mlfit.NewCVPlan(n, cfg.Folds, cfg.Forest, cfg.Forest.Seed)
	if err != nil {
		return nil, fmt.Errorf("crosstalk: CV: %w", err)
	}
	// Each worker's workspace serves all of its classes, and the
	// refit after them.
	mses := make([]float64, len(cands))
	ws := make([]mlfit.CVWorkspace, parallel.Resolve(cfg.Workers, len(classes)))
	err = parallel.ForEachCtxWorker(ctx, cfg.Workers, len(classes), func(worker, k int) error {
		class := classes[k]
		grown, err := plan.KFoldMSEAtoms(&ws[worker], set, class, y, mses)
		if err != nil {
			cand := cands[class[0]]
			return fmt.Errorf("crosstalk: CV at (%.2f,%.2f): %w", cand.wp, cand.wt, err)
		}
		grownClasses.Add(int64(grown))
		return nil
	})
	if err != nil {
		return nil, err
	}
	best := &Model{Kind: kind, CVError: math.Inf(1)}
	bestCi := 0
	for ci, cand := range cands {
		if mses[ci] < best.CVError {
			best.CVError = mses[ci]
			best.Weights = chip.EquivWeights{WPhy: cand.wp, WTop: cand.wt}
			bestCi = ci
		}
	}

	// Refit on the full dataset at the winning weights, on the first
	// worker's workspace.
	forest, err := plan.Refit(&ws[0], set, bestCi, y)
	if err != nil {
		return nil, fmt.Errorf("crosstalk: final fit: %w", err)
	}
	best.forest = forest
	return best, nil
}

// equivColumn fills dst with the equivalent distance
// wp*phys[i] + wt*topo[i] of every atom and returns it.
func equivColumn(dst, phys, topo []float64, wp, wt float64) []float64 {
	for i := range dst {
		dst[i] = wp*phys[i] + wt*topo[i]
	}
	return dst
}

// trimOutliers drops the ceil(fraction*n) largest-valued samples,
// preserving the original order of the survivors. Ordering is by
// (value, original index), so the trimmed set is a deterministic
// function of the input regardless of worker count or map iteration.
func trimOutliers(samples []xmon.Sample, fraction float64) ([]xmon.Sample, error) {
	if fraction == 0 {
		return samples, nil
	}
	if fraction < 0 || fraction >= 1 {
		return nil, fmt.Errorf("crosstalk: TrimOutlierFraction %v outside [0,1)", fraction)
	}
	drop := int(math.Ceil(fraction * float64(len(samples))))
	if drop >= len(samples) {
		drop = len(samples) - 1
	}
	if drop <= 0 {
		return samples, nil
	}
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if samples[ia].Value != samples[ib].Value {
			return samples[ia].Value > samples[ib].Value
		}
		return ia < ib
	})
	cut := make(map[int]bool, drop)
	for _, i := range order[:drop] {
		cut[i] = true
	}
	kept := make([]xmon.Sample, 0, len(samples)-drop)
	for i, s := range samples {
		if !cut[i] {
			kept = append(kept, s)
		}
	}
	return kept, nil
}

// PredictDistance returns the model's crosstalk prediction at a raw
// equivalent distance.
func (m *Model) PredictDistance(dEquiv float64) float64 {
	return m.trees().Predict([]float64{dEquiv})
}

// Predictor binds a model to a chip. Binding a model to a different
// chip than it was trained on is exactly the Figure 12 transfer
// experiment.
//
// The feature space is one-dimensional and a chip has few distinct
// equivalent distances, so On lists the distinct d_equiv of the chip's
// qubit pairs with their predictions, and indexes every pair into the
// list: the readers (Predict, Matrix, Above) then read two arrays
// per pair, without hashing. d_equiv is symmetric bit for bit: d_phy
// squares the coordinate differences, and d_top multiplies the integer
// hop and shortest-path counts, which are the same from either end.
// All of it is computed in On, so a Predictor is safe for concurrent
// use, and no reader walks the forest.
type Predictor struct {
	Model *Model
	n     int // qubit count of the bound chip
	// pair[i*n+j] (i != j) indexes d_equiv(i,j) in dist and its
	// prediction in pred; dist holds the distinct values in order of
	// first appearance.
	pair       []int32
	dist, pred []float64
}

// On binds the model to a chip.
func (m *Model) On(c *chip.Chip) *Predictor {
	n := c.NumQubits()
	g := c.Graph()
	sc, top := graphx.NewBFSScratch(n), make([]float64, n)
	p := &Predictor{Model: m, n: n, pair: make([]int32, n*n)}
	// ord lists the ids of dist (indices into it) in ascending value
	// order, for the binary search that finds a value's id.
	dist, ord := make([]float64, 0, n), make([]int32, 0, n)
	for i := 0; i < n; i++ {
		g.MultiPathDistancesFrom(i, sc, top)
		for j := i + 1; j < n; j++ {
			t := top[j]
			if math.IsInf(t, 1) {
				t = float64(n)
			}
			d := m.Weights.WPhy*c.PhysicalDistance(i, j) + m.Weights.WTop*t
			lo, hi := 0, len(ord)
			for lo < hi {
				if h := int(uint(lo+hi) >> 1); compareBits(dist[ord[h]], d) < 0 {
					lo = h + 1
				} else {
					hi = h
				}
			}
			at := lo
			if at == len(ord) || math.Float64bits(dist[ord[at]]) != math.Float64bits(d) {
				ord = slices.Insert(ord, at, int32(len(dist)))
				dist = append(dist, d)
			}
			p.pair[i*n+j], p.pair[j*n+i] = ord[at], ord[at]
		}
	}
	// The distance row is free now; it holds the predictions when they
	// fit.
	p.dist, p.pred = dist, top[:0]
	if len(dist) > n {
		p.pred = make([]float64, 0, len(dist))
	}
	for _, d := range dist {
		p.pred = append(p.pred, m.PredictDistance(d))
	}
	return p
}

// compareBits orders float64s by value, and values that compare equal
// (-0 and +0, or two NaNs) by their bits, so distinct bits never tie.
func compareBits(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b || a != a && b != b: // equal values, or two NaNs
		return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
	}
	return cmp.Compare(a, b) // one NaN, below every number
}

// NumQubits returns the qubit count of the bound chip.
func (p *Predictor) NumQubits() int { return p.n }

// EquivDistance returns d_equiv(i,j) under the model's fitted weights.
func (p *Predictor) EquivDistance(i, j int) float64 {
	if i == j {
		return 0
	}
	return p.dist[p.pair[i*p.n+j]]
}

// Predict returns the predicted crosstalk between qubits i and j.
func (p *Predictor) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	return p.pred[p.pair[i*p.n+j]]
}

// Above returns, for every qubit a, the qubits b != a whose predicted
// crosstalk with a exceeds thr, ascending: a's are
// nbr[start[a]:start[a+1]]. It compares the predictions Predict
// returns, each distinct value once, and counts as no prediction.
func (p *Predictor) Above(thr float64) (start, nbr []int32) {
	n := p.n
	above := make([]bool, len(p.pred))
	for k, v := range p.pred {
		above[k] = v > thr
	}
	start, nbr = make([]int32, n+1), make([]int32, 0, 4*n)
	for i := 0; i < n; i++ {
		for j, k := range p.pair[i*n : (i+1)*n] {
			if j != i && above[k] {
				nbr = append(nbr, int32(j))
			}
		}
		start[i+1] = int32(len(nbr))
	}
	return start, nbr
}

// Matrix returns the full predicted pairwise crosstalk matrix. The
// model is symmetric in (i,j) — d_phy and d_top both are — so each
// unordered pair is predicted once and mirrored; the diagonal is zero
// by definition. Rows share one flat n*n backing array.
func (p *Predictor) Matrix() [][]float64 {
	n := p.n
	flat := make([]float64, n*n)
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := p.pred[p.pair[i*n+j]]
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

// PredictedValues returns the model's prediction for every unordered
// qubit pair of the bound chip, the raw material for the Figure 12
// noise-distribution comparison.
func (p *Predictor) PredictedValues() []float64 {
	n := p.n
	vals := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			vals = append(vals, p.Predict(i, j))
		}
	}
	return vals
}
