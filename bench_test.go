package youtiao

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// Benchmark* runs the corresponding experiment and reports its headline
// numbers as custom metrics, so the bench output doubles as the
// reproduction record:
//
//	BenchmarkTable1  —  fault-tolerant chip wiring (cost reduction, depth overhead)
//	BenchmarkTable2  —  5-topology wiring evaluation (coax/cost/area reductions)
//	BenchmarkFig12   —  crosstalk-model generality (JS divergence, transfer loss)
//	BenchmarkFig13   —  FDM grouping fidelity (per-gate error ratios)
//	BenchmarkFig14   —  2q-gate depth under TDM (overhead factors)
//	BenchmarkFig15   —  circuit fidelity under TDM routing
//	BenchmarkFig16   —  cryo-DEMUX mix vs θ
//	BenchmarkFig17   —  large-scale wiring estimation
//
// Ablation benches quantify the design choices DESIGN.md calls out, and
// the micro-benches cover the hot primitives.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/circuit"
	"repro/internal/crosstalk"
	"repro/internal/experiments"
	"repro/internal/fdm"
	"repro/internal/geom"
	"repro/internal/mlfit"
	"repro/internal/quantum"
	"repro/internal/route"
	"repro/internal/scalesim"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/stage/cas"
	"repro/internal/surface"
	"repro/internal/tdm"
	"repro/internal/xmon"
	"repro/internal/yield"
)

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		// Headline metrics at distance 11.
		var g, y experiments.Table1Row
		for _, r := range rows {
			if r.Distance == 11 {
				if r.Architecture == "google" {
					g = r
				} else {
					y = r
				}
			}
		}
		b.ReportMetric(g.WiringCostUSD/y.WiringCostUSD, "cost-reduction-d11")
		b.ReportMetric(float64(y.TwoQGateDepth)/float64(g.TwoQGateDepth), "depth-overhead-d11")
		b.ReportMetric(float64(y.ZLines), "youtiao-Z-d11")
	}
}

func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		var coax, cost, area, n float64
		for j := 0; j < len(rows); j += 2 {
			g, y := rows[j], rows[j+1]
			gc := float64(g.XYLines + g.ZLines)
			yc := float64(y.XYLines + y.ZLines)
			coax += gc / yc
			cost += g.WiringCostUSD / y.WiringCostUSD
			area += g.RoutingAreaMM2 / y.RoutingAreaMM2
			n++
		}
		b.ReportMetric(coax/n, "mean-line-reduction")
		b.ReportMetric(cost/n, "mean-cost-reduction")
		b.ReportMetric(area/n, "mean-area-reduction")
	}
}

func BenchmarkFig12(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.JSDivergence, "js-divergence")
		last := res.Scales[len(res.Scales)-1]
		b.ReportMetric(1e4*(1-last.TransferredFidelity), "transfer-err-1e-4")
		b.ReportMetric(1e4*(1-last.NativeFidelity), "native-err-1e-4")
	}
}

func BenchmarkFig13(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		errOf := map[string]float64{}
		for _, r := range res.A {
			errOf[r.Strategy] = r.PerGateError
		}
		b.ReportMetric(errOf[experiments.StrategyBaseline]/errOf[experiments.StrategyYoutiao], "err-ratio-vs-baseline")
		b.ReportMetric(errOf[experiments.StrategyGeorge]/errOf[experiments.StrategyYoutiao], "err-ratio-vs-george")
		b.ReportMetric(100*res.B[len(res.B)-1].Youtiao, "youtiao-fid-100layers-%")
	}
}

func benchFig1415(b *testing.B, metric func(r experiments.BenchRow) (string, float64)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figs14And15(experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			name, v := metric(r)
			b.ReportMetric(v, string(r.Benchmark)+"-"+name)
		}
	}
}

func BenchmarkFig14(b *testing.B) {
	benchFig1415(b, func(r experiments.BenchRow) (string, float64) {
		return "depth-overhead", float64(r.YoutiaoDepth) / float64(r.GoogleDepth)
	})
}

func BenchmarkFig15(b *testing.B) {
	benchFig1415(b, func(r experiments.BenchRow) (string, float64) {
		if r.YoutiaoFidelity == 0 {
			return "fid-ratio-vs-acharya", 0
		}
		return "fid-ratio-vs-acharya", r.YoutiaoFidelity / r.AcharyaFidelity
	})
}

func BenchmarkFig16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16(experiments.Options{Seed: 1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Theta == 4 && (r.Topology == "square" || r.Topology == "low-density") {
				b.ReportMetric(100*r.Frac12, r.Topology+"-frac12-%")
			}
		}
	}
}

func BenchmarkFig17(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig17(experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ZFanoutSquare, "z-fanout-square")
		b.ReportMetric(float64(res.System150.GoogleCoax), "coax-150q-google")
		b.ReportMetric(float64(res.System150.YoutiaoCoax), "coax-150q-youtiao")
		last := res.LargeSweep[len(res.LargeSweep)-1]
		b.ReportMetric(last.Reduction(), "reduction-100k")
		b.ReportMetric(res.SavingsUSD100k/1e9, "savings-100k-B$")
	}
}

// --- Ablation benches -------------------------------------------------

// BenchmarkAblationMultiPathMetric compares the cross-validated fit
// error of the paper's multi-path topological distance (d_top = n·l)
// against plain shortest-path distance. The multi-path metric should
// fit the synthetic crosstalk at least as well.
func BenchmarkAblationMultiPathMetric(b *testing.B) {
	c := chip.Square(6, 6)
	rng := rand.New(rand.NewSource(1))
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rng)
	samples := dev.Measure(xmon.XY, 0.05, rng)
	multi := c.Graph().AllMultiPathDistances()

	buildXY := func(topDist func(i, j int) float64) ([][]float64, []float64) {
		X := make([][]float64, len(samples))
		y := make([]float64, len(samples))
		for i, s := range samples {
			X[i] = []float64{0.5*c.PhysicalDistance(s.I, s.J) + 0.5*topDist(s.I, s.J)}
			y[i] = s.Value
		}
		return X, y
	}
	cfg := mlfit.ForestConfig{NumTrees: 12, Tree: mlfit.TreeConfig{MaxDepth: 10, MinLeafSize: 4}, Seed: 1}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Xm, y := buildXY(func(i, j int) float64 { return multi[i][j] })
		mseMulti, err := mlfit.KFoldMSE(Xm, y, 5, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		Xs, _ := buildXY(func(i, j int) float64 {
			return float64(c.Graph().BFSDistances(i)[j])
		})
		mseSingle, err := mlfit.KFoldMSE(Xs, y, 5, cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mseSingle/mseMulti, "single/multi-mse-ratio")
	}
}

// BenchmarkAblationPartitioning compares whole-chip TDM grouping
// against partitioned (per-region) grouping on a 100-qubit chip — the
// divide-and-conquer claim of Observation 3.
func BenchmarkAblationPartitioning(b *testing.B) {
	c := chip.Square(10, 10)
	gi := tdm.AnalyzeGates(c)
	xt := func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 0.6 * math.Exp(-c.PhysicalDistance(i, j))
	}

	b.Run("whole-chip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tdm.GroupChip(gi, tdm.DefaultConfig(xt)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := experiments.BuildPipeline(chip.Square(10, 10), experiments.Options{Seed: 1, PartitionTargetSize: 25})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(p.TDM.NumZLines()), "z-lines")
		}
	})
}

// BenchmarkAblationLossyLimit sweeps the TDM lossy budget: more lossy
// members merge more lines but serialize more gates.
func BenchmarkAblationLossyLimit(b *testing.B) {
	c := chip.Square(6, 6)
	gi := tdm.AnalyzeGates(c)
	xt := func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 0.6 * math.Exp(-c.PhysicalDistance(i, j))
	}
	logical, err := circuit.Benchmark(circuit.BenchVQC, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := circuit.Compile(logical, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, limit := range []int{1, 2, 4} {
			cfg := tdm.DefaultConfig(xt)
			cfg.LossyLimit = limit
			g, err := tdm.GroupChip(gi, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sched, err := schedule.New(c, g, schedule.DefaultDurations()).Run(compiled.Circuit)
			if err != nil {
				b.Fatal(err)
			}
			suffix := []string{"", "lossy1", "lossy2", "", "lossy4"}[limit]
			b.ReportMetric(float64(g.NumZLines()), suffix+"-zlines")
			b.ReportMetric(float64(sched.TwoQubitDepth), suffix+"-2qdepth")
		}
	}
}

// BenchmarkAblationAnnealedAllocation compares the greedy two-level
// frequency allocation against the same plan refined by simulated
// annealing, scored by the leakage-weighted crosstalk objective.
func BenchmarkAblationAnnealedAllocation(b *testing.B) {
	c := chip.Square(6, 6)
	rng := rand.New(rand.NewSource(1))
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rng)
	xt := func(i, j int) float64 { return dev.Coupling(xmon.XY, i, j) }
	members := make([]int, c.NumQubits())
	for i := range members {
		members[i] = i
	}
	dist := func(i, j int) float64 { return c.PhysicalDistance(i, j) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := fdmGroup(members, 4, dist)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := fdmAllocate(g, xt)
		if err != nil {
			b.Fatal(err)
		}
		greedyCost := plan.TotalCrosstalkCost(xt)
		refined, _, annealedCost, err := fdmAnneal(plan, g, xt)
		if err != nil {
			b.Fatal(err)
		}
		_ = refined
		b.ReportMetric(greedyCost/math.Max(annealedCost, 1e-30), "greedy/annealed-cost")
	}
}

// Thin aliases keep the bench body readable without dot-imports.
var (
	fdmGroup    = fdm.Group
	fdmAllocate = func(g *fdm.Grouping, xt fdm.CrosstalkFunc) (*fdm.FrequencyPlan, error) {
		return fdm.Allocate(g, xt, fdm.DefaultAllocOptions())
	}
	fdmAnneal = func(p *fdm.FrequencyPlan, g *fdm.Grouping, xt fdm.CrosstalkFunc) (*fdm.FrequencyPlan, float64, float64, error) {
		return fdm.Anneal(p, g, xt, fdm.DefaultAnnealOptions())
	}
)

// --- Micro-benches of the hot primitives ------------------------------

func BenchmarkForestFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 600
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := rng.Float64() * 10
		X[i] = []float64{x}
		y[i] = math.Exp(-x) + rng.NormFloat64()*0.01
	}
	cfg := mlfit.DefaultForestConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlfit.FitForest(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiPathDistances(b *testing.B) {
	g := chip.Square(10, 10).Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllMultiPathDistances()
	}
}

func BenchmarkTDMGrouping(b *testing.B) {
	c := chip.Square(8, 8)
	gi := tdm.AnalyzeGates(c)
	xt := func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 0.6 * math.Exp(-c.PhysicalDistance(i, j))
	}
	cfg := tdm.DefaultConfig(xt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tdm.GroupChip(gi, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFDMAllocate times the allocate stage alone: the greedy
// two-level frequency allocation of one fixed 7×7 design's FDM
// grouping, reading XY crosstalk through its predictor's pair table.
func BenchmarkFDMAllocate(b *testing.B) {
	p, err := experiments.BuildPipeline(chip.Square(7, 7), experiments.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	xt := p.PredXY.Pairs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fdm.Allocate(p.FDM, xt, fdm.DefaultAllocOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAStarRouting(b *testing.B) {
	c := chip.Square(4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := route.NewRouter(c)
		var nets []route.Net
		for _, q := range c.Qubits {
			nets = append(nets, route.Net{Kind: route.NetZ, Label: "z", Targets: []geom.Point{q.Pos}})
		}
		if _, err := r.RouteAll(nets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleSweep1M extends the Figure 17 extrapolation axis to
// one million qubits: a full geometric ladder from 100 to 1e6 qubits,
// both architectures evaluated at every rung. The fan-out constant is
// a representative calibrated value (Fig17 measures ≈9 on the square
// topology); the sweep's cost profile — what this bench gates — is
// invariant in it.
func BenchmarkScaleSweep1M(b *testing.B) {
	counts := scalesim.Ladder(100, 1_000_000, 8)
	const zFanout = 9.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := scalesim.SweepWorkers(counts, zFanout, 4)
		last := pts[len(pts)-1]
		if last.Qubits != 1_000_000 {
			b.Fatalf("sweep ended at %d qubits, want 1M", last.Qubits)
		}
		b.ReportMetric(last.Reduction(), "reduction-1M")
	}
}

func BenchmarkStateVector16Q(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	circ := circuit.Decompose(circuit.VQC(16, 2, rng))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quantum.Simulate(circ); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignPipeline36Q(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Design(NewSquareChip(6, 6), Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSequential / BenchmarkPipelineParallel time the full
// 8×8 design with the worker pool off (Workers: 1) and on (Workers: 4).
// The designs are bit-identical either way — compare ns/op to see the
// speedup, which tracks the number of physical cores available.
func benchPipeline64Q(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Design(NewSquareChip(8, 8), Options{Seed: 1, Workers: workers, PartitionTargetSize: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineSequential(b *testing.B) { benchPipeline64Q(b, 1) }

func BenchmarkPipelineParallel(b *testing.B) { benchPipeline64Q(b, 4) }

// BenchmarkThetaSweepCold / BenchmarkThetaSweepWarm quantify the
// artifact cache: both design the same 8×8 chip at three TDM thresholds
// (Theta), but Cold rebuilds everything per point while Warm reuses one
// Designer whose characterization, partition, and frequency-plan
// artifacts carry across the sweep — only the TDM stage re-runs. The
// designs are bit-identical (asserted in the test suite); compare ns/op
// for the headline speedup.
var thetaSweepPoints = []float64{2, 4, 8}

func thetaSweepOpts(theta float64) Options {
	return Options{Seed: 1, PartitionTargetSize: 16, Theta: theta, HasTheta: true}
}

func BenchmarkThetaSweepCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, theta := range thetaSweepPoints {
			if _, err := Design(NewSquareChip(8, 8), thetaSweepOpts(theta)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkThetaSweepWarm times the sweep a user runs after the first
// design of a session: every timed Redesign asks for a Theta no earlier
// call used (each sweep point nudged by a fresh multiple of 1e-9), so
// the tdm stage genuinely re-runs and every other stage hits. The
// designer lives in a one-shard SharedCache bounded at twice the
// primed footprint: the upstream artifacts, hit by every call, stay resident
// while the least recently used tdm artifacts are evicted, so memory
// stays bounded at any b.N. The stage report must show exactly one tdm
// execution per Redesign and no other stage executed.
func BenchmarkThetaSweepWarm(b *testing.B) {
	ch := NewSquareChip(8, 8)
	probe := NewSharedCache(CacheConfig{})
	if _, err := probe.Designer(ch).Redesign(thetaSweepOpts(1)); err != nil {
		b.Fatal(err)
	}
	cache := NewSharedCache(CacheConfig{MaxBytes: 2 * probe.Stats().Bytes, Shards: 1})
	designer := cache.Designer(ch)
	if _, err := designer.Redesign(thetaSweepOpts(1)); err != nil {
		b.Fatal(err)
	}
	before := cache.StageReport()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, theta := range thetaSweepPoints {
			if _, err := designer.Redesign(thetaSweepOpts(theta + float64(i+1)*1e-9)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for _, st := range cache.StageReport().Sub(before).Stages {
		want := 0
		if st.Name == "tdm" {
			want = b.N * len(thetaSweepPoints)
		}
		if st.Misses != want {
			b.Fatalf("stage %s executed %d times over %d redesigns, want %d", st.Name, st.Misses, b.N*len(thetaSweepPoints), want)
		}
	}
}

func BenchmarkScheduleSurfaceCycle(b *testing.B) {
	code, err := surface.New(5)
	if err != nil {
		b.Fatal(err)
	}
	circ := circuit.Decompose(code.CycleCircuit(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.New(code.Chip, nil, schedule.DefaultDurations()).Run(circ); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrosstalkFit(b *testing.B) {
	c := chip.Square(6, 6)
	rng := rand.New(rand.NewSource(1))
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rng)
	samples := dev.Measure(xmon.XY, 0.05, rng)
	cfg := crosstalk.FitConfig{
		WeightGrid: []float64{0, 0.5, 1},
		Folds:      5,
		Forest:     mlfit.ForestConfig{NumTrees: 8, Tree: mlfit.TreeConfig{MaxDepth: 8, MinLeafSize: 4}, Seed: 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crosstalk.Fit(c, samples, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureAll times the terminal-measurement path on a
// 12-qubit register (4096 amplitudes). After the first iteration the
// state is collapsed to a basis state, but the pass structure — and so
// the measured cost — is amplitude-independent.
func BenchmarkMeasureAll(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	circ := circuit.Decompose(circuit.VQC(12, 2, rng))
	s, err := quantum.Simulate(circ)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MeasureAll(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloTrajectories is the allocation trajectory of the
// Monte Carlo fidelity path: 64 sequential trajectories on a 9-qubit
// register. allocs/op is the headline number — it must stay O(workers),
// not O(trajectories).
func BenchmarkMonteCarloTrajectories(b *testing.B) {
	ch := chip.Square(3, 3)
	rng := rand.New(rand.NewSource(1))
	compiled, err := circuit.Compile(circuit.VQC(9, 2, rng), ch)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := schedule.New(ch, nil, schedule.DefaultDurations()).Run(compiled.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	nm := quantum.NewNoiseModel(func(i, j int) float64 {
		if i == j {
			return 0
		}
		return 0.01
	}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nm.MonteCarloFidelity(sched, 9, quantum.TrajectoryConfig{
			Trajectories: 64, Seed: 1, Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorMatrix times binding a fitted crosstalk model to a
// chip and predicting the full pairwise matrix — the characterization
// product every grouping stage consumes.
func BenchmarkPredictorMatrix(b *testing.B) {
	c := chip.Square(6, 6)
	rng := rand.New(rand.NewSource(1))
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rng)
	samples := dev.Measure(xmon.XY, 0.05, rng)
	cfg := crosstalk.FitConfig{
		WeightGrid: []float64{0, 0.5, 1},
		Folds:      5,
		Forest:     mlfit.ForestConfig{NumTrees: 8, Tree: mlfit.TreeConfig{MaxDepth: 8, MinLeafSize: 4}, Seed: 1},
	}
	m, err := crosstalk.Fit(c, samples, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := m.On(c)
		mat := p.Matrix()
		b.ReportMetric(mat[0][1], "xt-0-1")
	}
}

// BenchmarkYield runs the fabrication-disorder yield study on the
// 16-qubit chip and reports the passing fraction — the design-margin
// extension of the Figure 13 fidelity target.
func BenchmarkYield(b *testing.B) {
	b.ReportAllocs()
	c := chip.Square(4, 4)
	cfg := yield.DefaultConfig()
	cfg.Dice = 20
	for i := 0; i < b.N; i++ {
		res, err := yield.Run(c, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Yield, "yield")
		b.ReportMetric(res.MedianError*1e4, "median-err-1e-4")
	}
}

// BenchmarkDiskStoreHit times one warm-tier recall: a store whose
// memory budget evicts everything immediately, so every Do falls
// through to the on-disk CAS (sized read, header validation, CRC
// check, decode). This is the per-stage cost a restarted process pays
// instead of re-executing the stage.
func BenchmarkDiskStoreHit(b *testing.B) {
	back, err := cas.Open(b.TempDir(), cas.Config{})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x59}, 4096)
	st := stage.NewStoreWith(stage.Config{
		// A 1-byte budget evicts each decoded artifact as soon as its
		// waiters have it, forcing the next Do back to the disk tier.
		MaxBytes: 1,
		Backend:  back,
	})
	codec := stage.Codec{
		Encode: func(dst []byte, v any) ([]byte, error) { return append(dst, v.([]byte)...), nil },
		Decode: func(data []byte) (any, error) { return bytes.Clone(data), nil },
	}
	ctx := context.Background()
	key := stage.NewKey("bench-disk").Int(1).Done()
	exec := func(context.Context) (any, error) { return payload, nil }
	if _, _, err := st.Do(ctx, "bench", key, 1, codec, exec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, cached, err := st.Do(ctx, "bench", key, 1, codec, exec)
		if err != nil {
			b.Fatal(err)
		}
		if !cached || len(v.([]byte)) != len(payload) {
			b.Fatalf("iteration %d not served from cache", i)
		}
	}
	b.StopTimer()
	if r := st.Report(); r.DiskHits < b.N {
		b.Fatalf("only %d of %d iterations hit the disk tier", r.DiskHits, b.N)
	}
}

// BenchmarkDiskRecallDesign times a restarted replica's read of one
// 7×7 design: the cache's memory budget is one byte, so every stage of
// every Redesign is recalled from the warm disk tier (read, CRC check,
// decode) and none executes. It is the per-design cost the
// warm-restart workload pays on a memory miss.
func BenchmarkDiskRecallDesign(b *testing.B) {
	cache, err := OpenSharedCache(CacheConfig{Dir: b.TempDir(), MaxBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	designer := cache.Designer(NewSquareChip(7, 7))
	opts := Options{Seed: 1}
	if _, err := designer.Redesign(opts); err != nil {
		b.Fatal(err)
	}
	before := cache.StageReport()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := designer.Redesign(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, st := range cache.StageReport().Sub(before).Stages {
		if st.Misses != 0 || st.DiskHits != b.N {
			b.Fatalf("stage %s: %d executions and %d disk hits over %d redesigns, want 0 and %d", st.Name, st.Misses, st.DiskHits, b.N, b.N)
		}
	}
}
