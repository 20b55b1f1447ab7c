// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a plain function returning typed rows,
// shared by cmd/tables, cmd/figures, the examples and the benchmark
// harness in the repository root.
//
// The package also owns the end-to-end YOUTIAO pipeline used by most
// experiments: fabricate a synthetic Xmon device on a chip, measure
// crosstalk, fit the characterization model, partition the chip, run
// FDM grouping + frequency allocation and TDM grouping. The flow is
// decomposed into keyed stages (see designer.go and the stage_*.go
// files) executed through an internal/stage artifact store; BuildPipeline*
// are thin one-shot compositions over it, and Designer reuses the store
// across calls for incremental redesigns.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/circuit"
	"repro/internal/crosstalk"
	"repro/internal/faults"
	"repro/internal/fdm"
	"repro/internal/mlfit"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/tdm"
	"repro/internal/xmon"
)

// Options tune the pipeline. The zero value is completed by defaults.
type Options struct {
	// Seed drives device fabrication, measurement noise and partition
	// seeding. Defaults to 1.
	Seed int64
	// FDMCapacity is the qubits-per-XY-line limit (paper: 5).
	FDMCapacity int
	// Theta is the TDM parallelism threshold (paper example: 4). An
	// explicit zero is honored only when HasTheta is set; otherwise the
	// default (4) applies.
	Theta float64
	// HasTheta marks Theta as explicitly set, so Theta = 0 (every
	// device above threshold, 1:2 DEMUXes only) is expressible. CLI
	// front-ends set it from flag presence.
	HasTheta bool
	// PartitionTargetSize is the qubits-per-region target; regions
	// below 2 disable partitioning (small chips are grouped whole).
	PartitionTargetSize int
	// MaxFitSamples subsamples the calibration campaign before model
	// fitting so large chips stay tractable. Defaults to 1500; an
	// explicit zero (no cap) is honored only when HasMaxFitSamples is
	// set.
	MaxFitSamples int
	// HasMaxFitSamples marks MaxFitSamples as explicitly set, so a zero
	// value means "fit on the full campaign" instead of the default.
	HasMaxFitSamples bool
	// SparseQubitZ enables the surface-code operation mode for TDM
	// grouping (see tdm.Config.SparseQubitZ).
	SparseQubitZ bool
	// TDMMinLossyFraction overrides tdm.Config.MinLossyFraction when
	// non-zero (higher = stricter grouping, less serialization).
	TDMMinLossyFraction float64
	// TDMLossyLimit overrides tdm.Config.LossyLimit when non-zero.
	TDMLossyLimit int
	// AnnealSteps, when positive, refines the greedy frequency
	// allocation with that many simulated-annealing moves.
	AnnealSteps int
	// Fit configures the crosstalk model search. Zero value gets a
	// fast default (coarser grid and smaller forest than
	// crosstalk.DefaultFitConfig, adequate for grouping guidance).
	Fit crosstalk.FitConfig
	// Workers bounds the worker pool of every parallel pipeline stage
	// (calibration campaign, model grid search, per-region grouping).
	// <= 0 selects runtime.GOMAXPROCS(0); 1 runs fully sequentially. The
	// designed system is bit-identical for every value — randomness is
	// split per task from Seed, never shared across workers (see
	// internal/parallel). Workers is therefore excluded from every
	// artifact key: a cached stage output is valid at any parallelism.
	Workers int
	// Faults injects a deterministic device-defect and calibration
	// fault plan into the build (see internal/faults). The zero value
	// disables injection and reproduces the fault-free pipeline
	// bit-for-bit.
	Faults faults.Spec
	// RetryBudget is the number of re-measurement attempts per qubit
	// pair after a calibration dropout (each attempt re-seeds its RNG
	// stream deterministically; there is no wall-clock backoff).
	// 0 selects the default (3); negative disables retries.
	RetryBudget int
	// Obs, when non-nil, receives this build's instrumentation: the
	// outcome counters of its own stage invocations (a shared store
	// counts each build into the registry that build carries), one
	// latency histogram per executed stage ("stage/<name>"), the
	// build's wall time ("build/design"), the store's occupancy gauges
	// as the build ends, and the package counters of the work its
	// stages execute (worker pool, calibration faults, fit,
	// predictions). It rides on the build's context (obs.NewContext).
	// It is pure observation — normalized() leaves it untouched, no
	// artifact key digests it (Digest excludes it alongside Workers),
	// and the designed system is bit-identical with or without it.
	Obs *obs.Registry
}

// normalized completes the zero value with defaults. It is applied
// exactly once, at the public entry points (Build* and
// Designer.RedesignCtx) — it is not idempotent (RetryBudget folds
// negative to 0 and 0 to 3), and artifact keys digest normalized
// fields, so double application would corrupt both semantics and keys.
func (o Options) normalized() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FDMCapacity <= 0 {
		o.FDMCapacity = 5
	}
	if o.Theta == 0 && !o.HasTheta {
		o.Theta = 4
	}
	if o.PartitionTargetSize == 0 {
		o.PartitionTargetSize = 36
	}
	if o.MaxFitSamples == 0 && !o.HasMaxFitSamples {
		o.MaxFitSamples = 1500
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 3
	} else if o.RetryBudget < 0 {
		o.RetryBudget = 0
	}
	if len(o.Fit.WeightGrid) == 0 {
		o.Fit = crosstalk.FitConfig{
			WeightGrid: []float64{0, 0.25, 0.5, 1.0},
			Folds:      5,
			Forest: mlfit.ForestConfig{
				NumTrees: 12,
				Tree:     mlfit.TreeConfig{MaxDepth: 10, MinLeafSize: 4},
				Seed:     1,
			},
		}
	}
	if o.Fit.Workers == 0 {
		o.Fit.Workers = o.Workers
	}
	// A campaign that injects heavy-tailed outliers defends the fit by
	// default: trim a band twice the injection rate (capped), unless
	// the caller chose a fraction explicitly.
	if o.Faults.OutlierRate > 0 && o.Fit.TrimOutlierFraction == 0 {
		f := 2 * o.Faults.OutlierRate
		if f > 0.2 {
			f = 0.2
		}
		o.Fit.TrimOutlierFraction = f
	}
	return o
}

// Stable per-stage stream indices for parallel.TaskSeed: each pipeline
// stage that needs randomness owns a fixed stream of the design seed,
// so stages never share RNG state and can run in any order or in
// parallel without perturbing each other's draws.
const (
	streamMeasureXY = iota + 1
	streamSubsampleXY
	streamMeasureZZ
	streamSubsampleZZ
	streamPartition
	// streamMeasureAlt/streamSubsampleAlt serve experiments fitting a
	// second same-kind model in one run (Figure 12's transfer pair).
	streamMeasureAlt
	streamSubsampleAlt
	// streamFaults draws the fault plan. Appended last so fault-free
	// builds replay the exact historical streams.
	streamFaults
)

// Pipeline is the fully-designed YOUTIAO control system for one chip.
type Pipeline struct {
	Opts   Options
	Chip   *chip.Chip
	Device *xmon.Device

	ModelXY *crosstalk.Model
	ModelZZ *crosstalk.Model
	PredXY  *crosstalk.Predictor
	PredZZ  *crosstalk.Predictor

	Partition *partition.Partition
	FDM       *fdm.Grouping
	FreqPlan  *fdm.FrequencyPlan
	Gates     *tdm.GateInfo
	TDM       *tdm.Grouping

	// Faults is the injected defect plan, nil for a fault-free build.
	Faults *faults.Plan
	// Calib aggregates the calibration campaign's fault accounting
	// (dropouts, retries, lost pairs, outliers) across both channels.
	Calib faults.CampaignStats
}

// BuildPipeline designs the complete YOUTIAO control system for a chip.
func BuildPipeline(c *chip.Chip, opts Options) (*Pipeline, error) {
	return BuildPipelineCtx(context.Background(), c, opts)
}

// BuildPipelineCtx is BuildPipeline with cooperative cancellation: the
// calibration campaign, model grid search and per-region grouping all
// check ctx and return its error (wrapped in a *DesignError) once it
// fires.
//
// The one-shot build runs the stage flow through a private, discarded
// artifact store. Fabrication assigns base frequencies into the
// caller's chip (experiments read them back); use a Designer to keep
// the chip pristine and to reuse artifacts across builds.
func BuildPipelineCtx(ctx context.Context, c *chip.Chip, opts Options) (*Pipeline, error) {
	opts = opts.normalized()
	return design(ctx, stage.NewStore(), &build{opts: opts, seed: opts.Seed, chip: c, chipKey: chipFingerprint(c)})
}

// BuildPipelineOnDevice designs the system for an already-fabricated
// device (used by the model-transfer experiments).
func BuildPipelineOnDevice(dev *xmon.Device, opts Options) (*Pipeline, error) {
	return BuildPipelineOnDeviceCtx(context.Background(), dev, opts)
}

// BuildPipelineOnDeviceCtx is BuildPipelineOnDevice with cooperative
// cancellation, mirroring BuildPipelineCtx.
func BuildPipelineOnDeviceCtx(ctx context.Context, dev *xmon.Device, opts Options) (*Pipeline, error) {
	return NewDesignerOnDevice(dev).RedesignCtx(ctx, opts)
}

// AttachModels installs externally-trained crosstalk models (the
// Figure 12 transfer scenario) and redesigns the groupings with them.
// The redesign runs through a private store with the device, fault plan
// and models given, so only the partition and grouping stages execute;
// the model keys digest the attached models' fitted weights rather than
// a measurement lineage.
func (p *Pipeline) AttachModels(xy, zz *crosstalk.Model) error {
	p.ModelXY, p.ModelZZ = xy, zz
	p.PredXY = xy.On(p.Chip)
	p.PredZZ = zz.On(p.Chip)
	base := chipFingerprint(p.Chip)
	// The plan is given as drawn; key it as a draw at the raw seed.
	faultsK := stage.NewKey(StageFaults).Key(base)
	faultsParams(&build{opts: p.Opts, seed: p.Opts.Seed}, faultsK)
	in, err := runGraph(context.Background(), stage.NewStore(), "build/attach-models", &build{opts: p.Opts, seed: p.Opts.Seed + 13},
		stage.Given{Name: StageFabricate, Key: base, Val: p.Device},
		stage.Given{Name: StageFaults, Key: faultsK.Done(), Val: p.Faults},
		stage.Given{Name: StageCharacterizeXY, Key: attachedModelKey(base, "xy", xy), Val: &characterization{Model: xy, Pred: p.PredXY}},
		stage.Given{Name: StageCharacterizeZZ, Key: attachedModelKey(base, "zz", zz), Val: &characterization{Model: zz, Pred: p.PredZZ}})
	if err != nil {
		return err
	}
	p.setGroupings(in)
	return nil
}

// attachedModelKey stands in for a characterize-stage key when the
// model arrives pre-trained: it digests the model's fitted metric
// weights and cross-validation error instead of a measurement lineage.
func attachedModelKey(base stage.Key, channel string, m *crosstalk.Model) stage.Key {
	return stage.NewKey("attached-model").
		Key(base).String(channel).
		Float64(m.Weights.WPhy).Float64(m.Weights.WTop).Float64(m.CVError).
		Done()
}

// aliveQubits returns the qubits the fault plan left operable (all of
// them for a fault-free build), sorted ascending.
func (p *Pipeline) aliveQubits() []int {
	return p.Faults.AliveQubits(p.Chip.NumQubits())
}

// usableDevices returns the TDM device ids the design must cover:
// alive qubits plus usable couplers.
func (p *Pipeline) usableDevices() []int {
	nq := p.Chip.NumQubits()
	devs := make([]int, 0, nq+len(p.Chip.Couplers))
	for q := 0; q < nq; q++ {
		if !p.Faults.QubitDead(q) {
			devs = append(devs, q)
		}
	}
	for ci := range p.Chip.Couplers {
		if p.Faults.CouplerUsable(p.Chip, ci) {
			devs = append(devs, p.Gates.Dev.CouplerDevice(ci))
		}
	}
	return devs
}

// Validate re-checks every design invariant of a finished pipeline
// against its fault plan and returns a *DesignError naming the first
// failing stage:
//
//   - partition: regions cover exactly the alive qubits, none dead,
//     connectivity within the alive subgraph;
//   - fdm-group: groups cover exactly the alive qubits within capacity;
//   - allocate: every grouped qubit has a frequency in its line's zone;
//   - tdm: groups cover exactly the usable devices (a dead qubit or
//     broken coupler in any group is an error), no gate's devices
//     share a group, and every stuck-lossy device sits alone on a
//     direct line.
//
// Build* runs these checks implicitly via the stage constructors;
// Validate exists so campaigns and tests can assert the contract on
// the assembled result.
func (p *Pipeline) Validate() error {
	if p.Chip == nil || p.FDM == nil || p.FreqPlan == nil || p.Gates == nil || p.TDM == nil {
		return &DesignError{Stage: "validate", Err: fmt.Errorf("pipeline is incomplete (missing design stages)")}
	}
	var exclude func(q int) bool
	if p.Faults != nil {
		exclude = p.Faults.QubitDead
	}
	if p.Partition != nil {
		if err := p.Partition.ValidateExcluding(p.Chip, exclude); err != nil {
			return &DesignError{Stage: "partition", Err: err}
		}
	}
	alive := p.aliveQubits()
	if err := p.FDM.ValidateMembers(alive); err != nil {
		return &DesignError{Stage: StageFDMGroup, Err: err}
	}
	if err := p.FreqPlan.Validate(p.FDM); err != nil {
		return &DesignError{Stage: "allocate", Err: err}
	}
	devices := p.usableDevices()
	if err := p.TDM.ValidateDevices(p.Gates, devices); err != nil {
		return &DesignError{Stage: "tdm", Err: err}
	}
	if p.Faults != nil {
		for _, d := range devices {
			stuck := p.Faults.QubitStuckLossy(d)
			if p.Gates.Dev.IsCoupler(d) {
				stuck = p.Faults.CouplerStuckLossy(p.Gates.Dev.CouplerID(d))
			}
			if !stuck {
				continue
			}
			gid := p.TDM.GroupOf(d)
			if gid < 0 {
				return &DesignError{Stage: "tdm", Err: fmt.Errorf("stuck-lossy device %s missing from grouping", p.Gates.Dev.Name(d))}
			}
			grp := p.TDM.Groups[gid]
			if len(grp.Devices) != 1 || grp.Level != tdm.DemuxNone {
				return &DesignError{Stage: "tdm", Err: fmt.Errorf("stuck-lossy device %s shares a DEMUX (group %d, level %s)",
					p.Gates.Dev.Name(d), gid, grp.Level)}
			}
		}
	}
	return nil
}

// ScheduleBenchmark compiles the named benchmark circuit ("VQC",
// "ISING", "DJ", "QFT", "QKNN") at the given logical width onto the
// pipeline's chip and schedules it under the designed TDM grouping.
func (p *Pipeline) ScheduleBenchmark(name string, qubits int) (*schedule.Schedule, error) {
	logical, err := circuit.Benchmark(circuit.BenchmarkName(name), qubits, p.Opts.Seed)
	if err != nil {
		return nil, err
	}
	compiled, err := circuit.CompileSabre(logical, p.Chip)
	if err != nil {
		return nil, err
	}
	return schedule.New(p.Chip, p.TDM, schedule.DefaultDurations()).Run(compiled.Circuit)
}
