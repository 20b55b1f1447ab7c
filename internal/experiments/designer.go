package experiments

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/fdm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stage"
	"repro/internal/stage/cas"
	"repro/internal/tdm"
	"repro/internal/xmon"
)

// Stage names of the design flow, in pipeline order. They key the
// artifact store's instrumentation and name the nodes of
// PipelineStageGraph.
const (
	StageFabricate      = "fabricate"
	StageFaults         = "faults"
	StageCharacterizeXY = "characterize-xy"
	StageCharacterizeZZ = "characterize-zz"
	StagePartition      = "partition"
	StageFDMGroup       = "fdm-group"
	StageAllocate       = "allocate"
	StageAnneal         = "anneal"
	StageTDMGates       = "tdm-gates"
	StageTDM            = "tdm"
)

// Node indices of PipelineStageGraph, in declaration order: a run's
// artifact of stage StageX is in[nX].
const (
	nFabricate = iota
	nFaults
	nCharacterizeXY
	nCharacterizeZZ
	nPartition
	nFDMGroup
	nAllocate
	nAnneal
	nTDMGates
	nTDM
)

// PipelineStageGraph is the design flow: the table of stages the
// engine runs for every build. Each stage's artifact key chains the
// keys of exactly the inputs listed here, so the table doubles as the
// invalidation contract: changing an option that only the tdm stage
// reads (Theta, say) moves only the tdm key, and a warm Redesign
// re-executes the tdm stage alone, recalling the Theta-independent
// tdm-gates analysis. The engine runs independent neighbors as one
// wave: XY ∥ ZZ characterization, and tdm-gates alongside allocate (or
// anneal). A design reads every artifact but the ZZ characterization,
// unless it has a fault plan, whose report reads the ZZ campaign's.
var PipelineStageGraph = stage.MustGraph([]stage.Node[*build]{
	nFabricate: {Name: StageFabricate, Params: fabricateParams, Run: runFabricate, Codec: deviceCodec},
	nFaults: {Name: StageFaults, Inputs: []string{StageFabricate},
		Params: faultsParams, Run: runFaults, Codec: faultsCodec},
	nCharacterizeXY: characterizeNode(StageCharacterizeXY, xmon.XY, streamMeasureXY, streamSubsampleXY, nil),
	nCharacterizeZZ: characterizeNode(StageCharacterizeZZ, xmon.ZZ, streamMeasureZZ, streamSubsampleZZ,
		func(b *build) bool { return !b.opts.Faults.Enabled() }),
	nPartition: {Name: StagePartition, Inputs: []string{StageFaults, StageCharacterizeXY},
		Params: partitionParams, Run: runPartition, Codec: partitionCodec},
	nFDMGroup: {Name: StageFDMGroup, Inputs: []string{StagePartition, StageCharacterizeXY}, Parallel: true,
		Params: fdmGroupParams, Run: runFDMGroup, Codec: fdmCodec},
	nAllocate: {Name: StageAllocate, Inputs: []string{StageFDMGroup, StageCharacterizeXY},
		Run: runAllocate, Codec: freqPlanCodec},
	nAnneal: {Name: StageAnneal, Inputs: []string{StageAllocate},
		Skip: func(b *build) bool { return b.opts.AnnealSteps <= 0 }, Params: annealParams, Run: runAnneal, Codec: freqPlanCodec},
	nTDMGates: {Name: StageTDMGates, Inputs: []string{StageFaults, StagePartition, StageCharacterizeZZ},
		Run: runTDMGates, Codec: tdmGatesCodec},
	nTDM: {Name: StageTDM, Inputs: []string{StageTDMGates, StageCharacterizeZZ}, Parallel: true,
		Params: tdmParams, Run: runTDM, Codec: tdmCodec},
}...)

// build is one run of PipelineStageGraph: normalized options, the
// design seed every post-fabrication stage splits its own streams off
// (so the result is invariant in opts.Workers, which is why Workers
// appears in no key), and the chip fabricate starts from.
type build struct {
	opts    Options
	seed    int64
	chip    *chip.Chip
	chipKey stage.Key
	// clone fabricates into a copy, keeping a cached Designer's
	// prototype pristine and per-seed frequency plans isolated.
	clone bool
}

// get returns artifact i of a run, asserted to its stage's type.
func get[T any](in []any, i int) T { return in[i].(T) }

// design runs PipelineStageGraph for b through store, keyed through
// memo (nil: no memo), on ctx carrying b's registry, so the stage
// outcomes and every package counter the stages drive land in it. It
// times the whole build into "build/design" and assembles its Pipeline.
// Every obs call is nil-safe, so the disabled path costs a handful of
// nil checks.
func design(ctx context.Context, store *stage.Store, memo *stage.Memo, b *build, given ...stage.Given) (*Pipeline, error) {
	start := time.Now()
	run, err := PipelineStageGraph.Run(obs.NewContext(ctx, b.opts.Obs), store, memo, b, b.opts.Workers, given...)
	b.opts.Obs.Histogram("build/design").Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	in := run.In()
	dev := get[*xmon.Device](in, nFabricate)
	xy := get[*characterization](in, nCharacterizeXY)
	p := &Pipeline{
		Opts: b.opts, Chip: dev.Chip, Device: dev,
		Faults:  get[*faults.Plan](in, nFaults),
		ModelXY: xy.Model, PredXY: xy.Pred, Calib: xy.Stats,
		Partition: get[*partition.Partition](in, nPartition),
		FDM:       get[*fdm.Grouping](in, nFDMGroup),
		FreqPlan:  get[*fdm.FrequencyPlan](in, nAllocate),
		Gates:     get[*tdmGates](in, nTDMGates).Gates,
		TDM:       get[*tdm.Grouping](in, nTDM),
		run:       run,
	}
	if in[nAnneal] != nil {
		p.FreqPlan = get[*fdm.FrequencyPlan](in, nAnneal)
	}
	return p, nil
}

// chipFingerprint digests everything the pipeline reads off a chip:
// identity, topology, geometry and per-qubit physics. Two chips with
// equal fingerprints fabricate bit-identical devices from equal seeds,
// which is what lets a shared DesignCache serve structurally identical
// chips from one artifact set.
func chipFingerprint(c *chip.Chip) stage.Key { return chipComponents(stage.NewKey("chip"), c).Done() }

// chipComponents appends the chip's fingerprint components to b.
func chipComponents(b *stage.KeyBuilder, c *chip.Chip) *stage.KeyBuilder {
	b.String(c.Name).String(c.Topology).
		Int(c.NumQubits()).Int(c.NumCouplers())
	for _, q := range c.Qubits {
		b.Int(q.ID).Float64(q.Pos.X).Float64(q.Pos.Y).Float64(q.BaseFreq).Float64(q.T1)
	}
	for _, cp := range c.Couplers {
		b.Int(cp.A).Int(cp.B)
	}
	return b
}

// deviceFingerprint digests a fabricated device: its chip (whose
// BaseFreq fields now carry the fabricated frequency plan) and the
// fabrication parameters. The latent disorder matrices are not
// recoverable, so a device-mode Designer never shares its store with
// another device — within one store the fingerprint only has to
// distinguish rebuild options, which downstream keys do.
func deviceFingerprint(dev *xmon.Device) stage.Key {
	p := dev.Params
	return stage.NewKey("device").
		Key(chipFingerprint(dev.Chip)).
		Float64(p.AmplitudeXY).Float64(p.AmplitudeZZ).
		Float64(p.PhysDecay).Float64(p.TopDecay).
		Float64(p.CollisionWidth).Float64(p.DisorderSigma).
		Float64(p.FreqDisorder).
		Done()
}

// fabricateParams keys device fabrication: the chip fingerprint and the
// raw seed (fabrication keeps its own sequential stream at the raw seed
// so a given (chip, seed) always yields the same device).
func fabricateParams(b *build, k *stage.KeyBuilder) {
	k.Key(b.chipKey).Int64(b.opts.Seed)
}

// runFabricate fabricates the device. It writes base frequencies into
// the chip it fabricates on.
func runFabricate(_ context.Context, b *build, _ []any) (any, error) {
	target := b.chip
	if b.clone {
		target = target.Clone()
	}
	rng := rand.New(rand.NewSource(b.opts.Seed))
	return xmon.NewDevice(target, xmon.DefaultParams(), rng), nil
}

// Designer owns an artifact store over one chip (or one pre-fabricated
// device) and redesigns incrementally: Redesign re-executes only the
// stages whose keyed inputs changed since the last call, recalling
// every other artifact bit-for-bit from the store. Sweeping Theta, for
// example, re-runs the tdm stage alone — the fitted models, partition
// and frequency plan are reused without a single re-measurement.
//
// A Designer is safe for concurrent Redesign calls (the store is
// single-flight per artifact). Artifacts are held for the Designer's
// lifetime; drop the Designer to release them. The keys of its recent
// builds are remembered too, so a repeated option set keys nothing.
type Designer struct {
	chip   *chip.Chip
	chipFP stage.Key

	dev   *xmon.Device
	devFP stage.Key

	store *stage.Store
	memo  stage.Memo
}

// NewDesigner returns a Designer over a chip prototype. The chip is
// never mutated: fabrication happens on per-seed clones, unlike the
// one-shot BuildPipeline which (historically, and still) assigns base
// frequencies in place.
func NewDesigner(c *chip.Chip) *Designer {
	return newDesignerWithStore(c, stage.NewStore())
}

func newDesignerWithStore(c *chip.Chip, store *stage.Store) *Designer {
	return &Designer{chip: c, chipFP: chipFingerprint(c), store: store}
}

// NewDesignerOnDevice returns a Designer over an already-fabricated
// device (the model-transfer scenario). The device's latent disorder is
// not part of its fingerprint, so the store is private to this device.
func NewDesignerOnDevice(dev *xmon.Device) *Designer {
	return &Designer{dev: dev, devFP: deviceFingerprint(dev), store: stage.NewStore()}
}

// Redesign designs the system for opts, reusing every cached stage
// whose inputs are unchanged.
func (d *Designer) Redesign(opts Options) (*Pipeline, error) {
	return d.RedesignCtx(context.Background(), opts)
}

// RedesignCtx is Redesign with cooperative cancellation.
func (d *Designer) RedesignCtx(ctx context.Context, opts Options) (*Pipeline, error) {
	opts = opts.normalized()
	if d.dev != nil {
		// Device designs split their streams off Seed+7; the offset is
		// part of every pinned device-mode key and design.
		return design(ctx, d.store, &d.memo, &build{opts: opts, seed: opts.Seed + 7},
			stage.Given{Name: StageFabricate, Key: d.devFP, Val: d.dev})
	}
	return design(ctx, d.store, &d.memo, &build{opts: opts, seed: opts.Seed, chip: d.chip, chipKey: d.chipFP, clone: true})
}

// Store exposes the Designer's artifact store (for stats assertions and
// report rendering).
func (d *Designer) Store() *stage.Store { return d.store }

// Report snapshots the Designer's per-stage instrumentation.
func (d *Designer) Report() stage.Report { return d.store.Report() }

// DesignCache shares one artifact store across the Designers of many
// chips — the sweep experiments' backbone and the serving layer's
// request cache: a sweep over defect rates, Theta values or chip sizes
// (or a stream of HTTP design requests) builds every point through one
// cache, so per-point builds stop re-fitting unchanged
// characterization.
type DesignCache struct {
	mu        sync.Mutex
	store     *stage.Store
	designers map[string]*Designer // by the chip fingerprint's components
}

// NewDesignCache returns an empty cache over an unbounded store.
func NewDesignCache() *DesignCache {
	return NewDesignCacheWithStore(stage.NewStore())
}

// NewDesignCacheWithStore returns a cache over a caller-provided store,
// which is how a long-running server bounds the cache: build the store
// with stage.NewStoreWith and a byte budget, and every designer handed
// out by the cache shares the bounded, evicting artifact set.
func NewDesignCacheWithStore(store *stage.Store) *DesignCache {
	return &DesignCache{
		store:     store,
		designers: make(map[string]*Designer),
	}
}

// OpenDesignCache returns a cache whose store persists every pipeline
// artifact under dir through the on-disk CAS backend (bounded by
// diskBytes; 0 = unbounded): a restarted process, or a replica pointed
// at the same directory, recalls warm artifacts instead of
// re-characterizing. memCfg bounds the memory tier exactly as in
// NewDesignCacheWithStore; its Backend field is overwritten.
func OpenDesignCache(dir string, memCfg stage.Config, diskBytes int64) (*DesignCache, error) {
	backend, err := cas.Open(dir, cas.Config{MaxBytes: diskBytes})
	if err != nil {
		return nil, err
	}
	memCfg.Backend = backend
	return NewDesignCacheWithStore(stage.NewStoreWith(memCfg)), nil
}

// Designer returns the cached Designer for a chip, creating it on first
// use. Designers are keyed by chip fingerprint, not pointer, so
// structurally identical chips (a server parsing the same request twice
// into distinct *Chip values) share one Designer — and therefore one
// single-flight per artifact — rather than just one store. The lookup
// reads the bytes the fingerprint digests; only a new Designer hashes
// them.
func (dc *DesignCache) Designer(c *chip.Chip) *Designer {
	rec := chipComponents(stage.Record("chip"), c)
	defer rec.Release()
	dc.mu.Lock()
	defer dc.mu.Unlock()
	d, ok := dc.designers[string(rec.Recorded())]
	if !ok {
		d = &Designer{chip: c, chipFP: rec.Done(), store: dc.store}
		dc.designers[string(rec.Recorded())] = d
	}
	return d
}

// Report snapshots the shared store's per-stage instrumentation.
func (dc *DesignCache) Report() stage.Report { return dc.store.Report() }

// Store exposes the shared artifact store.
func (dc *DesignCache) Store() *stage.Store { return dc.store }
