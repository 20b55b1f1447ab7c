package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stage"
	"repro/internal/stage/cas"
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
	StageTDM            = "tdm"
)

// PipelineStageGraph is the declared dependency structure of the design
// flow. Every stage's artifact key chains the keys of exactly the
// inputs listed here, so the graph doubles as the invalidation contract:
// changing an option that only the tdm stage reads (Theta, say) leaves
// every artifact outside Downstream-closure-of-nothing — only the tdm
// key moves, and a warm Redesign re-executes the tdm stage alone.
var PipelineStageGraph = stage.MustGraph(
	stage.Stage{Name: StageFabricate},
	stage.Stage{Name: StageFaults, Inputs: []string{StageFabricate}},
	stage.Stage{Name: StageCharacterizeXY, Inputs: []string{StageFabricate, StageFaults}},
	stage.Stage{Name: StageCharacterizeZZ, Inputs: []string{StageFabricate, StageFaults}},
	stage.Stage{Name: StagePartition, Inputs: []string{StageFaults, StageCharacterizeXY}},
	stage.Stage{Name: StageFDMGroup, Inputs: []string{StagePartition, StageCharacterizeXY}},
	stage.Stage{Name: StageAllocate, Inputs: []string{StageFDMGroup, StageCharacterizeXY}},
	stage.Stage{Name: StageAnneal, Inputs: []string{StageAllocate}},
	stage.Stage{Name: StageTDM, Inputs: []string{StageFaults, StagePartition, StageCharacterizeZZ}},
)

// chipFingerprint digests everything the pipeline reads off a chip:
// identity, topology, geometry and per-qubit physics. Two chips with
// equal fingerprints fabricate bit-identical devices from equal seeds,
// which is what lets a shared DesignCache serve structurally identical
// chips from one artifact set.
func chipFingerprint(c *chip.Chip) stage.Key {
	b := stage.NewKey("chip").
		String(c.Name).String(c.Topology).
		Int(c.NumQubits()).Int(c.NumCouplers())
	for _, q := range c.Qubits {
		b.Int(q.ID).Float64(q.Pos.X).Float64(q.Pos.Y).Float64(q.BaseFreq).Float64(q.T1)
	}
	for _, cp := range c.Couplers {
		b.Int(cp.A).Int(cp.B)
	}
	return b.Done()
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

// fabricateKey keys device fabrication: the chip fingerprint and the
// raw seed (fabrication keeps its own sequential stream at the raw seed
// so a given (chip, seed) always yields the same device).
func fabricateKey(chipK stage.Key, seed int64) stage.Key {
	return stage.NewKey(StageFabricate).Key(chipK).Int64(seed).Done()
}

// buildTarget tells buildStaged what to design on: a chip to fabricate
// (in place for one-shot builds, into a clone for cached Designers) or
// an already-fabricated device.
type buildTarget struct {
	chip    *chip.Chip
	chipKey stage.Key
	clone   bool

	dev    *xmon.Device
	devKey stage.Key
}

// buildStaged runs the full design flow through the artifact store:
// fabricate → faults → characterize (XY ∥ ZZ) → designStaged. opts must
// already be normalized. designSeed is the master seed of every
// post-fabrication stage; each stage splits its own stream off it, so
// the XY and ZZ campaigns are independent tasks and the result is
// invariant in opts.Workers — which is also why Workers appears in no
// artifact key.
func buildStaged(ctx context.Context, store *stage.Store, tgt buildTarget, opts Options, designSeed int64) (*Pipeline, error) {
	// Per-build instrumentation: route the store's cache counters into
	// the registry and open the design span tree. Every obs call below
	// is nil-safe, so the disabled path costs a handful of nil checks.
	store.Observe(opts.Obs)
	root := opts.Obs.StartSpan("design")
	defer root.End()

	dev, devKey := tgt.dev, tgt.devKey
	if dev == nil {
		devKey = fabricateKey(tgt.chipKey, opts.Seed)
		fabSpan := root.Child(StageFabricate)
		var err error
		dev, _, err = stage.Do(ctx, store, StageFabricate, devKey, 1, func(context.Context) (*xmon.Device, error) {
			target := tgt.chip
			if tgt.clone {
				// Fabrication writes base frequencies into the chip;
				// a cached Designer keeps the caller's prototype
				// pristine and isolates per-seed frequency plans.
				target = target.Clone()
			}
			rng := rand.New(rand.NewSource(opts.Seed))
			return xmon.NewDevice(target, xmon.DefaultParams(), rng), nil
		})
		fabSpan.End()
		if err != nil {
			return nil, stageErr(StageFabricate, err)
		}
	}
	c := dev.Chip
	p := &Pipeline{Opts: opts, Chip: c, Device: dev}

	faultsK := faultsStageKey(devKey, opts.Faults, designSeed)
	faultSpan := root.Child(StageFaults)
	plan, err := runFaultsStage(ctx, store, faultsK, c, opts, designSeed)
	faultSpan.End()
	if err != nil {
		return nil, stageErr(StageFaults, err)
	}
	p.Faults = plan

	// The two channels are measured and fitted concurrently; inside
	// each fit the weight grid fans out again over the same Workers
	// budget.
	xyK := characterizeKey(StageCharacterizeXY, devKey, faultsK, opts, designSeed, streamMeasureXY, streamSubsampleXY)
	zzK := characterizeKey(StageCharacterizeZZ, devKey, faultsK, opts, designSeed, streamMeasureZZ, streamSubsampleZZ)
	specs := []struct {
		name                     string
		key                      stage.Key
		kind                     xmon.CrosstalkKind
		measureStream, subStream uint64
	}{
		{StageCharacterizeXY, xyK, xmon.XY, streamMeasureXY, streamSubsampleXY},
		{StageCharacterizeZZ, zzK, xmon.ZZ, streamMeasureZZ, streamSubsampleZZ},
	}
	chars := make([]*characterization, len(specs))
	err = parallel.ForEachCtx(ctx, min2(opts.Workers), len(specs), func(i int) error {
		sp := specs[i]
		span := root.Child(sp.name)
		defer span.End()
		ch, err := runCharacterize(ctx, store, sp.name, sp.key, dev, sp.kind, opts, designSeed, sp.measureStream, sp.subStream, plan)
		if err != nil {
			return fmt.Errorf("%v model: %w", sp.kind, err)
		}
		chars[i] = ch
		return nil
	})
	if err != nil {
		return nil, stageErr("characterize", err)
	}
	p.ModelXY, p.ModelZZ = chars[0].Model, chars[1].Model
	p.Calib.Add(chars[0].Stats)
	p.Calib.Add(chars[1].Stats)
	p.PredXY, p.PredZZ = chars[0].Pred, chars[1].Pred
	return p, designStaged(ctx, store, p, root, faultsK, xyK, zzK, parallel.TaskSeed(designSeed, streamPartition))
}

// designStaged runs partition → FDM → allocation → TDM through the
// store with the pipeline's current predictors. partSeed drives the
// generative partition only; the grouping stages are deterministic
// searches. Dead qubits and broken couplers of the fault plan are
// excluded from every stage: the design covers exactly the devices the
// chip can still operate.
func designStaged(ctx context.Context, store *stage.Store, p *Pipeline, root *obs.Span, faultsK, xyK, zzK stage.Key, partSeed int64) error {
	c := p.Chip
	opts := p.Opts
	dist := p.PredXY.EquivDistance

	partK := partitionKey(faultsK, xyK, opts.PartitionTargetSize, partSeed)
	span := root.Child(StagePartition)
	part, err := runPartitionStage(ctx, store, partK, c, p.Faults, dist, opts.PartitionTargetSize, partSeed, 1)
	span.End()
	if err != nil {
		return stageErr(StagePartition, err)
	}
	p.Partition = part

	regions := regionsOf(part, p.aliveQubits())
	fdmK := fdmGroupKey(partK, xyK, opts.FDMCapacity)
	span = root.Child(StageFDMGroup)
	grouping, err := runFDMGroupStage(ctx, store, fdmK, regions, opts.FDMCapacity, dist, opts.Workers)
	span.End()
	if err != nil {
		return stageErr("fdm", err)
	}
	p.FDM = grouping

	allocK := allocateKey(fdmK, xyK)
	span = root.Child(StageAllocate)
	plan, err := runAllocateStage(ctx, store, allocK, grouping, p.PredXY.Predict)
	span.End()
	if err != nil {
		return stageErr(StageAllocate, err)
	}
	if opts.AnnealSteps > 0 {
		annealK := annealKey(allocK, opts.AnnealSteps, opts.Seed)
		span = root.Child(StageAnneal)
		plan, err = runAnnealStage(ctx, store, annealK, plan, grouping, p.PredXY.Predict, opts.AnnealSteps, opts.Seed)
		span.End()
		if err != nil {
			return stageErr(StageAnneal, err)
		}
	}
	p.FreqPlan = plan

	tdmK := tdmKey(faultsK, partK, zzK, opts)
	span = root.Child(StageTDM)
	td, err := runTDMStage(ctx, store, tdmK, c, p.Faults, part, p.PredZZ, opts)
	span.End()
	if err != nil {
		return stageErr(StageTDM, err)
	}
	p.Gates = td.Gates
	p.TDM = td.Grouping
	return nil
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
// lifetime; drop the Designer to release them.
type Designer struct {
	chip   *chip.Chip
	chipFP stage.Key

	dev   *xmon.Device
	devFP stage.Key

	store *stage.Store
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
		// Mirror BuildPipelineOnDevice's seed offset so device designs
		// stay bit-identical to the one-shot path.
		return buildStaged(ctx, d.store, buildTarget{dev: d.dev, devKey: d.devFP}, opts, opts.Seed+7)
	}
	return buildStaged(ctx, d.store, buildTarget{chip: d.chip, chipKey: d.chipFP, clone: true}, opts, opts.Seed)
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
	designers map[stage.Key]*Designer
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
		designers: make(map[stage.Key]*Designer),
	}
}

// OpenDesignCache returns a cache whose store persists every pipeline
// artifact under dir through the on-disk CAS backend (bounded by
// diskBytes; 0 = unbounded): a restarted process, or a replica pointed
// at the same directory, recalls warm artifacts instead of
// re-characterizing. memCfg bounds the memory tier exactly as in
// NewDesignCacheWithStore; its Backend and Codecs fields are
// overwritten.
func OpenDesignCache(dir string, memCfg stage.Config, diskBytes int64) (*DesignCache, error) {
	backend, err := cas.Open(dir, cas.Config{MaxBytes: diskBytes})
	if err != nil {
		return nil, err
	}
	memCfg.Backend = backend
	memCfg.Codecs = StageCodecs()
	return NewDesignCacheWithStore(stage.NewStoreWith(memCfg)), nil
}

// Designer returns the cached Designer for a chip, creating it on first
// use. Designers are keyed by chip fingerprint, not pointer, so
// structurally identical chips (a server parsing the same request twice
// into distinct *Chip values) share one Designer — and therefore one
// single-flight per artifact — rather than just one store.
func (dc *DesignCache) Designer(c *chip.Chip) *Designer {
	fp := chipFingerprint(c)
	dc.mu.Lock()
	defer dc.mu.Unlock()
	d, ok := dc.designers[fp]
	if !ok {
		d = &Designer{chip: c, chipFP: fp, store: dc.store}
		dc.designers[fp] = d
	}
	return d
}

// Report snapshots the shared store's per-stage instrumentation.
func (dc *DesignCache) Report() stage.Report { return dc.store.Report() }

// Store exposes the shared artifact store.
func (dc *DesignCache) Store() *stage.Store { return dc.store }
