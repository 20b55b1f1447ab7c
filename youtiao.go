// Package youtiao is the public API of the YOUTIAO reproduction: a
// hybrid-multiplexing control-wiring designer for superconducting
// quantum processors (Tian et al., MICRO 2025).
//
// YOUTIAO reduces the coaxial-cable and on-chip routing burden of a
// quantum chip by sharing control lines: XY drive and readout lines are
// frequency-division multiplexed (FDM), while Z flux lines are
// time-division multiplexed (TDM) through cryogenic DEMUXes. The
// design pipeline is noise-aware end to end:
//
//  1. fit a crosstalk characterization model from calibration data
//     (equivalent distance -> random-forest regression);
//  2. partition large chips into multiplexing regions (generative
//     chip partition);
//  3. group qubits onto FDM lines and allocate their frequencies in
//     two levels (zones and 10 MHz cells);
//  4. group qubits and couplers onto TDM DEMUXes by exploiting natural
//     (topological and noisy) non-parallelism;
//  5. assemble the cryostat-level wiring bill of materials, price it,
//     and optionally route the chip level.
//
// The one-call entry point is Design:
//
//	ch := youtiao.NewSquareChip(6, 6)
//	design, err := youtiao.Design(ch, youtiao.Options{Seed: 1})
//	if err != nil { ... }
//	fmt.Println(design.Report())
//
// Design works on synthetic devices fabricated by the built-in Xmon
// device model; DesignDevice accepts an externally characterized
// device. The underlying subsystems live in internal/ packages and are
// re-exported here only through stable result types.
package youtiao

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chip"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/stage"
	"repro/internal/tdm"
	"repro/internal/wiring"
	"repro/internal/xmon"
)

// Chip is a quantum-chip description (re-exported).
type Chip = chip.Chip

// Options tune the design pipeline (re-exported from the experiment
// harness so library users and experiments share one configuration).
type Options = experiments.Options

// FaultSpec configures deterministic device-defect and calibration
// fault injection (set it as Options.Faults; the zero value disables
// injection). See internal/faults for the fault model.
type FaultSpec = faults.Spec

// UniformFaults returns a FaultSpec applying rate r to every fault
// class — the CLI's -defect-rate semantics.
func UniformFaults(r float64) FaultSpec { return faults.UniformSpec(r) }

// DesignError reports which pipeline stage a failed design gave up in;
// use errors.As to recover it from Design/DesignCtx errors.
type DesignError = experiments.DesignError

// NewSquareChip returns a w×h square-lattice chip.
func NewSquareChip(w, h int) *Chip { return chip.Square(w, h) }

// NewHexagonChip returns a rows×cols hexagon (brick-wall) chip.
func NewHexagonChip(rows, cols int) *Chip { return chip.Hexagon(rows, cols) }

// NewHeavySquareChip returns a heavy-square chip over a w×h node grid.
func NewHeavySquareChip(w, h int) *Chip { return chip.HeavySquare(w, h) }

// NewHeavyHexagonChip returns a heavy-hexagon chip over a rows×cols
// node grid.
func NewHeavyHexagonChip(rows, cols int) *Chip { return chip.HeavyHexagon(rows, cols) }

// NewLowDensityChip returns a w×h low-density (degree-2 serpentine)
// chip.
func NewLowDensityChip(w, h int) *Chip { return chip.LowDensity(w, h) }

// NewChip builds a chip of the named topology ("square", "hexagon",
// "heavy-square", "heavy-hexagon", "low-density") with approximately n
// qubits.
func NewChip(topology string, n int) (*Chip, error) { return chip.ByTopology(topology, n) }

// FDMLine is one frequency-multiplexed XY line of a design.
type FDMLine struct {
	Qubits []int `json:"qubits"`
	// FreqGHz holds the allocated drive frequency of each qubit, in
	// the order of Qubits.
	FreqGHz []float64 `json:"freqGHz"`
}

// TDMGroup is one Z line of a design: the devices behind one DEMUX.
type TDMGroup struct {
	// Devices names the members: "q<N>" for qubits, "c<N>" for
	// couplers.
	Devices []string `json:"devices"`
	// Demux is the hardware level: "direct", "1:2" or "1:4".
	Demux string `json:"demux"`
	// ControlBits is the number of twisted-pair digital controls.
	ControlBits int `json:"controlBits"`
}

// Wiring is the cryostat-level bill of materials of one architecture.
type Wiring struct {
	Architecture string  `json:"architecture"`
	XYLines      int     `json:"xyLines"`
	ZLines       int     `json:"zLines"`
	ReadoutLines int     `json:"readoutLines"`
	ControlLines int     `json:"controlLines"`
	CoaxLines    int     `json:"coaxLines"`
	DACs         int     `json:"dacs"`
	Interfaces   int     `json:"interfaces"`
	CostUSD      float64 `json:"costUSD"`
}

// DesignResult is a complete multiplexed wiring design for a chip.
type DesignResult struct {
	Chip *Chip

	// CrosstalkWeights are the fitted equivalent-distance weights
	// (w_phy, w_top) of the XY characterization model.
	CrosstalkWeights struct{ WPhy, WTop float64 }
	// CrosstalkCVError is the cross-validated MSE of the XY model.
	CrosstalkCVError float64

	// Regions lists the generative-partition regions (nil when the
	// chip was grouped whole).
	Regions [][]int

	FDMLines  []FDMLine
	TDMGroups []TDMGroup

	// Youtiao and Baseline are the hybrid and Google-style wiring
	// bills for the same chip.
	Youtiao  Wiring
	Baseline Wiring

	// Faults summarizes the injected fault plan and the calibration
	// campaign's degradation accounting; nil for a fault-free design.
	Faults *FaultReport

	pipeline *experiments.Pipeline
}

// FaultReport is the degradation summary of a design built under fault
// injection.
type FaultReport struct {
	DeadQubits     []int `json:"deadQubits"`
	BrokenCouplers []int `json:"brokenCouplers"`
	StuckLossy     int   `json:"stuckLossy"`
	// CalibDropouts..CalibOutliers account for the calibration
	// campaign: measurements lost to dropouts, pairs rescued by
	// retries, pairs lost for good and heavy-tailed outlier samples.
	CalibDropouts  int `json:"calibDropouts"`
	CalibRetried   int `json:"calibRetried"`
	CalibLostPairs int `json:"calibLostPairs"`
	CalibOutliers  int `json:"calibOutliers"`
}

// Design runs the full YOUTIAO pipeline on a chip: it fabricates a
// synthetic Xmon device (deterministic in Options.Seed), characterizes
// crosstalk, partitions, groups, allocates frequencies and assembles
// the wiring plans.
func Design(c *Chip, opts Options) (*DesignResult, error) {
	return DesignCtx(context.Background(), c, opts)
}

// DesignCtx is Design with cooperative cancellation: pass a context
// with a deadline to bound the design time; the pipeline returns the
// context's error promptly once it fires.
func DesignCtx(ctx context.Context, c *Chip, opts Options) (*DesignResult, error) {
	p, err := experiments.BuildPipelineCtx(ctx, c, opts)
	if err != nil {
		return nil, fmt.Errorf("youtiao: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("youtiao: %w", err)
	}
	return fromPipeline(p)
}

// DesignDevice runs the pipeline on an externally fabricated device
// (see package internal/xmon for the synthetic model it replaces).
func DesignDevice(dev *xmon.Device, opts Options) (*DesignResult, error) {
	return DesignDeviceCtx(context.Background(), dev, opts)
}

// DesignDeviceCtx is DesignDevice with cooperative cancellation,
// mirroring DesignCtx: pass a context with a deadline to bound the
// design time.
func DesignDeviceCtx(ctx context.Context, dev *xmon.Device, opts Options) (*DesignResult, error) {
	p, err := experiments.BuildPipelineOnDeviceCtx(ctx, dev, opts)
	if err != nil {
		return nil, fmt.Errorf("youtiao: %w", err)
	}
	return fromPipeline(p)
}

// ObsRegistry collects counters, gauges and latency histograms.
// Create one with NewObservability and set it as Options.Obs: the build
// carries it on its context, so its stage outcomes and the counters of
// the work its stages execute (worker pool, calibration faults, model
// fit, predictions) land in it and in no other. Registry.Snapshot() returns
// a stable-schema ObsSnapshot; Registry.Handler() serves it over HTTP
// (mount it at /debug/youtiao). A nil registry disables everything at
// zero cost.
type ObsRegistry = obs.Registry

// ObsSnapshot is a point-in-time export of an ObsRegistry: counters,
// gauges and histogram counts and quantiles, in a stable JSON schema.
// StripTimings() reduces it to the deterministic subset — two
// snapshots of identical designs at identical seeds strip to equal
// values regardless of Workers or machine speed.
type ObsSnapshot = obs.Snapshot

// NewObservability returns an empty metrics registry.
func NewObservability() *ObsRegistry { return obs.New() }

// Observe does nothing; it is kept for callers written against the
// process-global observers it used to install.
//
// Deprecated: every counter follows its build's Options.Obs.
func Observe(*ObsRegistry) {}

// StageReport is the per-stage instrumentation snapshot of a Designer:
// runs, cache hits/misses, worker budget and cumulative wall time per
// pipeline stage, plus cache totals. Render it with Text() or JSON().
type StageReport = stage.Report

// StageStats is one stage's row of a StageReport.
type StageStats = stage.Stats

// Designer characterizes a chip once and redesigns it many times: it
// keeps an artifact store of every pipeline stage (fabrication, fault
// plan, fitted crosstalk models, partition, groupings), keyed by the
// inputs the stage consumes, and Redesign re-executes only the stages
// whose keyed inputs changed. Sweeping Options.Theta, for example,
// re-runs the TDM grouping alone — zero re-measurements, zero re-fits —
// and each result is bit-identical to a cold Design at those options.
//
// Unlike the one-shot Design, a Designer never mutates the chip you
// hand it (fabrication happens on internal per-seed clones), so
// DesignResult.Chip points at the fabricated clone rather than the
// prototype.
type Designer struct {
	d *experiments.Designer
}

// NewDesigner returns an incremental designer over a chip prototype.
func NewDesigner(c *Chip) *Designer {
	return &Designer{d: experiments.NewDesigner(c)}
}

// NewDesignerForDevice returns an incremental designer over an
// externally fabricated device, the cached counterpart of DesignDevice.
func NewDesignerForDevice(dev *xmon.Device) *Designer {
	return &Designer{d: experiments.NewDesignerOnDevice(dev)}
}

// Redesign designs the system for opts, reusing every cached stage
// whose inputs are unchanged since earlier calls.
func (d *Designer) Redesign(opts Options) (*DesignResult, error) {
	return d.RedesignCtx(context.Background(), opts)
}

// RedesignCtx is Redesign with cooperative cancellation.
func (d *Designer) RedesignCtx(ctx context.Context, opts Options) (*DesignResult, error) {
	p, err := d.d.RedesignCtx(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("youtiao: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("youtiao: %w", err)
	}
	return fromPipeline(p)
}

// StageReport snapshots the designer's per-stage instrumentation since
// construction. Diff two snapshots with Sub to isolate one Redesign.
func (d *Designer) StageReport() StageReport {
	return d.d.Report()
}

// StageExecWrapper intercepts stage executions of a SharedCache (see
// stage.ExecWrapper). It exists for chaos testing: the serve harness
// wraps executions to inject slowness, failures and panics
// deterministically.
type StageExecWrapper = stage.ExecWrapper

// CacheConfig bounds a SharedCache.
type CacheConfig struct {
	// MaxBytes caps the cached stage artifacts' charge, each its
	// encoded length plus its key's; least-recently-used artifacts are
	// evicted past it. 0 disables the bound (the historical
	// grow-without-bound behavior).
	MaxBytes int64
	// Shards spreads the cache over independently locked shards (0
	// selects a default). Purely a concurrency knob — artifact values
	// are identical at any shard count.
	Shards int
	// Dir, when non-empty, adds a persistent warm tier under this
	// directory: every stage artifact is written through to disk, and
	// memory misses (including those of a freshly started process, or
	// of a replica sharing the directory) are served by decoding the
	// stored artifact instead of re-executing the stage. Artifacts are
	// keyed by the same deterministic stage keys as the memory tier,
	// so warm recalls are bit-identical to cold executions. Empty
	// keeps the cache memory-only.
	Dir string
	// DiskBytes caps the on-disk footprint of Dir;
	// least-recently-used artifact files are garbage collected past
	// it. 0 disables the bound. Ignored without Dir.
	DiskBytes int64
}

// CacheStats is a point-in-time occupancy summary of a SharedCache.
// The Disk* fields stay zero for a memory-only cache.
type CacheStats struct {
	// Entries counts cached artifacts (completed or in flight).
	Entries int `json:"entries"`
	// Bytes is the cached artifacts' charge: encoded lengths plus key
	// lengths.
	Bytes int64 `json:"bytes"`
	// MaxBytes is the configured budget (0 = unbounded).
	MaxBytes int64 `json:"maxBytes"`
	// Evictions counts artifacts forgotten under memory pressure.
	Evictions int64 `json:"evictions"`
	// DiskEntries counts artifacts stored in the warm disk tier.
	DiskEntries int `json:"diskEntries"`
	// DiskBytes is the on-disk footprint of the warm tier.
	DiskBytes int64 `json:"diskBytes"`
	// DiskHits counts stage invocations served by decoding a disk
	// artifact instead of executing the stage.
	DiskHits int64 `json:"diskHits"`
	// GCEvictions counts artifact files the disk budget collected.
	GCEvictions int64 `json:"gcEvictions"`
	// DecodeErrors counts disk artifacts that failed to decode; each
	// was dropped and treated as a miss.
	DecodeErrors int64 `json:"decodeErrors"`
}

// SharedCache shares one bounded artifact store across the Designers of
// many chips: the backbone of youtiao-serve, where concurrent requests
// for structurally identical chips coalesce onto single-flight stage
// executions and the artifact set stays within a fixed memory budget
// instead of growing without bound. Safe for concurrent use.
type SharedCache struct {
	dc *experiments.DesignCache
}

// NewSharedCache returns an empty cache under cfg's bounds. With
// CacheConfig.Dir set it panics if the directory cannot be opened —
// use OpenSharedCache to handle that error.
func NewSharedCache(cfg CacheConfig) *SharedCache {
	c, err := OpenSharedCache(cfg)
	if err != nil {
		panic(fmt.Sprintf("youtiao: NewSharedCache: %v", err))
	}
	return c
}

// OpenSharedCache returns an empty cache under cfg's bounds, with a
// persistent warm tier under CacheConfig.Dir when set: a restarted
// process (or a replica pointed at the same directory) recalls warm
// stage artifacts from disk instead of re-executing them, and the
// recalled designs are byte-identical to freshly computed ones. The
// only error source is opening the directory; a memory-only
// configuration never fails.
func OpenSharedCache(cfg CacheConfig) (*SharedCache, error) {
	memCfg := stage.Config{MaxBytes: cfg.MaxBytes, Shards: cfg.Shards}
	if cfg.Dir == "" {
		return &SharedCache{dc: experiments.NewDesignCacheWithStore(stage.NewStoreWith(memCfg))}, nil
	}
	dc, err := experiments.OpenDesignCache(cfg.Dir, memCfg, cfg.DiskBytes)
	if err != nil {
		return nil, fmt.Errorf("youtiao: open cache dir: %w", err)
	}
	return &SharedCache{dc: dc}, nil
}

// Designer returns the cache's Designer for a chip, creating it on
// first use. Chips are keyed structurally, so two calls with distinct
// but identical Chip values return the same Designer and share every
// artifact.
func (c *SharedCache) Designer(ch *Chip) *Designer {
	return &Designer{d: c.dc.Designer(ch)}
}

// StageReport snapshots the per-stage instrumentation of the shared
// store across every designer and request.
func (c *SharedCache) StageReport() StageReport { return c.dc.Report() }

// Observe registers the shared store's metric names in r (hit, miss,
// eviction and panic counters, occupancy gauges) and publishes its
// occupancy gauges now, so r's snapshot carries the full schema before
// any request runs. It keeps no reference to r: the store's events
// reach a registry only as the Options.Obs of the build that caused
// them, which also republishes the gauges when it ends. Pass the same
// registry as Options.Obs on every request to collect the whole cache
// in one place.
func (c *SharedCache) Observe(r *ObsRegistry) { c.dc.Store().Observe(r) }

// Stats reports the shared store's occupancy, both tiers.
func (c *SharedCache) Stats() CacheStats {
	s := c.dc.Store()
	bs := s.BackendStats()
	return CacheStats{
		Entries:      s.Len(),
		Bytes:        s.Bytes(),
		MaxBytes:     s.MaxBytes(),
		Evictions:    s.Evictions(),
		DiskEntries:  bs.Entries,
		DiskBytes:    bs.Bytes,
		DiskHits:     s.DiskHits(),
		GCEvictions:  bs.GCEvictions,
		DecodeErrors: s.DecodeErrors(),
	}
}

// WrapExec installs (nil removes) an execution interceptor on the
// shared store — the chaos-injection seam of the serve tests.
func (c *SharedCache) WrapExec(w StageExecWrapper) { c.dc.Store().Wrap(w) }

func fromPipeline(p *experiments.Pipeline) (*DesignResult, error) {
	res := &DesignResult{Chip: p.Chip, pipeline: p}
	res.CrosstalkWeights.WPhy = p.ModelXY.Weights.WPhy
	res.CrosstalkWeights.WTop = p.ModelXY.Weights.WTop
	res.CrosstalkCVError = p.ModelXY.CVError
	if p.Partition != nil {
		res.Regions = p.Partition.Regions
	}

	// Every line's qubits, frequencies and device names are blocks of
	// one backing array per kind, each capped at its length (an empty
	// line keeps nil lists), and the names are substrings of one string.
	nq, nd := 0, 0
	for _, group := range p.FDM.Groups {
		nq += len(group)
	}
	for _, g := range p.TDM.Groups {
		nd += len(g.Devices)
	}
	qubits, freqs := make([]int, 0, nq), make([]float64, 0, nq)
	res.FDMLines = make([]FDMLine, 0, len(p.FDM.Groups))
	for _, group := range p.FDM.Groups {
		var line FDMLine
		if lo := len(qubits); len(group) > 0 {
			qubits = append(qubits, group...)
			for _, q := range group {
				freqs = append(freqs, p.FreqPlan.Freq[q])
			}
			hi := len(qubits)
			line = FDMLine{Qubits: qubits[lo:hi:hi], FreqGHz: freqs[lo:hi:hi]}
		}
		res.FDMLines = append(res.FDMLines, line)
	}
	// Names are written into one builder grown to their total length up
	// front, so it never reallocates and each name's substring of it
	// stays put.
	var tmp [24]byte
	size := 0
	for _, g := range p.TDM.Groups {
		for _, d := range g.Devices {
			size += len(p.Gates.Dev.AppendName(tmp[:0], d))
		}
	}
	var all strings.Builder
	all.Grow(size)
	names := make([]string, 0, nd)
	for _, g := range p.TDM.Groups {
		for _, d := range g.Devices {
			from := all.Len()
			all.Write(p.Gates.Dev.AppendName(tmp[:0], d))
			names = append(names, all.String()[from:])
		}
	}
	res.TDMGroups = make([]TDMGroup, 0, len(p.TDM.Groups))
	for _, g := range p.TDM.Groups {
		tg := TDMGroup{Demux: g.Level.String(), ControlBits: g.Level.ControlBits()}
		if len(g.Devices) > 0 {
			tg.Devices, names = names[:len(g.Devices):len(g.Devices)], names[len(g.Devices):]
		}
		res.TDMGroups = append(res.TDMGroups, tg)
	}

	if p.Faults != nil {
		calib, err := p.CampaignStats()
		if err != nil {
			return nil, err
		}
		res.Faults = &FaultReport{
			DeadQubits:     p.Faults.DeadQubits(),
			BrokenCouplers: p.Faults.BrokenCouplers(),
			StuckLossy:     p.Faults.StuckLossyCount(),
			CalibDropouts:  calib.Dropouts,
			CalibRetried:   calib.Retried,
			CalibLostPairs: calib.LostPairs,
			CalibOutliers:  calib.Outliers,
		}
	}

	model := cost.DefaultModel()
	yPlan, err := wiring.Youtiao(p.Chip, p.FDM, p.TDM)
	if err != nil {
		return nil, fmt.Errorf("youtiao: %w", err)
	}
	res.Youtiao = toWiring(yPlan, model)
	res.Baseline = toWiring(wiring.Google(p.Chip), model)
	return res, nil
}

func toWiring(p *wiring.Plan, m cost.Model) Wiring {
	return Wiring{
		Architecture: p.Architecture,
		XYLines:      p.XYLines,
		ZLines:       p.ZLines,
		ReadoutLines: p.ReadoutLines,
		ControlLines: p.ControlLines,
		CoaxLines:    p.CoaxLines(),
		DACs:         p.DACs,
		Interfaces:   p.Interfaces,
		CostUSD:      m.WiringCost(p),
	}
}

// CoaxReduction returns the coax-cable reduction factor over the
// Google-style baseline.
func (r *DesignResult) CoaxReduction() float64 {
	if r.Youtiao.CoaxLines == 0 {
		return 0
	}
	return float64(r.Baseline.CoaxLines) / float64(r.Youtiao.CoaxLines)
}

// CostReduction returns the wiring-cost reduction factor over the
// baseline.
func (r *DesignResult) CostReduction() float64 {
	if r.Youtiao.CostUSD == 0 {
		return 0
	}
	return r.Baseline.CostUSD / r.Youtiao.CostUSD
}

// QubitFrequency returns the allocated operating frequency (GHz) of a
// qubit.
func (r *DesignResult) QubitFrequency(q int) (float64, bool) {
	f, ok := r.pipeline.FreqPlan.Freq[q]
	return f, ok
}

// PredictCrosstalk returns the fitted XY crosstalk prediction between
// two qubits.
func (r *DesignResult) PredictCrosstalk(i, j int) float64 {
	return r.pipeline.PredXY.Predict(i, j)
}

// Report renders a human-readable design summary.
func (r *DesignResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "YOUTIAO design for %s (%d qubits, %d couplers)\n",
		r.Chip.Name, r.Chip.NumQubits(), r.Chip.NumCouplers())
	fmt.Fprintf(&b, "crosstalk model: w_phy=%.2f w_top=%.2f (CV MSE %.3g)\n",
		r.CrosstalkWeights.WPhy, r.CrosstalkWeights.WTop, r.CrosstalkCVError)
	if r.Regions != nil {
		fmt.Fprintf(&b, "partition: %d regions\n", len(r.Regions))
	}
	if r.Faults != nil {
		fmt.Fprintf(&b, "faults: %d dead qubits, %d broken couplers, %d stuck-lossy Z lines\n",
			len(r.Faults.DeadQubits), len(r.Faults.BrokenCouplers), r.Faults.StuckLossy)
		fmt.Fprintf(&b, "calibration: %d dropouts, %d pairs retried, %d lost, %d outliers\n",
			r.Faults.CalibDropouts, r.Faults.CalibRetried, r.Faults.CalibLostPairs, r.Faults.CalibOutliers)
	}
	fmt.Fprintf(&b, "FDM: %d XY lines\n", len(r.FDMLines))
	for i, l := range r.FDMLines {
		fmt.Fprintf(&b, "  line %d:", i)
		for j, q := range l.Qubits {
			fmt.Fprintf(&b, " q%d@%.2fGHz", q, l.FreqGHz[j])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "TDM: %d Z lines\n", len(r.TDMGroups))
	for i, g := range r.TDMGroups {
		fmt.Fprintf(&b, "  group %d (%s): %s\n", i, g.Demux, strings.Join(g.Devices, " "))
	}
	fmt.Fprintf(&b, "wiring: coax %d -> %d (%.1fx), cost $%.0fK -> $%.0fK (%.1fx)\n",
		r.Baseline.CoaxLines, r.Youtiao.CoaxLines, r.CoaxReduction(),
		r.Baseline.CostUSD/1000, r.Youtiao.CostUSD/1000, r.CostReduction())
	return b.String()
}

// ScheduleBenchmark compiles and schedules one of the paper's five
// benchmark circuits ("VQC", "ISING", "DJ", "QFT", "QKNN") with the
// given logical width under this design's TDM grouping, returning the
// two-qubit gate depth and latency (ns).
func (r *DesignResult) ScheduleBenchmark(name string, qubits int) (depth int, latencyNs float64, err error) {
	sched, err := r.pipeline.ScheduleBenchmark(name, qubits)
	if err != nil {
		return 0, 0, fmt.Errorf("youtiao: %w", err)
	}
	return sched.TwoQubitDepth, sched.LatencyNs, nil
}

// DemuxMix returns the number of 1:2 and 1:4 DEMUX units of the design.
func (r *DesignResult) DemuxMix() (oneToTwo, oneToFour int) {
	counts := r.pipeline.TDM.LevelCounts()
	return counts[tdm.Demux1to2], counts[tdm.Demux1to4]
}

// DefaultGateDurations exposes the scheduler's pulse lengths.
func DefaultGateDurations() schedule.Durations { return schedule.DefaultDurations() }
