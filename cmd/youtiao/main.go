// Command youtiao designs a hybrid-multiplexed control wiring system
// for a chosen chip topology and prints the resulting plan.
//
// Usage:
//
//	youtiao [-topology square] [-qubits 36] [-seed 1] [-theta 4] [-fdm 5] [-workers 0] [-verbose]
//	youtiao -defect-rate 0.02 -retry-budget 3 -timeout 30s
//	youtiao -sweep-defects 0,0.01,0.02,0.05
//	youtiao -cache-dir .youtiao-cache   # warm restarts: re-runs recall stages from disk
//	youtiao -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/stage"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("youtiao: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole CLI behind a testable seam: flag parsing, the design
// (or sweep) and rendering, with every failure returned instead of
// exiting — main turns a non-nil error into a non-zero exit, and the
// regression tests assert on the error chain (a -timeout expiry, for
// example, must surface a wrapped context.DeadlineExceeded).
func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("youtiao", flag.ContinueOnError)
	topology := fs.String("topology", "square", "chip topology: square, hexagon, heavy-square, heavy-hexagon, low-density")
	qubits := fs.Int("qubits", 36, "approximate qubit count")
	seed := fs.Int64("seed", 1, "device fabrication / design seed")
	theta := fs.Float64("theta", 4, "TDM parallelism threshold")
	fdmCap := fs.Int("fdm", 5, "FDM line capacity (qubits per XY line)")
	workers := fs.Int("workers", 0, "worker goroutines for the parallel pipeline stages (0 = all CPUs, 1 = sequential; the design is identical either way)")
	verbose := fs.Bool("verbose", false, "print the full line-by-line plan")
	asJSON := fs.Bool("json", false, "emit the design as JSON")
	defectRate := fs.Float64("defect-rate", 0, "uniform fault-injection rate over every defect class (0 disables; try 0.02)")
	retryBudget := fs.Int("retry-budget", 0, "calibration re-measurement attempts after a dropout (0 = default 3, negative = none)")
	timeout := fs.Duration("timeout", 0, "abort the design after this long (0 = no limit)")
	sweep := fs.String("sweep-defects", "", "comma-separated defect rates: run the degradation sweep instead of a single design")
	stageTimings := fs.Bool("stage-timings", false, "print the per-stage instrumentation report (runs, cache hits/misses, wall time); with -json, embedded as \"stageReport\"")
	manifestPath := fs.String("manifest", "", "write a run manifest (options digest, seed, git revision, env, stage report, metrics snapshot) as JSON to this file")
	cacheDir := fs.String("cache-dir", "", "persistent artifact cache directory: stages warm from prior runs are recalled from disk instead of re-executed (empty = memory only)")
	cacheDiskMB := fs.Int64("cache-disk-mb", 0, "disk cache budget in MiB (0 = unbounded); needs -cache-dir")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Named return: the profile is written after the run body, and a
		// write failure must still fail the command.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				if retErr == nil {
					retErr = fmt.Errorf("-memprofile: %w", err)
				}
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil && retErr == nil {
				retErr = fmt.Errorf("-memprofile: %w", err)
			}
		}()
	}

	ch, err := youtiao.NewChip(*topology, *qubits)
	if err != nil {
		return err
	}
	opts := youtiao.Options{
		Seed:        *seed,
		Theta:       *theta,
		FDMCapacity: *fdmCap,
		Workers:     *workers,
		Faults:      youtiao.UniformFaults(*defectRate),
		RetryBudget: *retryBudget,
	}
	// Distinguish an explicit `-theta 0` from the default.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "theta" {
			opts.HasTheta = true
		}
	})

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *sweep != "" {
		if *manifestPath != "" {
			return fmt.Errorf("-manifest records a single design; it cannot be combined with -sweep-defects")
		}
		if err := runSweep(ctx, stdout, ch, *sweep, opts, *cacheDir, *cacheDiskMB<<20); err != nil {
			return err
		}
		return retErr
	}

	// The manifest needs the full observability capture: the build's
	// registry on Options.Obs collects its stage and package counters.
	var reg *youtiao.ObsRegistry
	if *manifestPath != "" {
		reg = youtiao.NewObservability()
		opts.Obs = reg
	}

	// A Designer (rather than one-shot DesignCtx) carries the per-stage
	// instrumentation the -stage-timings report renders; a single design
	// through it is bit-identical to DesignCtx. With -cache-dir it runs
	// over a persistent cache, so a repeated invocation recalls every
	// stage from the warm disk tier instead of re-executing it.
	var designer *youtiao.Designer
	var mcache *youtiao.ManifestCache
	if *cacheDir != "" {
		sc, err := youtiao.OpenSharedCache(youtiao.CacheConfig{Dir: *cacheDir, DiskBytes: *cacheDiskMB << 20})
		if err != nil {
			return fmt.Errorf("-cache-dir: %w", err)
		}
		designer = sc.Designer(ch)
		mcache = &youtiao.ManifestCache{Dir: *cacheDir, DiskBytes: *cacheDiskMB << 20}
	} else {
		designer = youtiao.NewDesigner(ch)
	}
	design, err := designer.RedesignCtx(ctx, opts)
	if err != nil {
		return err
	}

	if *manifestPath != "" {
		if err := writeManifest(*manifestPath, design, opts, reg, designer.StageReport(), mcache); err != nil {
			return fmt.Errorf("-manifest: %w", err)
		}
	}

	if *asJSON {
		data, err := design.ExportJSON()
		if err != nil {
			return err
		}
		if *stageTimings {
			report, err := designer.StageReport().JSON()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "{\n  \"design\": %s,\n  \"stageReport\": %s\n}\n",
				indentBlock(string(data)), indentBlock(string(report)))
			return retErr
		}
		fmt.Fprintln(stdout, string(data))
		return retErr
	}
	if *verbose {
		fmt.Fprint(stdout, design.Report())
		if *stageTimings {
			fmt.Fprint(stdout, designer.StageReport().Text())
		}
		return retErr
	}
	fmt.Fprintf(stdout, "chip: %s (%d qubits, %d couplers)\n", ch.Name, ch.NumQubits(), ch.NumCouplers())
	if f := design.Faults; f != nil {
		fmt.Fprintf(stdout, "faults: %d dead qubits, %d broken couplers, %d stuck-lossy (calibration: %d retried, %d lost)\n",
			len(f.DeadQubits), len(f.BrokenCouplers), f.StuckLossy, f.CalibRetried, f.CalibLostPairs)
	}
	fmt.Fprintf(stdout, "crosstalk model: w_phy=%.2f w_top=%.2f\n",
		design.CrosstalkWeights.WPhy, design.CrosstalkWeights.WTop)
	fmt.Fprintf(stdout, "XY lines: %d -> %d   Z lines: %d -> %d\n",
		design.Baseline.XYLines, design.Youtiao.XYLines,
		design.Baseline.ZLines, design.Youtiao.ZLines)
	d2, d4 := design.DemuxMix()
	fmt.Fprintf(stdout, "DEMUX mix: %d x 1:2, %d x 1:4 (+%d twisted-pair controls)\n",
		d2, d4, design.Youtiao.ControlLines)
	fmt.Fprintf(stdout, "coax: %d -> %d (%.1fx)\n",
		design.Baseline.CoaxLines, design.Youtiao.CoaxLines, design.CoaxReduction())
	fmt.Fprintf(stdout, "wiring cost: $%.0fK -> $%.0fK (%.1fx)\n",
		design.Baseline.CostUSD/1000, design.Youtiao.CostUSD/1000, design.CostReduction())
	if *stageTimings {
		fmt.Fprint(stdout, designer.StageReport().Text())
	}
	return retErr
}

// indentBlock re-indents an already-rendered JSON block by two spaces
// so it nests under the combined -json -stage-timings envelope.
func indentBlock(s string) string {
	return strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}

// writeManifest assembles and writes the run manifest, creating the
// target directory if needed.
func writeManifest(path string, design *youtiao.DesignResult, opts youtiao.Options, reg *youtiao.ObsRegistry, report youtiao.StageReport, cache *youtiao.ManifestCache) error {
	m := youtiao.NewManifest(design, opts)
	m.CreatedAt = time.Now().UTC().Format(time.RFC3339Nano)
	m.Git = gitDescribe()
	m.Cache = cache
	m.Stages = &report
	snap := reg.Snapshot()
	m.Obs = &snap
	data, err := m.JSON()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitDescribe best-effort identifies the producing tree; an empty
// string (no git, not a repository) just omits the field.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// runSweep parses the rate list and prints the degradation table. A
// non-empty cacheDir runs the sweep through a persistent design cache,
// so a repeated sweep recalls every point from the warm disk tier.
func runSweep(ctx context.Context, stdout io.Writer, ch *youtiao.Chip, list string, opts youtiao.Options, cacheDir string, cacheDiskBytes int64) error {
	var rates []float64
	for _, part := range strings.Split(list, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad -sweep-defects entry %q: %w", part, err)
		}
		rates = append(rates, r)
	}
	start := time.Now()
	var points []experiments.DefectPoint
	var err error
	if cacheDir != "" {
		dc, openErr := experiments.OpenDesignCache(cacheDir, stage.Config{}, cacheDiskBytes)
		if openErr != nil {
			return fmt.Errorf("-cache-dir: %w", openErr)
		}
		points, err = experiments.DefectSweepWith(ctx, dc.Designer(ch), rates, opts)
	} else {
		points, err = experiments.DefectSweep(ctx, ch, rates, opts)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "defect sweep on %s (%d qubits), %d rates, %s\n",
		ch.Name, ch.NumQubits(), len(points), time.Since(start).Round(time.Millisecond))
	fmt.Fprintln(stdout, "rate    alive  dead  brokenC  stuck  lost  XY  Z   coax  cost($K)  fidelity  cache(h/m)")
	for _, pt := range points {
		fmt.Fprintf(stdout, "%-7.3f %-6d %-5d %-8d %-6d %-5d %-3d %-3d %-5d %-9.1f %-9.6f %d/%d\n",
			pt.Rate, pt.AliveQubits, pt.DeadQubits, pt.BrokenCouplers, pt.StuckLossy,
			pt.Calib.LostPairs, pt.XYLines, pt.ZLines, pt.CoaxLines, pt.WiringCost/1000, pt.GateFidelity,
			pt.CacheHits, pt.CacheMisses)
	}
	return nil
}
