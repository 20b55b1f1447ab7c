package youtiao

import (
	"encoding/json"
	"runtime"
)

// ManifestSchema versions the manifest JSON layout; bump it on any
// field change so downstream tooling can reject shapes it does not
// understand. Version 2 dropped the observability snapshot's "spans"
// section: a build's wall time is the "build/design" histogram, and
// each stage execution is timed once, into "stage/<name>".
const ManifestSchema = 2

// ManifestEnv records the bench-relevant execution environment of a
// run: identical designs measured under different toolchains or CPU
// budgets are not comparable as benchmarks, and the manifest is where
// that difference is visible.
type ManifestEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workers is the pipeline worker budget the run requested (0 =
	// NumCPU). Recorded for bench comparability only — the designed
	// system is invariant in it.
	Workers int `json:"workers"`
}

// ManifestChip identifies the designed chip.
type ManifestChip struct {
	Name     string `json:"name"`
	Topology string `json:"topology"`
	Qubits   int    `json:"qubits"`
	Couplers int    `json:"couplers"`
}

// ManifestCache records how a run's artifact cache was persisted.
type ManifestCache struct {
	// Dir is the warm-tier cache directory.
	Dir string `json:"dir"`
	// MemBytes is the memory-tier budget (0 = unbounded).
	MemBytes int64 `json:"mem_bytes"`
	// DiskBytes is the disk-tier budget (0 = unbounded).
	DiskBytes int64 `json:"disk_bytes"`
}

// Manifest is the reproducibility record of one design run: what was
// designed (options digest, seed, chip), where (environment, git
// revision), and how it went (stage report, observability snapshot).
// Two runs at identical options and seed produce manifests whose
// StripTimings() forms are byte-identical on the same machine; the
// full forms differ only in CreatedAt, wall times and histogram
// quantiles.
type Manifest struct {
	Schema int `json:"schema"`
	// CreatedAt is an RFC 3339 timestamp, set by the caller (timing —
	// stripped by StripTimings).
	CreatedAt string `json:"created_at,omitempty"`
	// Git is the producing tree's `git describe --always --dirty`
	// output when available.
	Git string `json:"git,omitempty"`
	// OptionsDigest is Options.Digest(): a stable hash of every
	// design-relevant option after normalization, excluding Workers
	// and Obs.
	OptionsDigest string       `json:"options_digest"`
	Seed          int64        `json:"seed"`
	Chip          ManifestChip `json:"chip"`
	Env           ManifestEnv  `json:"env"`
	// Cache records the artifact-cache persistence configuration of
	// the run (nil for a memory-only designer). It is environmental —
	// a warm cache changes where artifacts come from, never what they
	// are — so StripTimings removes it along with the other
	// machine-local fields, keeping disk-warm and in-memory runs
	// byte-comparable.
	Cache *ManifestCache `json:"cache,omitempty"`
	// Stages is the designer's per-stage cache report (runs, hits,
	// misses and wall time per stage).
	Stages *StageReport `json:"stages,omitempty"`
	// Obs is the run's observability snapshot when a registry was
	// attached.
	Obs *ObsSnapshot `json:"obs,omitempty"`
}

// NewManifest assembles the manifest of a finished design. CreatedAt,
// Git, Stages and Obs start empty; fill them from the caller's clock,
// VCS and registry.
func NewManifest(res *DesignResult, opts Options) *Manifest {
	return &Manifest{
		Schema:        ManifestSchema,
		OptionsDigest: opts.Digest(),
		Seed:          opts.Seed,
		Chip: ManifestChip{
			Name:     res.Chip.Name,
			Topology: res.Chip.Topology,
			Qubits:   res.Chip.NumQubits(),
			Couplers: res.Chip.NumCouplers(),
		},
		Env: ManifestEnv{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workers:    opts.Workers,
		},
	}
}

// JSON renders the manifest as stable, indented JSON.
func (m *Manifest) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// StripTimings returns a copy with every timing and cache-provenance
// field removed: CreatedAt and Cache cleared, stage wall times,
// worker budgets and per-tier miss/disk-hit counters zeroed, and the
// observability snapshot reduced to its deterministic subset. What
// remains is a pure function of (chip, options, seed) on a fixed
// toolchain: a cold in-memory run and a cold process over a warm disk
// cache strip to byte-identical JSON — the reproducibility check
// `cmd/youtiao -manifest` enables. Runs and Hits survive stripping
// (they count invocations and memory-tier recalls, identical however
// the artifacts were obtained); Misses and DiskHits only say which
// tier supplied an artifact, so they are environmental.
func (m *Manifest) StripTimings() *Manifest {
	out := *m
	out.CreatedAt = ""
	out.Cache = nil
	if m.Stages != nil {
		st := *m.Stages
		st.Wall = 0
		st.Misses = 0
		st.DiskHits = 0
		st.Stages = append([]StageStats(nil), m.Stages.Stages...)
		for i := range st.Stages {
			st.Stages[i].Wall = 0
			st.Stages[i].Misses = 0
			st.Stages[i].DiskHits = 0
			st.Stages[i].Workers = 0
		}
		out.Stages = &st
	}
	if m.Obs != nil {
		stripped := m.Obs.StripTimings()
		out.Obs = &stripped
	}
	return &out
}
