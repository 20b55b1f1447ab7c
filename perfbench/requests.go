package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	youtiao "repro"
	"repro/internal/serve"
	"repro/internal/sim"
)

// request is one design request of a workload, fully materialized from
// the seed. Every target (library or HTTP) receives exactly these
// fields and nothing else.
type request struct {
	Client      string   `json:"client,omitempty"`
	DueNs       int64    `json:"dueNs,omitempty"`
	Topology    string   `json:"topology"`
	Qubits      int      `json:"qubits"`
	Seed        int64    `json:"seed"`
	Theta       *float64 `json:"theta,omitempty"`
	FDMCapacity int      `json:"fdmCapacity,omitempty"`
	AnnealSteps int      `json:"annealSteps,omitempty"`
	DefectRate  float64  `json:"defectRate,omitempty"`
}

// key identifies the design a request asks for: two requests with equal
// keys must receive byte-identical designs.
func (r request) key() string {
	theta := "-"
	if r.Theta != nil {
		theta = strconv.FormatFloat(*r.Theta, 'g', -1, 64)
	}
	return fmt.Sprintf("%s/%d/s%d/t%s/f%d/a%d/d%s", r.Topology, r.Qubits, r.Seed, theta,
		r.FDMCapacity, r.AnnealSteps, strconv.FormatFloat(r.DefectRate, 'g', -1, 64))
}

// fdmCapacity is the per-line qubit limit the design must respect (the
// pipeline's documented default when the request leaves it unset).
func (r request) fdmCapacity() int {
	if r.FDMCapacity > 0 {
		return r.FDMCapacity
	}
	return 5
}

// options maps the request onto library options the way the HTTP
// server maps its body, so both targets design the same system.
func (r request) options(workers int, reg *youtiao.ObsRegistry) youtiao.Options {
	opts := youtiao.Options{
		Seed:        r.Seed,
		FDMCapacity: r.FDMCapacity,
		AnnealSteps: r.AnnealSteps,
		Workers:     workers,
		Obs:         reg,
	}
	if r.Theta != nil {
		opts.Theta, opts.HasTheta = *r.Theta, true
	}
	if r.DefectRate > 0 {
		opts.Faults = youtiao.UniformFaults(r.DefectRate)
	}
	return opts
}

// body is the request's /v1/design payload.
func (r request) body() serve.DesignRequest {
	return serve.DesignRequest{
		Topology:    r.Topology,
		Qubits:      r.Qubits,
		Seed:        r.Seed,
		Theta:       r.Theta,
		FDMCapacity: r.FDMCapacity,
		AnnealSteps: r.AnnealSteps,
		DefectRate:  r.DefectRate,
	}
}

// listDigest is the SHA-256 of the request list's JSON: the identity of
// a workload's inputs.
func listDigest(reqs []request) string {
	data, err := json.Marshal(reqs)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

type shape struct {
	topology string
	qubits   int
}

// coldCatalog is one round of cold-design: every topology, chip sizes
// from 9 to 49 qubits (heavy topologies add bridge qubits, so their
// requested size is smaller than their qubit count). The eleven shapes'
// design times fall into classes, and the ranks of p50 (the sixth
// class), p90 (the two ~0.45 s classes) and p99 (square 49) land inside
// a class rather than on the edge between two, which keeps those
// percentiles steady from seed to seed.
var coldCatalog = []shape{
	{"low-density", 9}, {"square", 9}, {"hexagon", 16}, // 10, 9, 16 qubits
	{"heavy-hexagon", 9}, {"heavy-square", 9}, // 18, 21 qubits
	{"square", 25}, {"hexagon", 25}, {"low-density", 25}, // 25, 25, 26 qubits
	{"hexagon", 36}, {"heavy-hexagon", 25}, // 36, 34 qubits
	{"square", 49},
}

// coldRoundSeconds is the approximate wall time of one catalog round at
// Workers 2 on a 2-CPU x86-64 host; it sizes the request list to
// --seconds.
const coldRoundSeconds = 2.0

// coldRequests draws the cold-design request list: rounds of the
// catalog in a seeded order, each request with a fresh design seed, so
// no two requests share a single stage artifact.
func coldRequests(seed int64, seconds int) []request {
	rng := rand.New(rand.NewSource(seed))
	rounds := int(float64(seconds)/coldRoundSeconds + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	used := make(map[int64]bool)
	var out []request
	for i := 0; i < rounds; i++ {
		for _, j := range rng.Perm(len(coldCatalog)) {
			s := coldCatalog[j]
			ds := rng.Int63n(1<<31) + 1
			for used[ds] {
				ds = rng.Int63n(1<<31) + 1
			}
			used[ds] = true
			out = append(out, request{Topology: s.topology, Qubits: s.qubits, Seed: ds})
		}
	}
	return out
}

// churnRatePerSec is the offered rate of tenant-churn, summed over its
// tenants.
const churnRatePerSec = 50.0

// churnSpec is the tenant-churn traffic: four drifting chips, three
// Poisson tenants and one bursty Gamma tenant whose mixes vary Theta,
// AnnealSteps, FDMCapacity and two design seeds per chip.
func churnSpec(seconds int) sim.Spec {
	drift := sim.DriftSpec{RatePerSec: 0.05, MinRate: 0.005, MaxRate: 0.03}
	t3, t5 := 3.0, 5.0
	return sim.Spec{
		Name:        "tenant-churn",
		DurationSec: float64(seconds),
		Chips: []sim.ChipSpec{
			{Name: "fab-a", Topology: "square", Qubits: 16, Seed: 11, DefectRate: 0.01, Drift: drift},
			{Name: "fab-b", Topology: "hexagon", Qubits: 16, Seed: 21, DefectRate: 0.01, Drift: drift},
			{Name: "fab-c", Topology: "heavy-hexagon", Qubits: 16, Seed: 31, DefectRate: 0.01, Drift: drift}, // 18 qubits
			{Name: "fab-d", Topology: "low-density", Qubits: 16, Seed: 41, DefectRate: 0.01, Drift: drift},
		},
		Clients: []sim.ClientSpec{
			{
				ID:      "tenant-a",
				Arrival: sim.ArrivalSpec{Process: sim.ArrivalPoisson, RatePerSec: 0.3 * churnRatePerSec},
				Mix: []sim.MixEntry{
					{Weight: 6, Chip: "fab-a", Seeds: 2},
					{Weight: 1, Chip: "fab-a", Seeds: 2, Theta: &t3},
					{Weight: 4, Chip: "fab-b", Seeds: 2},
					{Weight: 1, Chip: "fab-b", Seeds: 2, AnnealSteps: 50},
				},
			},
			{
				ID:      "tenant-b",
				Arrival: sim.ArrivalSpec{Process: sim.ArrivalPoisson, RatePerSec: 0.3 * churnRatePerSec},
				Mix: []sim.MixEntry{
					{Weight: 5, Chip: "fab-c", Seeds: 2},
					{Weight: 1, Chip: "fab-c", Seeds: 2, FDMCapacity: 4},
					{Weight: 5, Chip: "fab-d", Seeds: 2},
					{Weight: 1, Chip: "fab-d", Seeds: 2, Theta: &t5},
				},
			},
			{
				ID:      "tenant-c",
				Arrival: sim.ArrivalSpec{Process: sim.ArrivalPoisson, RatePerSec: 0.2 * churnRatePerSec},
				Mix: []sim.MixEntry{
					{Weight: 1, Chip: "fab-a", Seeds: 2},
					{Weight: 1, Chip: "fab-b", Seeds: 2},
					{Weight: 1, Chip: "fab-c", Seeds: 2},
					{Weight: 1, Chip: "fab-d", Seeds: 2},
				},
			},
			{
				ID:      "tenant-burst",
				Arrival: sim.ArrivalSpec{Process: sim.ArrivalGamma, RatePerSec: 0.2 * churnRatePerSec, Shape: 0.5},
				Mix: []sim.MixEntry{
					{Weight: 2, Chip: "fab-a", Seeds: 2},
					{Weight: 1, Chip: "fab-b", Seeds: 2, Theta: &t3},
					{Weight: 1, Chip: "fab-c", Seeds: 2, AnnealSteps: 50},
					{Weight: 1, Chip: "fab-d", Seeds: 2, FDMCapacity: 4},
				},
			},
		},
	}
}

// churnDriftsPerChip is how many defect-drift events every chip has in
// a tenant-churn run, and churnDriftGap the least virtual time between
// any two of them. One drift per chip keeps the requests that wait
// behind re-characterization near 5%: p99 falls among them and p90
// among memory hits, not on the boundary between the two, where it
// would swing from seed to seed.
const (
	churnDriftsPerChip = 1
	churnDriftGap      = time.Second
)

// churnRequests expands the tenant-churn spec under seed. The trace is
// conditioned so runs at different seeds carry the same amount of work:
// it holds exactly churnRatePerSec*seconds requests, its virtual time
// axis is scaled so the last one is due at --seconds, and every chip
// drifts exactly churnDriftsPerChip times before it, no two drifts
// closer than churnDriftGap. The seed selects the first of a
// deterministic sequence of sim.Generate seeds whose trace meets these
// conditions; drift streams do not depend on the clients, so each
// candidate is screened on a client-light copy of the spec first. It
// returns the timed request list, the set-up requests (one
// default-option request per chip and design seed at the chip's initial
// defect rate), the time spent in sim.Generate and the number of
// candidate seeds drawn.
func churnRequests(seed int64, seconds int) (timed, base []request, gen time.Duration, draws int, err error) {
	spec := churnSpec(seconds)
	spec.DurationSec *= 1.2 // room for the request count to reach n
	screen := spec
	screen.Clients = []sim.ClientSpec{{
		ID:      "screen",
		Arrival: sim.ArrivalSpec{Process: sim.ArrivalPoisson, RatePerSec: 1e-6},
		Mix:     []sim.MixEntry{{Weight: 1, Chip: spec.Chips[0].Name}},
	}}
	n := int(churnRatePerSec * float64(seconds))
	start := time.Now()
	defer func() { gen = time.Since(start) }()
	for draws = 1; draws <= 1_000_000; draws++ {
		simSeed := seed*1_000_003 + int64(draws)
		tr, err := sim.Generate(screen, simSeed)
		if err != nil {
			return nil, nil, 0, draws, fmt.Errorf("generate tenant-churn trace: %w", err)
		}
		if !driftsOK(tr, spec, int64(seconds)*int64(time.Second)) {
			continue
		}
		if tr, err = sim.Generate(spec, simSeed); err != nil {
			return nil, nil, 0, draws, fmt.Errorf("generate tenant-churn trace: %w", err)
		}
		timed = timed[:0]
		for _, ev := range tr.Events {
			if len(timed) == n {
				break
			}
			if ev.Kind != sim.KindRequest {
				continue
			}
			timed = append(timed, request{
				Client: ev.Client, DueNs: ev.AtNs,
				Topology: ev.Topology, Qubits: ev.Qubits, Seed: ev.Seed,
				Theta: ev.Theta, FDMCapacity: ev.FDMCapacity, AnnealSteps: ev.AnnealSteps,
				DefectRate: ev.DefectRate,
			})
		}
		if len(timed) < n || !driftsOK(tr, spec, timed[n-1].DueNs) {
			continue
		}
		scale := float64(seconds) * 1e9 / float64(timed[n-1].DueNs)
		for i := range timed {
			timed[i].DueNs = int64(float64(timed[i].DueNs) * scale)
		}
		for _, c := range spec.Chips {
			for s := int64(0); s < 2; s++ {
				base = append(base, request{Topology: c.Topology, Qubits: c.Qubits, Seed: c.Seed + s, DefectRate: c.DefectRate})
			}
		}
		return timed, base, 0, draws, nil
	}
	return nil, nil, 0, draws, fmt.Errorf("tenant-churn: no conforming trace in %d draws", draws-1)
}

// driftsOK reports whether the trace's drift events up to untilNs meet
// the tenant-churn conditions: churnDriftsPerChip per chip, pairwise at
// least churnDriftGap apart.
func driftsOK(tr *sim.Trace, spec sim.Spec, untilNs int64) bool {
	per := map[string]int{}
	last := int64(-1 << 62)
	for _, ev := range tr.Events {
		if ev.Kind != sim.KindDefect || ev.AtNs > untilNs {
			continue
		}
		if ev.AtNs-last < int64(churnDriftGap) {
			return false
		}
		last = ev.AtNs
		per[ev.Chip]++
	}
	for _, c := range spec.Chips {
		if per[c.Name] != churnDriftsPerChip {
			return false
		}
	}
	return true
}

// warmCatalog holds the chip shapes of the warm-restart fleet (16 to 36
// qubits).
var warmCatalog = []shape{
	{"square", 16}, {"square", 25}, {"hexagon", 16}, {"hexagon", 25},
	{"heavy-square", 9}, {"heavy-hexagon", 9}, {"low-density", 16}, {"low-density", 25},
}

// warmRequestsPerSecond sizes the warm-restart stream to --seconds: the
// approximate rate two library clients sustain over the warm tier on a
// 2-CPU x86-64 host.
const warmRequestsPerSecond = 2500

// warmRequests draws the warm-restart fleet (each catalog chip at a
// seeded design seed, in three option variants that share its
// characterization) and the timed stream: seeded shuffles of the whole
// fleet, so every design is read equally often.
func warmRequests(seed int64, seconds int) (fleet, stream []request) {
	rng := rand.New(rand.NewSource(seed))
	theta := 3.0
	for _, s := range warmCatalog {
		ds := rng.Int63n(1<<31) + 1
		base := request{Topology: s.topology, Qubits: s.qubits, Seed: ds}
		thetaV := base
		thetaV.Theta = &theta
		annealV := base
		annealV.AnnealSteps = 30
		fleet = append(fleet, base, thetaV, annealV)
	}
	n := seconds * warmRequestsPerSecond
	if n < len(fleet) {
		n = len(fleet)
	}
	for len(stream) < n {
		for _, j := range rng.Perm(len(fleet)) {
			stream = append(stream, fleet[j])
		}
	}
	return fleet, stream[:n]
}
