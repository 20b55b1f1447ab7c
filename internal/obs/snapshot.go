package obs

import "encoding/json"

// HistogramSnapshot is the point-in-time summary of one latency
// histogram. Count is deterministic (it counts events, not time); the
// *_ns fields are timing and are zeroed by StripTimings.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// Snapshot is a stable-JSON view of a registry at one instant. Map keys
// marshal sorted (encoding/json), so two snapshots of identical
// registries render byte-identical JSON.
//
// The determinism contract splits the fields in two: Counters and
// histogram Counts are pure functions of the work performed; Gauges
// and every *_ns field measure the execution itself.
// StripTimings keeps exactly the first group.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. A nil registry
// snapshots to the zero Snapshot (with a non-nil, empty counter map so
// the JSON schema is stable either way).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// StripTimings returns a copy of the snapshot with every
// non-deterministic field removed: gauges are dropped, histogram *_ns
// fields are zeroed, counters and counts are kept. Two runs
// at identical options and seed produce equal stripped snapshots for
// any worker count — the property the manifest diff and the
// determinism tests assert.
func (s Snapshot) StripTimings() Snapshot {
	out := Snapshot{Counters: make(map[string]int64, len(s.Counters))}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for name, h := range s.Histograms {
			out.Histograms[name] = HistogramSnapshot{Count: h.Count}
		}
	}
	return out
}

// Histogram returns the named histogram's summary from the snapshot,
// reporting whether it was present — the lookup helper for reports that
// want one latency row without iterating the map.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	h, ok := s.Histograms[name]
	return h, ok
}

// JSON renders the snapshot as indented, key-sorted JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
