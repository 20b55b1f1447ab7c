package youtiao

import (
	"bytes"
	"encoding/json"
	"testing"
)

// buildManifest runs one fully-observed design and assembles its
// manifest the way cmd/youtiao does, with a caller-chosen timestamp
// and worker count. The build carries its registry on Options.Obs
// alone, which collects the package counters too.
func buildManifest(t *testing.T, createdAt string, workers int) *Manifest {
	t.Helper()
	reg := NewObservability()
	opts := Options{Seed: 5, Workers: workers, Obs: reg}
	d := NewDesigner(NewSquareChip(4, 4))
	res, err := d.Redesign(opts)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(res, opts)
	m.CreatedAt = createdAt
	report := d.StageReport()
	m.Stages = &report
	snap := reg.Snapshot()
	m.Obs = &snap
	return m
}

// Two runs at identical options and seed must produce manifests that
// differ only in timing fields: their StripTimings forms render to
// byte-identical JSON even across worker counts and timestamps.
func TestManifestStripTimingsReproducible(t *testing.T) {
	a := buildManifest(t, "2026-01-01T00:00:01Z", 1)
	b := buildManifest(t, "2026-01-01T00:00:02Z", 1)
	aj, err := a.StripTimings().JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.StripTimings().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("stripped manifests differ across identical runs:\n%s\n----\n%s", aj, bj)
	}

	// Workers is an env field, so stripping does not erase it — but
	// everything the design produced must still match.
	c := buildManifest(t, "2026-01-01T00:00:03Z", 4)
	if c.OptionsDigest != a.OptionsDigest {
		t.Errorf("worker count moved the options digest: %s vs %s", a.OptionsDigest, c.OptionsDigest)
	}
	cs := c.StripTimings()
	as := a.StripTimings()
	csObs, _ := json.Marshal(cs.Obs)
	asObs, _ := json.Marshal(as.Obs)
	if !bytes.Equal(csObs, asObs) {
		t.Errorf("stripped obs snapshot differs across worker counts:\n%s\n----\n%s", asObs, csObs)
	}
	for _, name := range []string{"crosstalk/fits", "faults/pairs", "parallel/tasks"} {
		if as.Obs.Counters[name] == 0 {
			t.Errorf("manifest counter %s = 0 after a cold design", name)
		}
	}
}

// StripTimings must return a cleaned copy and leave the original
// manifest (the one written to disk) fully timed.
func TestManifestStripTimingsCopies(t *testing.T) {
	m := buildManifest(t, "2026-01-01T00:00:01Z", 1)
	if m.Stages.Wall == 0 {
		t.Fatal("full manifest lost its stage wall time")
	}
	s := m.StripTimings()
	if s.CreatedAt != "" || s.Stages.Wall != 0 {
		t.Error("StripTimings kept timing fields")
	}
	for _, st := range s.Stages.Stages {
		if st.Wall != 0 {
			t.Errorf("stage %s kept wall time after strip", st.Name)
		}
	}
	if m.CreatedAt == "" || m.Stages.Wall == 0 {
		t.Error("StripTimings mutated the original manifest")
	}
	if m.Obs.Gauges == nil && len(m.Obs.Counters) == 0 {
		t.Error("original obs snapshot lost its content")
	}
}
