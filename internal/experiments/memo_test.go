package experiments

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/faults"
	"repro/internal/mlfit"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// buildKeys returns every node key of one build on d, by declaration
// index.
func buildKeys(t *testing.T, d *Designer, opts Options) []stage.Key {
	t.Helper()
	p, err := d.Redesign(opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]stage.Key, PipelineStageGraph.Len())
	for i := range keys {
		keys[i] = p.run.Key(i)
	}
	return keys
}

// freshKeys keys opts on a new Designer over d's chip or device and
// store: no remembered keys, and every artifact already held.
func freshKeys(t *testing.T, d *Designer, opts Options) []stage.Key {
	fresh := &Designer{chip: d.chip, chipFP: d.chipFP, dev: d.dev, devFP: d.devFP, store: d.store}
	return buildKeys(t, fresh, opts)
}

func sameKeys(t *testing.T, label string, got, want []stage.Key) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: node %d key %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestMemoKeysMatchFreshKeys: on one Designer, option sets that differ
// in exactly one keyed field each get the keys a fresh Designer
// computes, whatever the memo already holds, on chip and device
// Designers alike.
func TestMemoKeysMatchFreshKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	grid := Options{Fit: crosstalk.FitConfig{WeightGrid: []float64{0, 0.5, 1}, Folds: 3,
		Forest: mlfit.ForestConfig{NumTrees: 4, Tree: mlfit.TreeConfig{MaxDepth: 6, MinLeafSize: 4}, Seed: 1}}}
	sets := []struct {
		name string
		opts Options
	}{
		{"defaults", Options{}},
		{"theta +0", Options{HasTheta: true}},
		{"theta -0", Options{Theta: negZero, HasTheta: true}},
		{"theta 0 unset", Options{Theta: 0}},
		{"theta 2", Options{Theta: 2}},
		{"anneal 0", Options{AnnealSteps: 0}},
		{"anneal -1", Options{AnnealSteps: -1}},
		{"anneal 10", Options{AnnealSteps: 10}},
		{"fdm capacity 3", Options{FDMCapacity: 3}},
		{"faults on", Options{Faults: faults.UniformSpec(0.05)}},
		{"retry budget 1", Options{RetryBudget: 1}},
		{"max fit samples 200", Options{MaxFitSamples: 200}},
		{"max fit samples 0", Options{HasMaxFitSamples: true}},
		{"fit grid", grid},
		{"seed 2", Options{Seed: 2}},
	}
	dev := xmon.NewDevice(chip.Square(4, 4), xmon.DefaultParams(), rand.New(rand.NewSource(5)))
	for _, d := range []*Designer{NewDesigner(chip.Square(4, 4)), NewDesignerOnDevice(dev)} {
		got := map[string][]stage.Key{}
		// Twice over: a cold memo, then one that holds every set.
		for pass := range 2 {
			for _, s := range sets {
				keys := buildKeys(t, d, s.opts)
				sameKeys(t, s.name, keys, freshKeys(t, d, s.opts))
				if pass == 1 {
					sameKeys(t, s.name+" again", keys, got[s.name])
				}
				got[s.name] = keys
			}
		}
		if got["theta +0"][nTDM] == got["theta -0"][nTDM] {
			t.Error("Theta +0 and -0 share a tdm key")
		}
		if got["theta 0 unset"][nTDM] != got["defaults"][nTDM] {
			t.Error("an unset Theta 0 keys apart from the default")
		}
		if got["theta 0 unset"][nTDM] == got["theta +0"][nTDM] {
			t.Error("Theta 0 keys alike with and without HasTheta")
		}
		sameKeys(t, "anneal -1 against 0", got["anneal -1"], got["anneal 0"])
		if got["anneal 0"][nAnneal] != "" {
			t.Error("a skipped anneal has a key")
		}
	}
}

// TestMemoConcurrentRedesigns: 16 goroutines alternating three option
// sets on one Designer each get that set's keys.
func TestMemoConcurrentRedesigns(t *testing.T) {
	d := NewDesigner(chip.Square(4, 4))
	sets := []Options{{}, {Theta: 2}, {AnnealSteps: 5}}
	want := make([][]stage.Key, len(sets))
	for i, o := range sets {
		want[i] = freshKeys(t, d, o)
	}
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 12 {
				i := (g + r) % len(sets)
				p, err := d.Redesign(sets[i])
				if err != nil {
					t.Error(err)
					return
				}
				for n := range want[i] {
					if p.run.Key(n) != want[i][n] {
						t.Errorf("goroutine %d set %d: node %d key %q, want %q", g, i, n, p.run.Key(n), want[i][n])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoEvictsOldestOptionSet: a 17th option set evicts the first
// (stage's TestMemoReplacesOldest pins which entry goes), and asking
// for the first set again yields the same keys.
func TestMemoEvictsOldestOptionSet(t *testing.T) {
	d := NewDesigner(chip.Square(4, 4))
	first := buildKeys(t, d, Options{Theta: 1})
	for th := 2; th <= 17; th++ {
		buildKeys(t, d, Options{Theta: float64(th)})
	}
	sameKeys(t, "evicted set", buildKeys(t, d, Options{Theta: 1}), first)
	sameKeys(t, "evicted set", first, freshKeys(t, d, Options{Theta: 1}))
}

// TestDesignCacheFingerprintFromRecord: a cached Designer's chip
// fingerprint, hashed from the recorded components, is the digest
// chipFingerprint computes, and equal chips share the Designer.
func TestDesignCacheFingerprintFromRecord(t *testing.T) {
	dc := NewDesignCache()
	for _, c := range []*chip.Chip{chip.Square(4, 4), chip.Square(5, 5)} {
		d := dc.Designer(c)
		if d.chipFP != chipFingerprint(c) {
			t.Errorf("%s: fingerprint %s, want %s", c.Name, d.chipFP, chipFingerprint(c))
		}
		if dc.Designer(c.Clone()) != d {
			t.Errorf("%s: an equal chip got another Designer", c.Name)
		}
	}
	c := chip.Square(4, 4)
	if allocs := testing.AllocsPerRun(20, func() { dc.Designer(c) }); allocs != 0 && !raceEnabled {
		t.Errorf("a Designer lookup allocates %.0f times, want 0", allocs)
	}
}
