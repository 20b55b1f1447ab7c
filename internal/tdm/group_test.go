package tdm

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/chip"
)

// decayXT is a deterministic crosstalk stub decaying with qubit-id
// distance (stand-in for the fitted ZZ model, in MHz).
func decayXT(i, j int) float64 {
	if i == j {
		return 0
	}
	return 0.6 * math.Exp(-math.Abs(float64(i-j))/2)
}

func groupSquare(t *testing.T, cfg Config) (*GateInfo, *Grouping) {
	t.Helper()
	gi := AnalyzeGates(chip.Square(3, 3))
	g, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gi, g
}

func TestGroupChipLegal(t *testing.T) {
	gi, g := groupSquare(t, DefaultConfig(decayXT))
	if err := g.Validate(gi); err != nil {
		t.Fatal(err)
	}
}

func TestGroupChipReducesLines(t *testing.T) {
	gi, g := groupSquare(t, DefaultConfig(decayXT))
	if g.NumZLines() >= gi.Dev.Count() {
		t.Errorf("no multiplexing achieved: %d lines for %d devices", g.NumZLines(), gi.Dev.Count())
	}
	// Table 2 anchor: the 9-qubit square chip lands near 7 Z lines.
	if g.NumZLines() > 12 {
		t.Errorf("square 3x3 uses %d Z lines; paper achieves ~7", g.NumZLines())
	}
}

func TestGroupLevelsRespectTheta(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	idx := gi.AllParallelismIndices()
	cfg := DefaultConfig(decayXT)
	g, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, grp := range g.Groups {
		if len(grp.Devices) <= 2 {
			continue
		}
		// Groups above size 2 may only contain low-parallelism devices.
		for _, d := range grp.Devices {
			if idx[d] > cfg.Theta {
				t.Errorf("high-parallelism device %s (idx %.1f) in a size-%d group",
					gi.Dev.Name(d), idx[d], len(grp.Devices))
			}
		}
	}
}

func TestThetaSweepMonotonicity(t *testing.T) {
	// Raising θ admits more devices to 1:4 DEMUXes, so the count of
	// 1:4 units must not decrease and Z lines must not increase.
	gi := AnalyzeGates(chip.Square(4, 4))
	prev14 := -1
	prevZ := 1 << 30
	for _, theta := range []float64{0, 2, 4, 8, 100} {
		cfg := DefaultConfig(decayXT)
		cfg.Theta = theta
		g, err := GroupChip(gi, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(gi); err != nil {
			t.Fatalf("θ=%g: %v", theta, err)
		}
		n14 := g.LevelCounts()[Demux1to4]
		if n14 < prev14 {
			t.Errorf("θ=%g: 1:4 count dropped from %d to %d", theta, prev14, n14)
		}
		if g.NumZLines() > prevZ {
			t.Errorf("θ=%g: Z lines rose from %d to %d", theta, prevZ, g.NumZLines())
		}
		prev14 = n14
		prevZ = g.NumZLines()
	}
}

func TestGroupDevicesSubset(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	subset := []int{0, 1, 2, 12, 13}
	g, err := GroupDevices(gi, subset, DefaultConfig(decayXT))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, grp := range g.Groups {
		for _, d := range grp.Devices {
			seen[d] = true
		}
	}
	if len(seen) != len(subset) {
		t.Errorf("grouping covers %d of %d devices", len(seen), len(subset))
	}
	for _, d := range subset {
		if !seen[d] {
			t.Errorf("device %d missing", d)
		}
	}
}

func TestGroupDevicesRejectsBadInput(t *testing.T) {
	gi := AnalyzeGates(chip.Square(2, 2))
	if _, err := GroupDevices(gi, []int{99}, DefaultConfig(nil)); err == nil {
		t.Error("out-of-range device accepted")
	}
}

func TestNilCrosstalkWorks(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	g, err := GroupChip(gi, DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(gi); err != nil {
		t.Error(err)
	}
}

func TestSparseQubitZMode(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	cfg := DefaultConfig(decayXT)
	dense, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SparseQubitZ = true
	sparse, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.Validate(gi); err != nil {
		t.Fatal(err)
	}
	if sparse.NumZLines() > dense.NumZLines() {
		t.Errorf("sparse mode should not need more Z lines: %d vs %d",
			sparse.NumZLines(), dense.NumZLines())
	}
}

func TestLocalClusterGroupLegal(t *testing.T) {
	gi := AnalyzeGates(chip.Square(3, 3))
	for _, fanout := range []int{2, 4} {
		g, err := LocalClusterGroup(gi, fanout)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(gi); err != nil {
			t.Errorf("fanout %d: %v", fanout, err)
		}
		for _, grp := range g.Groups {
			if len(grp.Devices) > fanout {
				t.Errorf("fanout %d exceeded: %d devices", fanout, len(grp.Devices))
			}
		}
	}
	if _, err := LocalClusterGroup(gi, 3); err == nil {
		t.Error("fanout 3 accepted")
	}
}

func TestYoutiaoBeatsLocalClusteringOnNonParallelism(t *testing.T) {
	// The YOUTIAO grouping must pack at least as well as local
	// clustering while preferring genuinely non-parallel devices. We
	// check the structural proxy: among same-group device pairs, the
	// fraction of gate pairs that could never coexist.
	gi := AnalyzeGates(chip.Square(4, 4))
	cfg := DefaultConfig(decayXT)
	youtiao, err := GroupChip(gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := LocalClusterGroup(gi, 4)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := meanGroupNonParallel(gi, youtiao, cfg), meanGroupNonParallel(gi, local, cfg)
	if f1 < f2-0.05 {
		t.Errorf("YOUTIAO non-parallel fraction %.3f well below local clustering %.3f", f1, f2)
	}
	// Local clustering packs to the fan-out limit unconditionally, so
	// it may use fewer lines — but only by paying serialization, which
	// the schedule-level tests quantify. Here we only require that
	// YOUTIAO still multiplexes substantially.
	if youtiao.NumZLines() > gi.Dev.Count()*2/3 {
		t.Errorf("YOUTIAO barely multiplexes: %d lines for %d devices", youtiao.NumZLines(), gi.Dev.Count())
	}
}

// meanGroupNonParallel averages nonParallelFraction over every grouped
// device against its co-members.
func meanGroupNonParallel(gi *GateInfo, g *Grouping, cfg Config) float64 {
	var sum float64
	var n int
	for _, grp := range g.Groups {
		if len(grp.Devices) < 2 {
			continue
		}
		for i, d := range grp.Devices {
			others := append(append([]int(nil), grp.Devices[:i]...), grp.Devices[i+1:]...)
			sum += nonParallelFraction(gi, others, d, cfg)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

func TestGroupingDeterministic(t *testing.T) {
	gi := AnalyzeGates(chip.Square(4, 4))
	g1, err := GroupChip(gi, DefaultConfig(decayXT))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GroupChip(gi, DefaultConfig(decayXT))
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Groups) != len(g2.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(g1.Groups), len(g2.Groups))
	}
	for i := range g1.Groups {
		if len(g1.Groups[i].Devices) != len(g2.Groups[i].Devices) {
			t.Fatalf("group %d sizes differ", i)
		}
		for j := range g1.Groups[i].Devices {
			if g1.Groups[i].Devices[j] != g2.Groups[i].Devices[j] {
				t.Fatalf("group %d member %d differs", i, j)
			}
		}
	}
}

func TestAllTopologiesGroupLegally(t *testing.T) {
	for _, c := range chip.Table2Chips() {
		gi := AnalyzeGates(c)
		g, err := GroupChip(gi, DefaultConfig(decayXT))
		if err != nil {
			t.Fatalf("%s: %v", c.Topology, err)
		}
		if err := g.Validate(gi); err != nil {
			t.Errorf("%s: %v", c.Topology, err)
		}
	}
}

func TestRandomChipsGroupLegally(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(12)
		qs := make([]chip.Qubit, n)
		for i := range qs {
			qs[i] = chip.Qubit{ID: i}
		}
		var pairs [][2]int
		seen := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 && !seen[[2]int{i, j}] {
					pairs = append(pairs, [2]int{i, j})
					seen[[2]int{i, j}] = true
				}
			}
		}
		c, err := chip.New("rand", "custom", qs, pairs)
		if err != nil {
			t.Fatal(err)
		}
		gi := AnalyzeGates(c)
		g, err := GroupChip(gi, DefaultConfig(decayXT))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := g.Validate(gi); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// nonParallelFraction returns the fraction of (candidate gate, member
// gate) pairs that can never execute simultaneously — either
// topologically (they share a qubit, step 2 of the grouping) or noisily
// (their predicted mutual crosstalk exceeds the threshold, step 3). A
// fraction of 1 means grouping the candidate costs no parallelism at
// all; devices without gates are trivially non-parallel.
func nonParallelFraction(gi *GateInfo, group []int, cand int, cfg Config) float64 {
	pairs, np := 0, 0
	for _, m := range group {
		p, q := pairCounts(gi, m, cand, cfg)
		pairs += p
		np += q
	}
	return fraction(pairs, np)
}

// pairCounts returns nonParallelFraction's counts for the single
// member m: the (candidate gate, member gate) pairs, and how many of
// them can never execute simultaneously.
func pairCounts(gi *GateInfo, m, cand int, cfg Config) (pairs, np int) {
	if cfg.SparseQubitZ && (!gi.Dev.IsCoupler(cand) || !gi.Dev.IsCoupler(m)) {
		// Surface-code mode: any pair involving a qubit is free.
		return 0, 0
	}
	for _, gc := range gi.GatesOf[cand] {
		for _, gm := range gi.GatesOf[m] {
			if gm == gc {
				continue
			}
			pairs++
			if nonParallelGates(gi, gm, gc, cfg) {
				np++
			}
		}
	}
	return pairs, np
}

// nonParallelGates reports whether member gate gm and candidate gate
// gc can never execute simultaneously: topologically (they share a
// qubit) or noisily (their predicted crosstalk exceeds the threshold).
func nonParallelGates(gi *GateInfo, gm, gc int, cfg Config) bool {
	return sharesQubit(gi.Gates[gm], gi.Gates[gc]) ||
		cfg.Crosstalk != nil && gateCrosstalk(gi, gm, gc, cfg.Crosstalk) > cfg.NoiseThreshold
}

func sharesQubit(a, b chip.TwoQubitGate) bool {
	return a.Q1 == b.Q1 || a.Q1 == b.Q2 || a.Q2 == b.Q1 || a.Q2 == b.Q2
}

// gateCrosstalk is the worst pairwise qubit crosstalk across two gates.
func gateCrosstalk(gi *GateInfo, a, b int, xt CrosstalkFunc) float64 {
	ga, gb := gi.Gates[a], gi.Gates[b]
	max := 0.0
	for _, qa := range [2]int{ga.Q1, ga.Q2} {
		for _, qb := range [2]int{gb.Q1, gb.Q2} {
			if v := xt(qa, qb); v > max {
				max = v
			}
		}
	}
	return max
}

// groupLevelReference is the greedy search as first written: legality
// and nonParallelFraction recomputed over the whole group for every
// candidate at every growth step. groupLevel must group exactly as it
// does.
func groupLevelReference(gi *GateInfo, devs []int, capacity int, idx []float64, cfg Config) []Group {
	remaining := SortByIndex(slices.Clone(devs), idx)
	inGroup := make(map[int]bool)
	var groups []Group

	for len(remaining) > 0 {
		seed := remaining[0]
		group := []int{seed}
		inGroup[seed] = true
		lossy := 0

		for len(group) < capacity {
			best, bestKey := -1, math.Inf(-1)
			bestStrict := false
			var meanIdx float64
			for _, m := range group {
				meanIdx += idx[m]
			}
			meanIdx /= float64(len(group))

			for _, cand := range remaining {
				if inGroup[cand] {
					continue
				}
				legal := true
				for _, m := range group {
					if conflicts(gi, cand, m) {
						legal = false
						break
					}
				}
				if !legal {
					continue
				}
				frac := nonParallelFraction(gi, group, cand, cfg)
				strict := frac >= 0.999
				if !strict {
					if lossy >= cfg.LossyLimit || frac < cfg.MinLossyFraction {
						continue
					}
				}
				key := frac*1e6 - math.Abs(idx[cand]-meanIdx)
				if key > bestKey {
					best, bestKey, bestStrict = cand, key, strict
				}
			}
			if best < 0 {
				break
			}
			group = append(group, best)
			inGroup[best] = true
			if !bestStrict {
				lossy++
			}
		}

		groups = append(groups, Group{Devices: group, Level: levelFor(len(group))})
		next := remaining[:0]
		for _, d := range remaining {
			if !inGroup[d] {
				next = append(next, d)
			}
		}
		remaining = next
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].Devices[0] < groups[b].Devices[0] })
	return groups
}

// withNoisy returns cfg with its noisy qubit pairs listed in
// Config.Noisy, from its own Crosstalk over nq qubits.
func withNoisy(cfg Config, nq int) Config {
	lists := make([][]int32, nq)
	for a := range lists {
		for b := nq - 1; b >= 0; b-- { // any order will do
			if b != a && cfg.Crosstalk(a, b) > cfg.NoiseThreshold {
				lists[a] = append(lists[a], int32(b))
			}
		}
	}
	cfg.Noisy = func(a int) []int32 { return lists[a] }
	return cfg
}

// TestNoisyMustAgreeWithCrosstalk checks that GroupDevices rejects
// noisy-pair lists listed at another threshold than the config's.
func TestNoisyMustAgreeWithCrosstalk(t *testing.T) {
	c := chip.Square(3, 3)
	gi := AnalyzeGates(c)
	lower := DefaultConfig(decayXT)
	lower.NoiseThreshold = 0.05
	cfg := DefaultConfig(decayXT)
	cfg.Noisy = withNoisy(lower, c.NumQubits()).Noisy
	if _, err := GroupChip(gi, cfg); err == nil {
		t.Fatal("lists at threshold 0.05 accepted under threshold 0.1")
	}
	if _, err := GroupChip(gi, withNoisy(DefaultConfig(decayXT), c.NumQubits())); err != nil {
		t.Fatalf("agreeing lists rejected: %v", err)
	}
}

// TestCheckNoisyChecksEveryLocalQubit corrupts the noisy list of the
// last local qubit: GroupDevices' spot check of the first local qubit
// misses it, and CheckNoisy rejects it.
func TestCheckNoisyChecksEveryLocalQubit(t *testing.T) {
	c := chip.Square(3, 3)
	gi := AnalyzeGates(c)
	devs := make([]int, gi.Dev.Count())
	for i := range devs {
		devs[i] = i
	}
	cfg := withNoisy(DefaultConfig(decayXT), c.NumQubits())
	if err := CheckNoisy(gi, devs, cfg); err != nil {
		t.Fatalf("agreeing lists rejected: %v", err)
	}
	last := c.NumQubits() - 1
	lists := make([][]int32, c.NumQubits())
	for a := range lists {
		lists[a] = cfg.Noisy(a)
	}
	if len(lists[last]) == 0 {
		t.Fatal("the last qubit has no noisy pair to drop")
	}
	lists[last] = lists[last][1:]
	cfg.Noisy = func(a int) []int32 { return lists[a] }
	if _, err := GroupDevices(gi, devs, cfg); err != nil {
		t.Fatalf("the spot check reached the last qubit: %v", err)
	}
	if err := CheckNoisy(gi, devs, cfg); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("Noisy(%d)", last)) {
		t.Fatalf("CheckNoisy = %v, want a disagreement on Noisy(%d)", err, last)
	}
	cfg.NoiseThreshold = -1 // the lists are not read
	if err := CheckNoisy(gi, devs, cfg); err != nil {
		t.Fatalf("lists the grouping ignores were checked: %v", err)
	}
}

// nanXT is strong crosstalk with a NaN reading on every third qubit
// pair; NaN never exceeds a threshold.
func nanXT(i, j int) float64 {
	if (i+j)%3 == 0 {
		return math.NaN()
	}
	return 3 * decayXT(i, j)
}

// TestGroupLevelMatchesReference checks the incremental search against
// groupLevelReference over every device of square, heavy-hex and
// low-density chips and the Table 2 catalog, at both DEMUX capacities,
// with and without the crosstalk term, with asymmetric and NaN-valued
// crosstalk, under a negative noise threshold and in surface-code
// mode, and checks whole groupings of the chip and of a region of it
// (Theta split and isolated devices included) against the reference
// run on GroupDevices' own device split, and GroupSorted's groupings
// against GroupDevices'.
func TestGroupLevelMatchesReference(t *testing.T) {
	chips := append([]*chip.Chip{chip.Square(4, 4), chip.HeavyHexagon(2, 2), chip.LowDensity(4, 4)}, chip.Table2Chips()...)
	sparse := DefaultConfig(decayXT)
	sparse.SparseQubitZ = true
	loose := DefaultConfig(decayXT)
	loose.LossyLimit, loose.MinLossyFraction = 3, 0
	// No fraction floor and no lossy budget to spend: every legal
	// candidate stays admissible, so the search must scan them all.
	unbounded := DefaultConfig(decayXT)
	unbounded.LossyLimit, unbounded.MinLossyFraction = 1<<20, 0
	negativeFloor := DefaultConfig(decayXT)
	negativeFloor.LossyLimit, negativeFloor.MinLossyFraction = 1<<20, -0.5
	// A worst crosstalk starts at 0, so a negative threshold makes
	// every gate pair noisy, NaN readings included.
	negative := DefaultConfig(decayXT)
	negative.NoiseThreshold = -0.05
	negativeNaN := DefaultConfig(nanXT)
	negativeNaN.NoiseThreshold = -0.05
	configs := map[string]Config{
		"default":              DefaultConfig(decayXT),
		"nil-xt":               DefaultConfig(nil),
		"sparse":               sparse,
		"loose":                loose,
		"unbounded-lossy":      unbounded,
		"negative-lossy-floor": negativeFloor,
		"strong-xt": DefaultConfig(func(i, j int) float64 {
			return 3 * decayXT(i, j)
		}),
		// Noisy one way only: the member's qubit must be the source.
		"asymmetric-xt": DefaultConfig(func(i, j int) float64 {
			if i < j {
				return 4 * decayXT(i, j)
			}
			return decayXT(i, j) / 4
		}),
		"nan-xt":             DefaultConfig(nanXT),
		"negative-threshold": negative,
		"negative-nan-xt":    negativeNaN,
	}
	for _, c := range chips {
		gi := AnalyzeGates(c)
		idx := gi.AllParallelismIndices()
		devs := make([]int, gi.Dev.Count())
		for i := range devs {
			devs[i] = i
		}
		configs := maps.Clone(configs)
		for _, name := range []string{"default", "asymmetric-xt", "nan-xt", "negative-threshold"} {
			configs[name+"/noisy-lists"] = withNoisy(configs[name], c.NumQubits())
		}
		for name, cfg := range configs {
			for _, capacity := range []int{2, 4} {
				s, level := new(scratch), SortByIndex(slices.Clone(devs), idx)
				if err := s.buildNoise(gi, level, nil, cfg); err != nil {
					t.Fatal(err)
				}
				got := s.groupLevel(gi, level, capacity, idx, cfg, nil)
				want := groupLevelReference(gi, append([]int(nil), devs...), capacity, idx, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s capacity %d:\n got %v\nwant %v", c.Topology, name, capacity, got, want)
				}
			}

			isolated := cfg
			isolated.Isolate = func(dev int) bool { return dev%5 == 1 }
			for _, cfg := range []Config{cfg, isolated} {
				// The whole chip, and a region of it whose gates reach
				// devices outside the grouped set.
				for _, region := range [][]int{devs, devs[len(devs)/3:]} {
					g, err := GroupDevices(gi, region, cfg)
					if err != nil {
						t.Fatal(err)
					}
					var low, high, iso []int
					for _, d := range region {
						switch {
						case cfg.Isolate != nil && cfg.Isolate(d):
							iso = append(iso, d)
						case idx[d] <= cfg.Theta:
							low = append(low, d)
						default:
							high = append(high, d)
						}
					}
					want := append(groupLevelReference(gi, low, 4, idx, cfg), groupLevelReference(gi, high, 2, idx, cfg)...)
					for _, d := range iso {
						want = append(want, Group{Devices: []int{d}, Level: DemuxNone})
					}
					if !reflect.DeepEqual(g.Groups, want) {
						t.Errorf("%s/%s isolate=%v region of %d: GroupDevices\n got %v\nwant %v", c.Topology, name, cfg.Isolate != nil, len(region), g.Groups, want)
					}
					sorted := SortByIndex(append(low, high...), idx)
					gs, err := GroupSorted(gi, sorted, iso, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gs.Groups, g.Groups) {
						t.Errorf("%s/%s isolate=%v region of %d: GroupSorted\n got %v\nwant %v", c.Topology, name, cfg.Isolate != nil, len(region), gs.Groups, g.Groups)
					}
				}
			}
		}
	}
}
