package experiments

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// captureArtifacts builds a design of a 5x5 square chip while
// recording every executed stage's artifact value through the store's
// exec-wrapper seam.
func captureArtifacts(t *testing.T, opts Options) map[string]any {
	t.Helper()
	return captureArtifactsOn(t, chip.Square(5, 5), opts)
}

// captureArtifactsOn is captureArtifacts on the given chip.
func captureArtifactsOn(t testing.TB, c *chip.Chip, opts Options) map[string]any {
	t.Helper()
	dc := NewDesignCacheWithStore(stage.NewStore())
	var mu sync.Mutex
	artifacts := make(map[string]any)
	dc.Store().Wrap(func(name string, _ stage.Key, fn func(context.Context) (any, error)) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			v, err := fn(ctx)
			if err == nil {
				mu.Lock()
				artifacts[name] = v
				mu.Unlock()
			}
			return v, err
		}
	})
	if _, err := dc.Designer(c).RedesignCtx(context.Background(), opts); err != nil {
		t.Fatalf("build: %v", err)
	}
	return artifacts
}

// stageCodecs maps every stage of PipelineStageGraph onto the codec the
// graph runs it with. Every stage depends on fabricate, so fabricate
// and its downstream name them all.
func stageCodecs(t testing.TB) map[string]stage.Codec {
	t.Helper()
	names := append([]string{StageFabricate}, PipelineStageGraph.Downstream(StageFabricate)...)
	if len(names) != PipelineStageGraph.Len() {
		t.Fatalf("%d stages reached from fabricate, %d declared", len(names), PipelineStageGraph.Len())
	}
	codecs := make(map[string]stage.Codec, len(names))
	for _, name := range names {
		codecs[name] = PipelineStageGraph.Codec(name)
	}
	return codecs
}

// runInputs lays a build's artifacts out by declaration index: the
// slice Graph.Run hands to Run and to Codec.Decode.
func runInputs(artifacts map[string]any) []any {
	names := append([]string{StageFabricate}, PipelineStageGraph.Downstream(StageFabricate)...)
	in := make([]any, len(names))
	for i, name := range names {
		in[i] = artifacts[name]
	}
	return in
}

// TestStageCodecsRoundTrip drives every stage's codec with the real
// artifact its stage produces and checks the stage.Codec law:
// re-encoding the decoded value reproduces the original bytes exactly.
// The options force the rich variants — a non-nil fault plan, a real
// partition, annealed allocation — so no codec is tested on a
// degenerate artifact only.
func TestStageCodecsRoundTrip(t *testing.T) {
	artifacts := captureArtifacts(t, Options{
		Seed:                3,
		Faults:              faults.UniformSpec(0.02),
		AnnealSteps:         50,
		PartitionTargetSize: 9,
	})
	in := runInputs(artifacts)
	for name, codec := range stageCodecs(t) {
		v, ok := artifacts[name]
		if !ok {
			t.Errorf("stage %s produced no artifact under the rich options", name)
			continue
		}
		if _, err := codec.RoundTrip(v, in); err != nil {
			t.Errorf("stage %s: %v", name, err)
		}
	}
}

// Typed-nil artifacts (the perfect-device fault plan, the whole-chip
// partition) must persist their nil-ness.
func TestStageCodecsRoundTripNilArtifacts(t *testing.T) {
	artifacts := captureArtifacts(t, Options{Seed: 3})
	codecs := stageCodecs(t)

	if v := artifacts[StageFaults]; v != any((*faults.Plan)(nil)) {
		t.Fatalf("fault-free build produced %#v, not a typed-nil plan", v)
	}
	got, err := codecs[StageFaults].RoundTrip(artifacts[StageFaults], nil)
	if err != nil {
		t.Fatalf("nil fault plan: %v", err)
	}
	if p := got.(*faults.Plan); p != nil {
		t.Fatalf("nil plan decoded as %#v", p)
	}

	if v := artifacts[StagePartition]; v != any((*partition.Partition)(nil)) {
		t.Fatalf("whole-chip build produced %#v, not a typed-nil partition", v)
	}
	got, err = codecs[StagePartition].RoundTrip(artifacts[StagePartition], nil)
	if err != nil {
		t.Fatalf("nil partition: %v", err)
	}
	if p := got.(*partition.Partition); p != nil {
		t.Fatalf("nil partition decoded as %#v", p)
	}
}

// A codec handed another stage's artifact must refuse, not encode
// garbage: the type assertion is the last line of defense against a
// codec declared on the wrong node.
func TestStageCodecsRejectForeignArtifacts(t *testing.T) {
	codecs := stageCodecs(t)
	for name, codec := range codecs {
		if _, err := codec.Encode(nil, 42); err == nil {
			t.Errorf("stage %s encoded an int artifact", name)
		}
	}
}

// Decoders must fail cleanly on malformed bytes — every decode error
// is a cache miss, never a panic or a half-built artifact — with the
// run's inputs at hand or without them.
func TestStageCodecsDecodeMalformed(t *testing.T) {
	inputs := [][]byte{nil, {}, {0x01}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	in := runInputs(captureArtifacts(t, Options{Seed: 3}))
	for name, codec := range stageCodecs(t) {
		for _, data := range inputs {
			if _, err := codec.Decode(data, in); err == nil {
				t.Errorf("stage %s decoded %d garbage bytes without error", name, len(data))
			}
			if _, err := codec.Decode(data, nil); err == nil {
				t.Errorf("stage %s decoded %d garbage bytes without error", name, len(data))
			}
		}
	}
}

// equalRows reports whether two matrices hold equal rows, a nil row
// equal to an empty one.
func equalRows(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal) }

// TestTDMGatesCodecRoundTrip decodes the tdm-gates artifact of a
// faulty, partitioned build: every table the tdm stage reads comes
// back equal, noisy pairs and stuck-lossy devices included, grouping
// from the decoded artifact gives the original grouping, the decoded
// gate analysis binds to fabricate's chip (the encoding carries none),
// and noisy lists that would index outside the chip, or an artifact
// without a device to bind to, do not decode.
func TestTDMGatesCodecRoundTrip(t *testing.T) {
	opts := Options{Seed: 3, Faults: faults.UniformSpec(0.05), PartitionTargetSize: 9}
	artifacts := captureArtifacts(t, opts)
	tg := artifacts[StageTDMGates].(*tdmGates)
	runIn := runInputs(artifacts)
	v, err := stageCodecs(t)[StageTDMGates].RoundTrip(tg, runIn)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*tdmGates)
	if c := artifacts[StageFabricate].(*xmon.Device).Chip; got.Gates.Dev.Chip() != c {
		t.Error("the decoded gate analysis is not bound to fabricate's chip")
	}
	if !reflect.DeepEqual(got.Gates.Gates, tg.Gates.Gates) || !equalRows(got.Gates.GatesOf, tg.Gates.GatesOf) ||
		!equalRows(got.Gates.NonCoex, tg.Gates.NonCoex) || got.Gates.Dev.Count() != tg.Gates.Dev.Count() {
		t.Error("gate tables differ after the round trip")
	}
	if !slices.Equal(got.NoisyStart, tg.NoisyStart) || !slices.Equal(got.Noisy, tg.Noisy) {
		t.Error("noisy lists differ after the round trip")
	}
	if !equalRows(got.Regions, tg.Regions) || !equalRows(got.Isolated, tg.Isolated) {
		t.Error("region device lists differ after the round trip")
	}
	if len(tg.Regions) < 2 || len(tg.Noisy) == 0 || slices.IndexFunc(tg.Isolated, func(r []int) bool { return len(r) > 0 }) < 0 {
		t.Fatalf("want several regions, noisy pairs and a stuck-lossy device; got %d regions, %d noisy pairs, isolated %v",
			len(tg.Regions), len(tg.Noisy), tg.Isolated)
	}
	b := &build{opts: opts.normalized()}
	in := make([]any, PipelineStageGraph.Len())
	in[nCharacterizeZZ] = artifacts[StageCharacterizeZZ]
	var groupings []any
	for _, gates := range []*tdmGates{tg, got} {
		in[nTDMGates] = gates
		g, err := runTDM(context.Background(), b, in)
		if err != nil {
			t.Fatal(err)
		}
		groupings = append(groupings, g)
	}
	if !reflect.DeepEqual(groupings[0], groupings[1]) {
		t.Errorf("grouping from the decoded artifact differs:\n got %v\nwant %v", groupings[1], groupings[0])
	}

	corrupt := stageCodecs(t)[StageTDMGates]
	data, err := corrupt.Encode(nil, &tdmGates{Gates: tg.Gates, NoisyStart: tg.NoisyStart[1:], Noisy: tg.Noisy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := corrupt.Decode(data, runIn); err == nil {
		t.Error("a noisy-list table without one offset per qubit decoded")
	}
	if data, err = corrupt.Encode(nil, tg); err != nil {
		t.Fatal(err)
	}
	if _, err := corrupt.Decode(data, runIn[:nFabricate]); err == nil {
		t.Error("a tdm-gates artifact decoded without a fabricate artifact")
	}
	nq := tg.Gates.Dev.Chip().NumQubits()
	start := make([]int32, nq+1)
	start[nq] = 1 // the last qubit lists one qubit, off the chip
	data, err = corrupt.Encode(nil, &tdmGates{Gates: tg.Gates, NoisyStart: start, Noisy: []int32{int32(nq)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := corrupt.Decode(data, runIn); err == nil {
		t.Error("a noisy list naming a qubit off the chip decoded")
	}
}

// TestTDMNoiseTablesConcurrentThetas runs the tdm stage from 16
// goroutines at 8 Thetas on one recalled tdm-gates artifact, whose
// noise tables the first run builds (run under -race): every grouping
// equals the one a fresh decode of the artifact gives at its Theta,
// and the artifact holds one set of tables afterwards.
func TestTDMNoiseTablesConcurrentThetas(t *testing.T) {
	opts := Options{Seed: 3, Faults: faults.UniformSpec(0.05), PartitionTargetSize: 9}
	artifacts := captureArtifacts(t, opts)
	runIn := runInputs(artifacts)
	codec := stageCodecs(t)[StageTDMGates]
	recall := func() *tdmGates {
		v, err := codec.RoundTrip(artifacts[StageTDMGates], runIn)
		if err != nil {
			t.Fatal(err)
		}
		return v.(*tdmGates)
	}
	run := func(tg *tdmGates, theta float64) (any, error) {
		b := &build{opts: opts.normalized()}
		b.opts.Theta = theta
		in := make([]any, PipelineStageGraph.Len())
		in[nCharacterizeZZ], in[nTDMGates] = artifacts[StageCharacterizeZZ], tg
		return runTDM(context.Background(), b, in)
	}
	const goroutines, thetas = 16, 8
	want := make([]any, thetas)
	for i := range want {
		var err error
		if want[i], err = run(recall(), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	shared := recall()
	got := make([]any, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run(shared, float64(g%thetas))
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want[g%thetas]) {
			t.Errorf("goroutine %d at Theta %d: grouping differs from a fresh recall's", g, g%thetas)
		}
	}
	if len(shared.noise) != len(shared.Regions) || slices.Contains(shared.noise, nil) {
		t.Errorf("%d noise tables for %d regions after the runs", len(shared.noise), len(shared.Regions))
	}
	if reflect.DeepEqual(want[0], want[thetas-1]) {
		t.Error("the Thetas group alike; the test shows nothing")
	}
}

// TestTDMGatesChecksEveryNoisyList drops one noisy pair from the list
// of the last qubit that has one. The grouping's own spot check reads
// only the first local qubit's list and accepts the corrupted lists;
// the check the tdm-gates stage runs on every local qubit rejects them.
func TestTDMGatesChecksEveryNoisyList(t *testing.T) {
	artifacts := captureArtifacts(t, Options{Seed: 3})
	dev := artifacts[StageFabricate].(*xmon.Device)
	zz := artifacts[StageCharacterizeZZ].(*characterization)
	tg := prepareTDMGates(dev.Chip, nil, nil, zz.Pred)
	if err := tg.checkNoisy(zz.Pred.Predict); err != nil {
		t.Fatalf("lists from the predictor rejected: %v", err)
	}
	a := dev.Chip.NumQubits() - 1
	for a > 0 && tg.NoisyStart[a] == tg.NoisyStart[a+1] {
		a--
	}
	if a == 0 {
		t.Fatal("no qubit but the first has a noisy pair")
	}
	// A qubit listed as its own neighbour is never read, so this drops
	// the pair.
	tg.Noisy[tg.NoisyStart[a]] = int32(a)
	b := &build{opts: Options{Seed: 3}.normalized()}
	in := make([]any, PipelineStageGraph.Len())
	in[nCharacterizeZZ], in[nTDMGates] = zz, tg
	if _, err := runTDM(context.Background(), b, in); err != nil {
		t.Fatalf("the spot check reached qubit %d: %v", a, err)
	}
	err := tg.checkNoisy(zz.Pred.Predict)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("Noisy(%d)", a)) {
		t.Fatalf("check = %v, want a disagreement on Noisy(%d)", err, a)
	}
}
