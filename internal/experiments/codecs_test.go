package experiments

import (
	"context"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/stage"
)

// captureArtifacts builds a design while recording every executed
// stage's artifact value through the store's exec-wrapper seam.
func captureArtifacts(t *testing.T, opts Options) map[string]any {
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
	if _, err := dc.Designer(chip.Square(5, 5)).RedesignCtx(context.Background(), opts); err != nil {
		t.Fatalf("build: %v", err)
	}
	return artifacts
}

// TestStageCodecsRoundTrip drives every registered codec with the real
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
	codecs := StageCodecs()
	if len(codecs) != PipelineStageGraph.Len() {
		t.Errorf("%d codecs registered for %d pipeline stages — a stage would silently stay memory-only",
			len(codecs), PipelineStageGraph.Len())
	}
	for name, codec := range codecs {
		v, ok := artifacts[name]
		if !ok {
			t.Errorf("stage %s produced no artifact under the rich options", name)
			continue
		}
		if _, err := codec.RoundTrip(v); err != nil {
			t.Errorf("stage %s: %v", name, err)
		}
	}
}

// Typed-nil artifacts (the perfect-device fault plan, the whole-chip
// partition) must persist their nil-ness.
func TestStageCodecsRoundTripNilArtifacts(t *testing.T) {
	artifacts := captureArtifacts(t, Options{Seed: 3})
	codecs := StageCodecs()

	if v := artifacts[StageFaults]; v != any((*faults.Plan)(nil)) {
		t.Fatalf("fault-free build produced %#v, not a typed-nil plan", v)
	}
	got, err := codecs[StageFaults].RoundTrip(artifacts[StageFaults])
	if err != nil {
		t.Fatalf("nil fault plan: %v", err)
	}
	if p := got.(*faults.Plan); p != nil {
		t.Fatalf("nil plan decoded as %#v", p)
	}

	if v := artifacts[StagePartition]; v != any((*partition.Partition)(nil)) {
		t.Fatalf("whole-chip build produced %#v, not a typed-nil partition", v)
	}
	got, err = codecs[StagePartition].RoundTrip(artifacts[StagePartition])
	if err != nil {
		t.Fatalf("nil partition: %v", err)
	}
	if p := got.(*partition.Partition); p != nil {
		t.Fatalf("nil partition decoded as %#v", p)
	}
}

// A codec handed another stage's artifact must refuse, not encode
// garbage: the type assertion is the last line of defense against a
// mis-registered codec map.
func TestStageCodecsRejectForeignArtifacts(t *testing.T) {
	codecs := StageCodecs()
	for name, codec := range codecs {
		if _, err := codec.Encode(42); err == nil {
			t.Errorf("stage %s encoded an int artifact", name)
		}
	}
}

// Decoders must fail cleanly on malformed bytes — every decode error
// is a cache miss, never a panic or a half-built artifact.
func TestStageCodecsDecodeMalformed(t *testing.T) {
	inputs := [][]byte{nil, {}, {0x01}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	for name, codec := range StageCodecs() {
		for _, data := range inputs {
			if _, err := codec.Decode(data); err == nil {
				t.Errorf("stage %s decoded %d garbage bytes without error", name, len(data))
			}
		}
	}
}
