package experiments

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/chip"
	"repro/internal/faults"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// recordKeys runs one cold build on d and returns the artifact key of
// every stage execution, by stage name.
func recordKeys(t *testing.T, d *Designer, opts Options) map[string]stage.Key {
	t.Helper()
	var mu sync.Mutex
	got := map[string]stage.Key{}
	d.Store().Wrap(func(name string, key stage.Key, fn func(context.Context) (any, error)) func(context.Context) (any, error) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := got[name]; dup {
			t.Errorf("stage %s executed twice in one cold build", name)
		}
		got[name] = key
		return fn
	})
	if _, err := d.Redesign(opts); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGoldenArtifactKeys pins the artifact key of every stage for three
// builds. Keys name the entries of the on-disk warm tier, so a change
// here orphans every persisted cache directory: it must be deliberate,
// never a side effect of restructuring how keys are computed.
func TestGoldenArtifactKeys(t *testing.T) {
	dev := xmon.NewDevice(chip.Square(6, 6), xmon.DefaultParams(), rand.New(rand.NewSource(9)))
	cases := []struct {
		name string
		d    *Designer
		opts Options
		want map[string]stage.Key
	}{
		{
			name: "square6x6-defaults",
			d:    NewDesigner(chip.Square(6, 6)),
			opts: Options{},
			want: map[string]stage.Key{
				StageFabricate:      "1099d552f7fb692d52d0eca76844766d168d64982999dabbd591102daab3a48f",
				StageFaults:         "d4abf3c3f8c41d1702abd0e95b02e58a3310e4beeb90cd59b3aab8c6b854bbe6",
				StageCharacterizeXY: "8a42560260d0068936b6101e2b02329fc344eec9a663145443b6136475c01e60",
				StageCharacterizeZZ: "251c9253cd6e841156e6a89257d276ac3738f7c864f3380411820408dafb3459",
				StagePartition:      "a71f92397554fb5f352f3262c0e332641a72ba3c17c82a626334bf5ba46b03ba",
				StageTDMGates:       "97b116b37ca69e9b9095f42576a55c4e5621061ae163303ef36cd74b0bca7465",
				StageFDMGroup:       "7f4333cbecfd00cd9b463cfce3301f88eeceadeedb1dc00fee2e7bd6a34dd680",
				StageAllocate:       "e43a03afc7b47fb9beee01cd208735473d44d7f4bfa597a6067acd920b9b9f44",
				StageTDM:            "6d3cef342f6e6c9b7fd7bd917daa12726590c7fa944b4e89c87e75da65954e99",
			},
		},
		{
			name: "anneal-faults-theta0",
			d:    NewDesigner(chip.Square(6, 6)),
			opts: Options{AnnealSteps: 20, Faults: faults.UniformSpec(0.02), Theta: 0, HasTheta: true},
			want: map[string]stage.Key{
				StageFabricate:      "1099d552f7fb692d52d0eca76844766d168d64982999dabbd591102daab3a48f",
				StageFaults:         "1b3a6530262ccef62517b5b7ab77e8384de0669b609a2ec5cfda91814f5f3493",
				StageCharacterizeXY: "008b743ce395cdeaf6791bcb940afd8b332dede9dd36ac896898323e9d9766a8",
				StageCharacterizeZZ: "a7e4824cf35b38eec92967fa87d87eef5a9ac97b64332d7c4eaf5092a7a655b2",
				StagePartition:      "488460669967b0192fec3c60a9b9f084d5a36d8ba05ede4162fa592ecdc33e00",
				StageTDMGates:       "267b9413f9fbda6dc6d11ba5798f34c4a5b9f11b59b5140619ce36b38ccde217",
				StageFDMGroup:       "c48a2705ce9d8ed0f32cd8eaa245c53e119d5a955a1fc7254812687a10b3979b",
				StageAllocate:       "4b3bce991d45f1101733532cc9d00bf2876c4b38ebfbde95dd2009d14935a477",
				StageAnneal:         "9cc818a9d0199680595f4fcb19b19132a46381ce156872a2f388201185241ffe",
				StageTDM:            "022547aebd941933f8a8497bf2d1a8353eda8115ad4d70dc5147d9a7558eb908",
			},
		},
		{
			name: "on-device",
			d:    NewDesignerOnDevice(dev),
			opts: Options{Seed: 3},
			want: map[string]stage.Key{
				StageFaults:         "2f0045e607532355ec08b3fd04f7f08c500f28da3ab147207795bb75c99e71e3",
				StageCharacterizeXY: "429df242271456e0d0faff12510b048b2efa2d68ce63aa04fc1a0845b424e3c4",
				StageCharacterizeZZ: "ec646449f55b3d5d08d7a0423513f98f6649da4d09ebe7f62c315743d0ceb714",
				StagePartition:      "f6d4bbd932e19423a1f7930407869ae91397419c32cc8685484f95b97ea300a9",
				StageTDMGates:       "51c191efe708c7625087ec00a41a77a6c62a4a21dee367a91f1964c2d7561214",
				StageFDMGroup:       "716fd52dd42716cad58c617ba064a169d9d5c3b91e11625a5ec269cdad72fa0b",
				StageAllocate:       "8c79e98475e59e59ffa42a977a13f77d35b70e0489adf5a4b3076a6d328baef8",
				StageTDM:            "f30933de4b2c5eb1d57122de018ad5f3eb47ef46956b585f4ef6b95b7d5aeecb",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := recordKeys(t, tc.d, tc.opts)
			for name, key := range got {
				if want, ok := tc.want[name]; !ok {
					t.Errorf("unexpected execution of stage %s (key %s)", name, key)
				} else if key != want {
					t.Errorf("stage %s key = %q, want %q", name, key, want)
				}
			}
			for name := range tc.want {
				if _, ok := got[name]; !ok {
					t.Errorf("stage %s did not execute", name)
				}
			}
		})
	}
}
