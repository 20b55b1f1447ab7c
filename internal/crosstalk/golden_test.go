package crosstalk

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/geom"
	"repro/internal/mlfit"
	"repro/internal/xmon"
)

// TestFitGolden pins the encoded bytes of the XY and ZZ models fitted
// on a 6x6 square chip under the design pipeline's default fit
// configuration. The digests were recorded before the forest's split
// search moved off sort.Slice: the fitted model (selected weights, CV
// error and every tree) must stay bit-identical across changes to how
// the forest is grown.
func TestFitGolden(t *testing.T) {
	c := chip.Square(6, 6)
	cfg := FitConfig{
		WeightGrid: []float64{0, 0.25, 0.5, 1.0},
		Folds:      5,
		Forest: mlfit.ForestConfig{
			NumTrees: 12,
			Tree:     mlfit.TreeConfig{MaxDepth: 10, MinLeafSize: 4},
			Seed:     1,
		},
		Workers: 2,
	}
	for _, tc := range []struct {
		kind xmon.CrosstalkKind
		want string
	}{
		{xmon.XY, "7f0c98fdfa6a760e11d304b9a02a35a9b3a768f8ba136f8857c62f78086912a2"},
		{xmon.ZZ, "2e5f055727664d4e4016d5e6f86fb5d406ea0f34f95acc85007628d54fd86a01"},
	} {
		dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(7)))
		samples := measure(t, dev, tc.kind, 0.05, 13)
		m, err := Fit(c, samples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var e binpack.Enc
		m.AppendBinary(&e)
		sum := sha256.Sum256(e.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%v: model digest %s, want %s", tc.kind, got, tc.want)
		}
	}
}

// catalogFitConfig is the design pipeline's default fit configuration.
func catalogFitConfig() FitConfig {
	return FitConfig{
		WeightGrid: []float64{0, 0.25, 0.5, 1.0},
		Folds:      5,
		Forest: mlfit.ForestConfig{
			NumTrees: 12,
			Tree:     mlfit.TreeConfig{MaxDepth: 10, MinLeafSize: 4},
			Seed:     1,
		},
		Workers: 2,
	}
}

// catalogGolden lists, for every chip shape of the cold-design
// benchmark catalog, the model fitted from fixed XY and ZZ samples: the
// selected weights, the CV error's bits and the forest's digest. The
// rows were recorded before the weight-grid search started sharing one
// CV per ordinal class of candidates. No shared split of these fits has
// a midpoint that rounds up; TestFitGoldenMidpointRoundsUp pins a fit
// that does.
var catalogGolden = []struct {
	topology   string
	qubits     int
	kind       xmon.CrosstalkKind
	wPhy, wTop float64
	cvBits     uint64
	forest     string
}{
	{"low-density", 9, xmon.XY, 0.25, 0.25, 0x3e9553a31a86ce4a, "35c3a97a12e7cebe8f1c5b759ff10ab249ca9419681542478682a1a7ddfabcee"},
	{"low-density", 9, xmon.ZZ, 1, 0.25, 0x3f371d8024d09f37, "205d661b49d09cfdd8a7682cb2ef3a05c3d16c39ebf10db64ec8873d77435e3e"},
	{"square", 9, xmon.XY, 0, 0.25, 0x3e7b92af5dc0fdce, "60117c23e208cd0a51796536e24f3dce0faad5cd54040db526d562d7796f8122"},
	{"square", 9, xmon.ZZ, 0.25, 0, 0x3f4005fc90f7c102, "0e3aee8398519944c5f313ff300d4ed8e90b94c3d8a29f1b0e553bb8c81685f8"},
	{"hexagon", 16, xmon.XY, 0.5, 0.25, 0x3e88fd86f0c7e625, "e4942eadf0c2970119664a03c0c62a66d0435dbbb2e4c601d6ccd5507ef6d7bc"},
	{"hexagon", 16, xmon.ZZ, 1, 0.25, 0x3f34c99e186898c5, "7f06e52fdde95cd33b110475bda67433148097c006237822e201805ee32fa062"},
	{"heavy-hexagon", 9, xmon.XY, 0, 0.25, 0x3ee0d93619701d2a, "348add9b26e72dc1d2ee165cdc678c1d11522ecbe46586873c7f60d17bc15490"},
	{"heavy-hexagon", 9, xmon.ZZ, 1, 0.25, 0x3f4abfcf375b7920, "eed3724e2aa74e30c973f7cd93833f8a7493edbfcd21a4a483e99ef092827b61"},
	{"heavy-square", 9, xmon.XY, 0.5, 0.25, 0x3ee3ca6cd7aa507b, "2c62a06445619c50e4fbcbe9a3aff426f0b13bd222f8d97cd398b1dc4ac983bf"},
	{"heavy-square", 9, xmon.ZZ, 1, 0.25, 0x3f4edb7f64c521a8, "8a581e5bb0f54422dc1fb40a9f62be62cb3d547b923883e28b7174e6aa6a41ee"},
	{"square", 25, xmon.XY, 1, 0.25, 0x3e696e86b6d8eba2, "182b8c43c4e02ccc93cc208f89d1978203868717cd715f3eb4cc46b7ae7466d5"},
	{"square", 25, xmon.ZZ, 1, 0.25, 0x3f401a0d27b86cd7, "6f99425d9362983325fb4ab0ba0311c82ef13a00a3c1d6b1894a2847b48f33a2"},
	{"hexagon", 25, xmon.XY, 0.25, 0.5, 0x3e80c51dd5370a9e, "a2d2414e7fe675c0e00059b52d4e6a5f9fb573c7d6e4dc1dcf92e4e0fdafbf0a"},
	{"hexagon", 25, xmon.ZZ, 1, 0.25, 0x3f3be511354d52d5, "bcecc43c4497e3f8ba9712343327c1777fda065cf9253ffe90f0c9d95453ca89"},
	{"low-density", 25, xmon.XY, 0.25, 0.5, 0x3e64f6736552fd48, "6b759c5cbcdf84fb9e80a58b7ff0a0d403be49c23056ec9a706d9a7d9cb611a5"},
	{"low-density", 25, xmon.ZZ, 1, 0.25, 0x3f289d07809117f3, "18855cb550e1403771efad60bbe41df9e570f334a02069e219d0487ffd34d7ae"},
	{"hexagon", 36, xmon.XY, 0.25, 0.5, 0x3e7aa92e347734d3, "0f885bba743de427f908938daca5fa17de3c3971e0610c740a9afa8ad153c68c"},
	{"hexagon", 36, xmon.ZZ, 1, 0.25, 0x3f1fe09601808a63, "d4427549dadf66b6aede6163360711e16e194c955dd087869fe19440bd7b30a0"},
	{"heavy-hexagon", 25, xmon.XY, 0.25, 0.25, 0x3ee736c6195d3e37, "b2ba59d18cf4f5a8c4e89f525db861f4939ac124630ac8a28ae4729443406410"},
	{"heavy-hexagon", 25, xmon.ZZ, 1, 0.25, 0x3f48f316c27f576e, "a7d2c9b2cb5947417a3bf7159c2561f99609dc52b6b9024109b8151229e07209"},
	{"square", 49, xmon.XY, 0.25, 1, 0x3e5884e0cd0aed11, "f97304fddf7f77b366921f4ac705a057f2b803516549e1bb3de318002ae142a7"},
	{"square", 49, xmon.ZZ, 0.25, 0.25, 0x3f27af9423f8e12f, "1fecc4860ed22dae267879d2d60123b7f4fbeede318b5d3bae285e1954fd2f78"},
}

// fitCatalogChip fits the golden model of one catalog row.
func fitCatalogChip(t *testing.T, topology string, qubits int, kind xmon.CrosstalkKind, cfg FitConfig) *Model {
	t.Helper()
	c, err := chip.ByTopology(topology, qubits)
	if err != nil {
		t.Fatal(err)
	}
	dev := xmon.NewDevice(c, xmon.DefaultParams(), rand.New(rand.NewSource(7)))
	m, err := Fit(c, measure(t, dev, kind, 0.05, 13), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFitGoldenCatalog pins the model fitted on every cold-design
// catalog shape, for both crosstalk kinds.
func TestFitGoldenCatalog(t *testing.T) {
	for _, g := range catalogGolden {
		m := fitCatalogChip(t, g.topology, g.qubits, g.kind, catalogFitConfig())
		name := fmt.Sprintf("%s/%d/%v", g.topology, g.qubits, g.kind)
		checkGoldenModel(t, name, m, g.wPhy, g.wTop, g.cvBits, g.forest)
	}
}

// ulpLineChip returns three qubits on a line at 0, 1+ulp and 1+2ulp mm,
// coupled 0-1-2. The physical distances of pairs (0,1) and (0,2) are
// adjacent floats whose midpoint rounds half to even up to the upper
// one, in every weight candidate that scales d_phy by a power of two.
func ulpLineChip(t *testing.T) *chip.Chip {
	t.Helper()
	a := math.Nextafter(1, 2)
	b := math.Nextafter(a, 2)
	qubits := []chip.Qubit{
		{ID: 0, Pos: geom.Pt(0, 0), T1: chip.DefaultT1},
		{ID: 1, Pos: geom.Pt(a, 0), T1: chip.DefaultT1},
		{ID: 2, Pos: geom.Pt(b, 0), T1: chip.DefaultT1},
	}
	c, err := chip.New("ulp-line", "low-density", qubits, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ulpLineSamples repeats each pair of ulpLineChip with targets that make
// the split between pairs (0,1) and (0,2) the best one.
func ulpLineSamples() []xmon.Sample {
	var samples []xmon.Sample
	for r := 0; r < 12; r++ {
		jitter := 0.001 * float64(r%5)
		samples = append(samples,
			xmon.Sample{I: 0, J: 1, Kind: xmon.XY, Value: jitter},
			xmon.Sample{I: 0, J: 2, Kind: xmon.XY, Value: 1 + jitter},
			xmon.Sample{I: 1, J: 2, Kind: xmon.XY, Value: 0.5 + jitter})
	}
	return samples
}

// TestFitGoldenMidpointRoundsUp pins the model fitted on ulpLineChip,
// whose grid search shares a CV across candidates that scale the
// physical distance by a power of two while the representative's
// midpoint rounds up, so every other member of that class falls back
// to a CV of its own. Recorded before the search shared CVs.
func TestFitGoldenMidpointRoundsUp(t *testing.T) {
	c := ulpLineChip(t)
	m, err := Fit(c, ulpLineSamples(), catalogFitConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenModel(t, "ulp-line", m, 0.25, 0.25, 0x3ec2b3c17fb0be6e, "400c400edb304d969c8af2c1d782be3fa4ddecf093971e58c9c2208bdf00ae82")
}

// checkGoldenModel compares a fitted model's weights, CV error bits and
// forest digest with a golden row.
func checkGoldenModel(t *testing.T, name string, m *Model, wPhy, wTop float64, cvBits uint64, forest string) {
	t.Helper()
	var e binpack.Enc
	m.forest.AppendBinary(&e)
	sum := sha256.Sum256(e.Bytes())
	if m.Weights != (chip.EquivWeights{WPhy: wPhy, WTop: wTop}) {
		t.Errorf("%s: weights %+v, want (%v, %v)", name, m.Weights, wPhy, wTop)
	}
	if got := math.Float64bits(m.CVError); got != cvBits {
		t.Errorf("%s: CV error bits %#x, want %#x", name, got, cvBits)
	}
	if got := hex.EncodeToString(sum[:]); got != forest {
		t.Errorf("%s: forest digest %s, want %s", name, got, forest)
	}
}
