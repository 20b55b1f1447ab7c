package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/obs"
	"repro/internal/stage"
	"repro/internal/xmon"
)

// designOn designs c with opts through a fresh cache on dir, as a new
// process would, and returns the design with the cache.
func designOn(t *testing.T, dir string, c *chip.Chip, opts Options) (*Pipeline, *DesignCache) {
	t.Helper()
	dc, err := OpenDesignCache(dir, stage.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dc.Designer(c).RedesignCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, dc
}

// builtField reads the unexported field name of the struct *v points
// to as a pointer: the address a lazily built value lives at, 0 while
// it is unbuilt.
func builtField(v any, name string) uintptr {
	return reflect.ValueOf(v).Elem().FieldByName(name).Pointer()
}

// TestRecalledArtifactsReadConcurrently reads a disk-recalled
// characterization and device from 16 goroutines at once:
// Pipeline.ZZ and CampaignStats, which recall the ZZ characterization
// the design left on disk, Predict and Matrix on the recalled pair tables, Model.On on a
// second chip (which builds the forest the recall kept encoded) and
// Device.Coupling on both channels (which builds the distance table the
// recall left out). Every value equals the eagerly built twin's, bit for
// bit; the design neither recalls the ZZ characterization nor builds a
// forest or the table, the accessors recall the characterization once,
// and every goroutine sees the one characterization, the one forest and
// the one table built for all of them. Run it under -race.
func TestRecalledArtifactsReadConcurrently(t *testing.T) {
	opts := Options{Seed: 4}
	square := func() *chip.Chip { return chip.Square(4, 4) }
	twin, err := NewDesigner(square()).RedesignCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	designOn(t, dir, square(), opts)
	got, dc := designOn(t, dir, square(), opts)
	if rep := dc.Report(); rep.Misses != 0 {
		t.Fatalf("the recall executed %d stages", rep.Misses)
	}
	zzRuns := func() int {
		st, _ := dc.Store().StatsFor(StageCharacterizeZZ)
		return st.Runs
	}
	if n := zzRuns(); n != 0 {
		t.Fatalf("the design loaded the ZZ characterization it does not read (%d runs)", n)
	}
	dev := got.Device
	if builtField(dev, "topDist") != 0 {
		t.Fatal("recalling the device built its distance table")
	}
	if builtField(got.ModelXY, "forest") != 0 {
		t.Fatal("recalling the characterization built its forest")
	}

	second := chip.HeavyHexagon(2, 2)
	n := dev.Chip.NumQubits()
	_, twinZZ, err := twin.ZZ()
	if err != nil {
		t.Fatal(err)
	}
	wantCalib, err := twin.CampaignStats()
	if err != nil {
		t.Fatal(err)
	}
	twins := []*crosstalk.Predictor{twin.PredXY, twinZZ}
	wantOn := [][][]float64{twin.ModelXY.On(second).Matrix(), twinZZ.Model.On(second).Matrix()}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameMatrix := func(a, b [][]float64) bool {
		return slices.EqualFunc(a, b, func(x, y []float64) bool { return slices.EqualFunc(x, y, same) })
	}

	const readers = 16
	var wg sync.WaitGroup
	seen := make([][4]uintptr, readers) // the ZZ model, the table and both forests each reader used
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zz, predZZ, err := got.ZZ()
			if err != nil || predZZ.Model != zz {
				t.Errorf("reader %d: the ZZ predictor is not bound to the ZZ model (%v)", g, err)
				return
			}
			if calib, err := got.CampaignStats(); err != nil || calib != wantCalib {
				t.Errorf("reader %d: campaign stats %+v (%v) differ from the twin's", g, calib, err)
			}
			models, preds := []*crosstalk.Model{got.ModelXY, zz}, []*crosstalk.Predictor{got.PredXY, predZZ}
			for k, kind := range []xmon.CrosstalkKind{xmon.XY, xmon.ZZ} {
				if !sameMatrix(preds[k].Matrix(), twins[k].Matrix()) {
					t.Errorf("reader %d: recalled %v Matrix differs from the twin's", g, kind)
				}
				if !sameMatrix(models[k].On(second).Matrix(), wantOn[k]) {
					t.Errorf("reader %d: recalled %v model predicts differently on a second chip", g, kind)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if !same(preds[k].Predict(i, j), twins[k].Predict(i, j)) {
							t.Errorf("reader %d: recalled %v Predict(%d,%d) differs", g, kind, i, j)
						}
						if !same(dev.Coupling(kind, i, j), twin.Device.Coupling(kind, i, j)) {
							t.Errorf("reader %d: recalled device's %v Coupling(%d,%d) differs", g, kind, i, j)
						}
					}
				}
			}
			seen[g] = [4]uintptr{reflect.ValueOf(zz).Pointer(), builtField(dev, "topDist"), builtField(models[0], "forest"), builtField(models[1], "forest")}
		}()
	}
	wg.Wait()
	for g := range seen {
		if seen[g] != seen[0] || slices.Contains(seen[g][:], 0) {
			t.Fatalf("reader %d used ZZ model, table and forests %x, reader 0 %x: each must be recalled or built once, for all", g, seen[g], seen[0])
		}
	}
	if st, _ := dc.Store().StatsFor(StageCharacterizeZZ); st.Runs != 1 || st.DiskHits != 1 {
		t.Errorf("16 readers took %d loads (%d from disk) of the ZZ characterization, want 1 disk hit", st.Runs, st.DiskHits)
	}
}

// forestRecords are the forest records mlfit.DecodeBinary must reject
// (TestDecodeBinaryRejectsMalformed), written as binpack would: a tree
// count, then per tree its feature arity and its preorder nodes as
// (presence, feature, threshold, value). "two features" is a record
// mlfit accepts and the characterization decoder must still reject: a
// forest reading more than d_equiv. "one leaf" is a well-formed
// one-feature forest, the control.
func forestRecords() map[string][]byte {
	type node struct {
		present uint8
		feature int
	}
	leaf, split := node{1, -1}, func(f int) node { return node{1, f} }
	record := func(arity []int, trees ...[]node) []byte {
		var e binpack.Enc
		e.U32(uint32(len(trees)))
		for t, nodes := range trees {
			e.Int(arity[t])
			for _, n := range nodes {
				e.U8(n.present)
				e.Int(n.feature)
				e.F64(0.5)
				e.F64(1)
			}
		}
		return e.Bytes()
	}
	return map[string][]byte{
		"zero trees":                record(nil),
		"no root":                   record([]int{1}, []node{{0, -1}}),
		"missing child":             record([]int{1}, []node{split(0), leaf, {0, -1}}),
		"presence byte 2":           record([]int{1}, []node{{2, -1}}),
		"feature out of range":      record([]int{2}, []node{split(2), leaf, leaf}),
		"feature below leaf marker": record([]int{1}, []node{split(-2)}),
		"zero arity":                record([]int{0}, []node{leaf}),
		"arity mismatch":            record([]int{1, 2}, []node{leaf}, []node{leaf}),
		"truncated":                 record([]int{1}, []node{split(0), leaf}),
		"two features":              record([]int{2, 2}, []node{split(1), leaf, leaf}, []node{leaf}),
		"one leaf":                  record([]int{1}, []node{leaf}),
	}
}

// rewritePayload replaces the payload of the warm-tier file at path by
// edit's result, keeping the header and recomputing its checksum (see
// internal/stage/cas/header.go), so only the codec can reject it.
func rewritePayload(t *testing.T, path string, edit func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 10 // magic, CRC, version
	for range 2 {
		off += 2 + int(binary.LittleEndian.Uint16(data[off:]))
	}
	payload := edit(slices.Clone(data[off+8:]))
	out := binary.LittleEndian.AppendUint64(slices.Clone(data[:off]), uint64(len(payload)))
	out = append(out, payload...)
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(out[8:], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecallRejectsEveryMalformedForest embeds each malformed forest
// record in a stored XY characterization, in place of its forest. The
// recall must reject it at decode — a decode error, then the stage runs
// again and writes a good artifact back — and the design must be the
// one the first process made: a recalled model is never accepted with
// a forest that would fail when a prediction first builds it. The
// well-formed control record, spliced in the same place, recalls.
func TestRecallRejectsEveryMalformedForest(t *testing.T) {
	ctx := context.Background()
	opts := Options{Seed: 2}
	square := func() *chip.Chip { return chip.Square(3, 3) }
	for name, forest := range forestRecords() {
		bad := int64(1)
		if name == "one leaf" {
			bad = 0
		}
		dir := t.TempDir()
		first, _ := designOn(t, dir, square(), opts)
		// The model encodes as kind, three floats and the forest flag
		// (33 bytes), then the forest record.
		var e binpack.Enc
		first.ModelXY.AppendBinary(&e)
		modelLen := len(e.Bytes())
		var files int
		err := filepath.WalkDir(filepath.Join(dir, "v1", StageCharacterizeXY), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				rewritePayload(t, path, func(p []byte) []byte {
					return slices.Concat(p[:33], forest, p[modelLen:])
				})
				files++
			}
			return err
		})
		if err != nil || files != 1 {
			t.Fatalf("%s: rewrote %d characterization files (%v), want 1", name, files, err)
		}

		dc, err := OpenDesignCache(dir, stage.Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		o := opts
		o.Obs = reg
		again, err := dc.Designer(square()).RedesignCtx(ctx, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reg.Counter("stage/decode_errors").Load(); got != bad {
			t.Errorf("%s: %d decode errors, want %d", name, got, bad)
		}
		for _, st := range dc.Report().Stages {
			want := [2]int{0, 1} // misses, disk hits
			if st.Name == StageCharacterizeXY && bad == 1 {
				want = [2]int{1, 0}
			}
			if got := [2]int{st.Misses, st.DiskHits}; got != want {
				t.Errorf("%s: stage %s [misses disk] %v, want %v", name, st.Name, got, want)
			}
		}
		if got, want := designFingerprint(again), designFingerprint(first); got != want {
			t.Errorf("%s: design after the recall differs", name)
		}
	}
}

// TestStalePlanRecallsZZOnDemand removes the tdm-gates file of a
// fault-free design behind a warm cache's index. The plan still finds
// tdm-gates on disk, so it leaves the ZZ characterization unloaded;
// the read then misses, tdm-gates executes and recalls the ZZ
// characterization on demand, once. The design, and the tdm-gates
// artifact written back, are the ones the first process made.
func TestStalePlanRecallsZZOnDemand(t *testing.T) {
	opts := Options{Seed: 3}
	square := func() *chip.Chip { return chip.Square(4, 4) }
	dir := t.TempDir()
	ref, _ := designOn(t, dir, square(), opts)
	dc, err := OpenDesignCache(dir, stage.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "v1", StageTDMGates, "*", "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("%d tdm-gates files (%v), want 1", len(files), err)
	}
	stored, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}

	p, err := dc.Designer(square()).RedesignCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range dc.Report().Stages {
		want := [3]int{1, 0, 1} // runs, misses, disk hits
		if st.Name == StageTDMGates {
			want = [3]int{1, 1, 0}
		}
		if got := [3]int{st.Runs, st.Misses, st.DiskHits}; got != want {
			t.Errorf("stage %s [runs misses disk] %v, want %v", st.Name, got, want)
		}
	}
	if got, want := designFingerprint(p), designFingerprint(ref); got != want {
		t.Errorf("design after the stale plan differs:\n%s\nwant\n%s", got, want)
	}
	if st, _ := dc.Store().StatsFor(StageCharacterizeZZ); st.Runs != 1 {
		t.Errorf("the ZZ characterization loaded %d times, want once", st.Runs)
	}
	if again, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(again, stored) {
		t.Errorf("tdm-gates written back differs from the first process's (%v)", err)
	}
}
