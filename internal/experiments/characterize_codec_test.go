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
	"slices"
	"testing"

	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/faults"
	"repro/internal/stage"
	"repro/internal/stage/cas"
	"repro/internal/xmon"
)

// sameReads fails t unless got returns, bit for bit, what want returns
// from EquivDistance, Pairs, Predict and Matrix on every pair of n
// qubits, and the same lists from Above at the 10th percentile and the
// median of the predictions.
func sameReads(t *testing.T, label string, got, want *crosstalk.Predictor, n int) {
	t.Helper()
	gp, wp := got.Pairs(), want.Pairs()
	gm, wm := got.Matrix(), want.Matrix()
	if len(gm) != n || len(wm) != n {
		t.Fatalf("%s: matrices of %d and %d rows for %d qubits", label, len(gm), len(wm), n)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !same(got.EquivDistance(i, j), want.EquivDistance(i, j)) || !same(gp(i, j), wp(i, j)) ||
				!same(got.Predict(i, j), want.Predict(i, j)) || !same(gm[i][j], wm[i][j]) {
				t.Fatalf("%s: pair (%d,%d) reads differently", label, i, j)
			}
		}
	}
	vals := want.PredictedValues()
	slices.Sort(vals)
	for _, thr := range []float64{vals[len(vals)/10], vals[len(vals)/2]} {
		gs, gn := got.Above(thr)
		ws, wn := want.Above(thr)
		if len(wn) == 0 || !slices.Equal(gs, ws) || !slices.Equal(gn, wn) {
			t.Errorf("%s: Above(%v) lists %d pairs, want the %d (non-zero) of the bound predictor", label, thr, len(gn), len(wn))
		}
	}
}

// TestCharacterizationRecallReadsLikeOn writes each characterization
// to a warm-tier directory, reads it back through a store reopened on
// that directory, and checks that the decoded predictor reads like the
// model bound afresh to the device's chip (Model.On): XY and ZZ, a
// square and a hexagon chip, with and without injected faults.
func TestCharacterizationRecallReadsLikeOn(t *testing.T) {
	codec := StageCodecs()[StageCharacterizeXY]
	key := stage.NewKey("characterization-recall").Done()
	for _, c := range []*chip.Chip{chip.Square(4, 4), chip.Hexagon(2, 3)} {
		for _, spec := range []faults.Spec{{}, faults.UniformSpec(0.05)} {
			arts := captureArtifactsOn(t, c, Options{Seed: 3, Faults: spec})
			dev := arts[StageFabricate].(*xmon.Device)
			for _, name := range []string{StageCharacterizeXY, StageCharacterizeZZ} {
				label := c.Topology + "/" + name
				if spec.Enabled() {
					label += "/faults"
				}
				ch := arts[name].(*characterization)
				data, err := codec.Encode(ch)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				w, err := cas.Open(dir, cas.Config{})
				if err != nil {
					t.Fatal(err)
				}
				w.Put(name, key, data)
				r, err := cas.Open(dir, cas.Config{})
				if err != nil {
					t.Fatal(err)
				}
				payload, ok := r.Get(name, key)
				if !ok {
					t.Fatalf("%s: the written artifact misses", label)
				}
				v, err := codec.Decode(payload)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got := v.(*characterization)
				if got.Stats != ch.Stats || got.Model.Weights != ch.Model.Weights || got.Model.CVError != ch.Model.CVError {
					t.Errorf("%s: decoded %+v, %+v, want %+v, %+v", label, got.Stats, got.Model.Weights, ch.Stats, ch.Model.Weights)
				}
				sameReads(t, label, got.Pred, ch.Model.On(dev.Chip), dev.Chip.NumQubits())
			}
		}
	}
}

// writeVersion1 rewrites the artifact file at path in the format the
// warm tier wrote before the characterization payload carried its pair
// table: a version-1 header (see internal/stage/cas/header.go) over the
// payload of that format, the chip, then the model and the campaign
// stats.
func writeVersion1(t *testing.T, path string, c *chip.Chip) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 10 // magic, CRC, version
	for range 2 {
		off += 2 + int(binary.LittleEndian.Uint16(data[off:]))
	}
	v, err := StageCodecs()[StageCharacterizeXY].Decode(data[off+8:])
	if err != nil {
		t.Fatal(err)
	}
	ch := v.(*characterization)
	var e binpack.Enc
	c.AppendBinary(&e)
	ch.Model.AppendBinary(&e)
	s := ch.Stats
	for _, x := range []int{s.Pairs, s.SkippedDead, s.Dropouts, s.Retried, s.LostPairs, s.Outliers} {
		e.Int(x)
	}
	old := append(slices.Clone(data[:off]), binary.LittleEndian.AppendUint64(nil, uint64(len(e.Bytes())))...)
	old = append(old, e.Bytes()...)
	binary.LittleEndian.PutUint16(old[8:10], 1)
	binary.LittleEndian.PutUint32(old[4:8], crc32.Checksum(old[8:], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCharacterizationVersion1FileMisses: a characterization file
// written in the version-1 format is a miss, not a decode. A restarted
// cache drops it, re-executes the stage and writes it back in the
// current format, and the design is the one the first process made.
func TestCharacterizationVersion1FileMisses(t *testing.T) {
	ctx := context.Background()
	opts := persistOpts()
	dir := t.TempDir()
	open := func() *DesignCache {
		dc, err := OpenDesignCache(dir, stage.Config{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return dc
	}
	first, err := open().Designer(chip.Square(4, 4)).RedesignCtx(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rewritten int
	for _, name := range []string{StageCharacterizeXY, StageCharacterizeZZ} {
		err := filepath.WalkDir(filepath.Join(dir, "v1", name), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				writeVersion1(t, path, first.Device.Chip)
				rewritten++
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if rewritten != 2 {
		t.Fatalf("rewrote %d characterization files, want 2", rewritten)
	}

	dc := open()
	again, err := dc.Designer(chip.Square(4, 4)).RedesignCtx(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range dc.Report().Stages {
		wantMisses := 0
		if st.Name == StageCharacterizeXY || st.Name == StageCharacterizeZZ {
			wantMisses = 1
		}
		if st.Misses != wantMisses || st.DiskHits != 1-wantMisses {
			t.Errorf("stage %s: %d executions, %d disk hits; want %d, %d", st.Name, st.Misses, st.DiskHits, wantMisses, 1-wantMisses)
		}
	}
	if bs := dc.Store().BackendStats(); bs.CorruptDropped != 2 {
		t.Errorf("dropped %d files, want the 2 version-1 files", bs.CorruptDropped)
	}
	if dc.Store().DecodeErrors() != 0 {
		t.Errorf("%d version-1 payloads reached a decoder", dc.Store().DecodeErrors())
	}
	if got, want := designFingerprint(again), designFingerprint(first); got != want || again.Calib != first.Calib {
		t.Errorf("design after re-executing characterization differs:\n%s\nwant\n%s", got, want)
	}

	// The re-execution wrote the current format back.
	third := open()
	if _, err := third.Designer(chip.Square(4, 4)).RedesignCtx(ctx, opts); err != nil {
		t.Fatal(err)
	}
	if rep := third.Report(); rep.Misses != 0 {
		t.Errorf("a third process re-executed %d stages", rep.Misses)
	}
}

// FuzzCharacterizationCodec checks the characterization decoder on
// arbitrary bytes: it never panics, an accepted payload re-encodes to
// exactly its bytes, and every reader of an accepted predictor answers
// on every pair without panicking.
func FuzzCharacterizationCodec(f *testing.F) {
	codec := StageCodecs()[StageCharacterizeXY]
	arts := captureArtifactsOn(f, chip.Square(3, 3), Options{Seed: 1})
	for _, name := range []string{StageCharacterizeXY, StageCharacterizeZZ} {
		data, err := codec.Encode(arts[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := codec.Decode(b)
		if err != nil {
			return
		}
		re, err := codec.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encoding changed the payload:\n got %x\nwant %x", re, b)
		}
		p := v.(*characterization).Pred
		n := len(p.Matrix())
		pairs := p.Pairs()
		p.Above(0)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p.EquivDistance(i, j)
				p.Predict(i, j)
				pairs(i, j)
			}
		}
	})
}
