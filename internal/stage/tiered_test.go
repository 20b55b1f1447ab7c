package stage

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// memBackend is an in-memory stage.Backend for tiered-store tests: the
// disk semantics (shared across stores, byte blobs in, byte blobs out)
// without the filesystem. It copies on Put and Get, as the buffer
// contract requires.
type memBackend struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets atomic.Int64
	puts atomic.Int64
}

func newMemBackend() *memBackend { return &memBackend{m: make(map[string][]byte)} }

func (b *memBackend) Get(name string, key Key, dst []byte) ([]byte, bool) {
	b.gets.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[name+"/"+string(key)]
	return append(dst, v...), ok
}

func (b *memBackend) Put(name string, key Key, data []byte) {
	b.puts.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[name+"/"+string(key)] = append([]byte(nil), data...)
}

func (b *memBackend) Has(name string, key Key) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[name+"/"+string(key)]
	return ok
}

func (b *memBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, v := range b.m {
		n += int64(len(v))
	}
	return BackendStats{Entries: len(b.m), Bytes: n}
}

// stringCodec persists string artifacts verbatim.
var stringCodec = Codec{
	Encode: func(dst []byte, v any) ([]byte, error) {
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("not a string: %T", v)
		}
		return append(dst, s...), nil
	},
	Decode: func(data []byte, _ []any) (any, error) { return string(data), nil },
}

func tieredStore(b Backend) *Store {
	return NewStoreWith(Config{Backend: b})
}

func TestTieredWriteThroughAndCrossStoreRecall(t *testing.T) {
	ctx := context.Background()
	backend := newMemBackend()
	key := NewKey("tiered").Int(1).Done()

	a := tieredStore(backend)
	v, cached, err := a.Do(ctx, "work", key, 1, stringCodec, nil, func(context.Context) (any, error) { return "artifact", nil })
	if err != nil || cached || v != "artifact" {
		t.Fatalf("first Do: %v, %v, %v", v, cached, err)
	}
	if backend.puts.Load() != 1 {
		t.Fatalf("write-through puts = %d, want 1", backend.puts.Load())
	}

	// A second store over the same backend — a fresh process — recalls
	// from disk without executing.
	b := tieredStore(backend)
	v, cached, err = b.Do(ctx, "work", key, 1, stringCodec, nil, func(context.Context) (any, error) {
		t.Error("stage executed despite warm backend")
		return nil, errors.New("unreachable")
	})
	if err != nil || !cached || v != "artifact" {
		t.Fatalf("disk-warm Do: %v, %v, %v", v, cached, err)
	}
	st := b.Stats()[0]
	if st.DiskHits != 1 || st.Misses != 0 || st.Hits != 0 || st.Runs != 1 {
		t.Fatalf("disk-warm stats: %+v", st)
	}
	if b.DiskHits() != 1 || b.DiskMisses() != 0 {
		t.Fatalf("store counters: %d disk hits, %d disk misses", b.DiskHits(), b.DiskMisses())
	}
	// A disk hit is charged its payload plus its key, as the write was.
	if got, want := b.Bytes(), int64(len("artifact")+len(key)); got != want || a.Bytes() != want {
		t.Fatalf("charges: recall %d, write %d, want %d", got, a.Bytes(), want)
	}
	// A decoded artifact installs in the memory tier: the next call is
	// a plain memory hit, not a second disk read.
	reads := backend.gets.Load()
	if _, cached, _ := b.Do(ctx, "work", key, 1, stringCodec, nil, nil); !cached {
		t.Fatal("memory tier missed after disk recall")
	}
	if backend.gets.Load() != reads {
		t.Error("memory hit went back to the backend")
	}
	if st := b.Stats()[0]; st.Hits != 1 {
		t.Fatalf("post-recall stats: %+v", st)
	}
}

func TestTieredDiskMissExecutes(t *testing.T) {
	backend := newMemBackend()
	s := tieredStore(backend)
	ran := false
	_, cached, err := s.Do(context.Background(), "work", NewKey("t").Int(2).Done(), 1, stringCodec, nil,
		func(context.Context) (any, error) { ran = true; return "v", nil })
	if err != nil || cached || !ran {
		t.Fatalf("cold Do: cached=%v ran=%v err=%v", cached, ran, err)
	}
	if s.DiskMisses() != 1 {
		t.Fatalf("DiskMisses = %d, want 1", s.DiskMisses())
	}
	if st := s.Stats()[0]; st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("cold stats: %+v", st)
	}
}

func TestTieredDecodeErrorIsMissAndRepairs(t *testing.T) {
	ctx := context.Background()
	backend := newMemBackend()
	key := NewKey("t").Int(3).Done()
	failing := Codec{
		Encode: stringCodec.Encode,
		Decode: func([]byte, []any) (any, error) { return nil, errors.New("corrupt") },
	}
	backend.Put("work", key, []byte("stored"))

	s := NewStoreWith(Config{Backend: backend})
	v, cached, err := s.Do(ctx, "work", key, 1, failing, nil, func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || cached || v != "fresh" {
		t.Fatalf("decode-failure Do: %v, %v, %v", v, cached, err)
	}
	if s.DecodeErrors() != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", s.DecodeErrors())
	}
	// The successful execution wrote through, repairing the entry for
	// stores whose codec can read it.
	if data, ok := backend.Get("work", key, nil); !ok || string(data) != "fresh" {
		t.Fatalf("write-through did not repair: %q, %v", data, ok)
	}
}

func TestStageWithoutCodecStaysMemoryOnly(t *testing.T) {
	backend := newMemBackend()
	s := tieredStore(backend)
	runs := 0
	do := func(st *Store) {
		_, _, err := st.Do(context.Background(), "uncodec", NewKey("t").Int(4).Done(), 1, Codec{}, nil,
			func(context.Context) (any, error) { runs++; return "v", nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	do(s)
	if backend.puts.Load() != 0 {
		t.Fatal("codec-less stage wrote to the backend")
	}
	// A fresh store re-executes: nothing persisted.
	do(tieredStore(backend))
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
}

func TestEncodeErrorSkipsWriteButServes(t *testing.T) {
	backend := newMemBackend()
	s := NewStoreWith(Config{Backend: backend})
	unencodable := Codec{
		Encode: func([]byte, any) ([]byte, error) { return nil, errors.New("unencodable") },
		Decode: stringCodec.Decode,
	}
	v, _, err := s.Do(context.Background(), "work", NewKey("t").Int(5).Done(), 1, unencodable, nil,
		func(context.Context) (any, error) { return "v", nil })
	if err != nil || v != "v" {
		t.Fatalf("Do with failing encoder: %v, %v", v, err)
	}
	if backend.puts.Load() != 0 {
		t.Fatal("failed encoding still wrote to the backend")
	}
	if s.DecodeErrors() != 1 {
		t.Fatalf("DecodeErrors = %d, want 1 (encode failures share the counter)", s.DecodeErrors())
	}
}

// Disk hits bypass the exec wrapper: chaos injection wraps executions,
// and a warm-tier recall is not an execution.
func TestDiskHitBypassesExecWrapper(t *testing.T) {
	ctx := context.Background()
	backend := newMemBackend()
	key := NewKey("t").Int(6).Done()
	a := tieredStore(backend)
	if _, _, err := a.Do(ctx, "work", key, 1, stringCodec, nil, func(context.Context) (any, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}

	b := tieredStore(backend)
	b.Wrap(func(name string, key Key, fn func(context.Context) (any, error)) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return nil, errors.New("chaos: every execution fails") }
	})
	v, cached, err := b.Do(ctx, "work", key, 1, stringCodec, nil, func(context.Context) (any, error) { return "v", nil })
	if err != nil || !cached || v != "v" {
		t.Fatalf("disk hit went through the wrapper: %v, %v, %v", v, cached, err)
	}
}

// Concurrent callers for one key coalesce onto a single disk read, the
// same way they coalesce onto a single execution.
func TestConcurrentCallersCoalesceOneDiskRead(t *testing.T) {
	ctx := context.Background()
	backend := newMemBackend()
	key := NewKey("t").Int(7).Done()
	tieredStore(backend).Do(ctx, "work", key, 1, stringCodec, nil, func(context.Context) (any, error) { return "v", nil })
	reads := backend.gets.Load()

	s := tieredStore(backend)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.Do(ctx, "work", key, 1, stringCodec, nil, func(context.Context) (any, error) {
				return nil, errors.New("must not execute")
			})
			if err != nil || v != "v" {
				t.Errorf("concurrent Do: %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if got := backend.gets.Load() - reads; got != 1 {
		t.Fatalf("backend reads = %d, want 1 (coalesced)", got)
	}
	st := s.Stats()[0]
	if st.DiskHits != 1 || st.Runs != n || st.Misses != 0 {
		t.Fatalf("coalesced stats: %+v", st)
	}
}

func TestReportCountsDiskHits(t *testing.T) {
	ctx := context.Background()
	backend := newMemBackend()
	key := NewKey("t").Int(8).Done()
	tieredStore(backend).Do(ctx, "work", key, 1, stringCodec, nil, func(context.Context) (any, error) { return "v", nil })

	s := tieredStore(backend)
	before := s.Report()
	s.Do(ctx, "work", key, 1, stringCodec, nil, nil)
	rep := s.Report()
	if rep.DiskHits != 1 {
		t.Fatalf("report DiskHits = %d, want 1", rep.DiskHits)
	}
	delta := rep.Sub(before)
	if delta.DiskHits != 1 || delta.Stages[0].DiskHits != 1 {
		t.Fatalf("report delta: %+v", delta)
	}
	if txt := rep.Text(); !strings.Contains(txt, "disk") || !strings.Contains(txt, "1 disk hits") {
		t.Fatalf("text report lacks the disk column:\n%s", txt)
	}
}

func TestBackendStatsAccessors(t *testing.T) {
	backend := newMemBackend()
	s := tieredStore(backend)
	if s.Backend() != Backend(backend) {
		t.Fatal("Backend() accessor lost the backend")
	}
	s.Do(context.Background(), "work", NewKey("t").Int(9).Done(), 1, stringCodec, nil,
		func(context.Context) (any, error) { return "v", nil })
	if bs := s.BackendStats(); bs.Entries != 1 || bs.Bytes == 0 {
		t.Fatalf("BackendStats: %+v", bs)
	}
	// A memory-only store reports zero backend stats, not a panic.
	if bs := NewStore().BackendStats(); bs != (BackendStats{}) {
		t.Fatalf("memory-only BackendStats: %+v", bs)
	}
}

func TestCodecRoundTripHarness(t *testing.T) {
	v, err := stringCodec.RoundTrip("hello", nil)
	if err != nil || v != "hello" {
		t.Fatalf("RoundTrip: %v, %v", v, err)
	}
	calls := 0
	unstable := Codec{
		Encode: func(dst []byte, v any) ([]byte, error) { calls++; return fmt.Appendf(dst, "call-%d", calls), nil },
		Decode: func(data []byte, _ []any) (any, error) { return string(data), nil },
	}
	if _, err := unstable.RoundTrip("x", nil); err == nil {
		t.Fatal("unstable encoding passed RoundTrip")
	}
	// A decoder that keeps its input reads the overwritten copy back.
	retaining := Codec{
		Encode: func(dst []byte, v any) ([]byte, error) { return append(dst, v.([]byte)...), nil },
		Decode: func(data []byte, _ []any) (any, error) { return data, nil },
	}
	if _, err := retaining.RoundTrip([]byte("kept"), nil); err == nil {
		t.Fatal("a decoder retaining its input passed RoundTrip")
	}
	// An encoder that ignores its destination is not append-form.
	overwriting := Codec{
		Encode: func(_ []byte, v any) ([]byte, error) { return []byte(v.(string)), nil },
		Decode: stringCodec.Decode,
	}
	if _, err := overwriting.RoundTrip("a longer artifact", nil); err == nil {
		t.Fatal("an encoder overwriting its destination passed RoundTrip")
	}
}

// unreadGraph is src -> aside -> use, with use also reading src: the
// result reads src and use, not aside, which runs counts executions.
func unreadGraph(runs map[string]int) *Graph[int] {
	node := func(name string, inputs ...string) Node[int] {
		return Node[int]{Name: name, Inputs: inputs, Codec: stringCodec,
			Run: func(_ context.Context, _ int, in []any) (any, error) {
				runs[name]++
				v := name
				for _, j := range inputs {
					v += "+" + in[map[string]int{"src": 0, "aside": 1}[j]].(string)
				}
				return v, nil
			}}
	}
	aside := node("aside", "src")
	aside.Unread = func(int) bool { return true }
	return MustGraph(node("src"), aside, node("use", "src", "aside"))
}

// TestRunPlansFromKeys: a build loads a node its result does not read
// only when a consumer executes or the memory tier holds it. A fresh
// store over a warm backend leaves it on disk, uncounted; Get recalls
// it once; and a later build, which finds it in memory, takes it
// through the store and counts it as before.
func TestRunPlansFromKeys(t *testing.T) {
	ctx := context.Background()
	runs := map[string]int{}
	g := unreadGraph(runs)
	backend := newMemBackend()
	cold, err := g.Run(ctx, tieredStore(backend), nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{"src", "aside+src", "use+src+aside+src"}
	if !reflect.DeepEqual(cold.In(), want) || runs["aside"] != 1 {
		t.Fatalf("cold build = %v with %v executions, want %v and aside run once", cold.In(), runs, want)
	}

	s := tieredStore(backend)
	warm, err := g.Run(ctx, s, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.In(); got[0] != want[0] || got[1] != nil || got[2] != want[2] {
		t.Fatalf("disk-warm build = %v, want aside unloaded", got)
	}
	if _, ok := s.StatsFor("aside"); ok {
		t.Error("the unloaded node was counted")
	}
	for range 2 {
		if v, err := warm.Get(1); err != nil || v != want[1] {
			t.Fatalf("Get = %v, %v, want %v", v, err, want[1])
		}
	}
	if st, _ := s.StatsFor("aside"); st.Runs != 1 || st.DiskHits != 1 || runs["aside"] != 1 {
		t.Errorf("two Gets: %+v, %d executions, want one disk hit", st, runs["aside"])
	}

	again, err := g.Run(ctx, s, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.StatsFor("aside"); !reflect.DeepEqual(again.In(), want) || st.Runs != 2 || st.Hits != 1 {
		t.Errorf("memory-warm build = %v, aside %+v: want it loaded and counted as a hit", again.In(), st)
	}
}

// TestRunStalePlanLoadsInputsOnDemand: the plan finds use in the warm
// tier, but the entry is gone by the time the build reads it, so use
// executes, loading the input the plan left unloaded first.
func TestRunStalePlanLoadsInputsOnDemand(t *testing.T) {
	ctx := context.Background()
	runs := map[string]int{}
	g := unreadGraph(runs)
	backend := newMemBackend()
	if _, err := g.Run(ctx, tieredStore(backend), nil, 0, 2); err != nil {
		t.Fatal(err)
	}
	// A backend whose index still lists use, but whose Get misses it.
	stale := &staleBackend{memBackend: backend, gone: "use"}
	s := tieredStore(stale)
	run, err := g.Run(ctx, s, nil, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := run.In()[2]; got != "use+src+aside+src" || runs["use"] != 2 || runs["aside"] != 1 {
		t.Fatalf("use = %v after %v executions, want it re-executed on the recalled aside", got, runs)
	}
	if st, _ := s.StatsFor("aside"); st.Runs != 1 || st.DiskHits != 1 {
		t.Errorf("aside %+v, want one disk hit", st)
	}
	if v, err := run.Get(1); err != nil || v != "aside+src" {
		t.Errorf("Get after the on-demand load = %v, %v", v, err)
	}
}

// staleBackend is a memBackend whose Get misses the stage gone, as if
// its file vanished behind the index.
type staleBackend struct {
	*memBackend
	gone string
}

func (b *staleBackend) Get(name string, key Key, dst []byte) ([]byte, bool) {
	if name == b.gone {
		return dst, false
	}
	return b.memBackend.Get(name, key, dst)
}
