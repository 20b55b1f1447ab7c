package stage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// keyN returns a distinct, well-formed artifact key.
func keyN(i int) Key {
	return NewKey("bound-test").Int(i).Done()
}

// payload is a recognizable artifact with a predictable charge.
func payload(n int) []byte {
	return make([]byte, n)
}

// bytesCodec persists byte-slice artifacts verbatim.
var bytesCodec = Codec{
	Encode: func(dst []byte, v any) ([]byte, error) {
		b, ok := v.([]byte)
		if !ok {
			return nil, fmt.Errorf("not bytes: %T", v)
		}
		return append(dst, b...), nil
	},
	Decode: func(data []byte, _ []any) (any, error) { return bytes.Clone(data), nil },
}

// charge is what a bounded store charges payload(n) under a keyN key:
// the encoding's length plus the key's.
func charge(n int) int64 {
	return int64(n + len(keyN(0)))
}

// TestBoundedStoreEvictsLRU fills a bounded store past its budget and
// checks the byte accounting stays at/under the cap, the oldest
// artifacts are the ones forgotten, and the eviction counter matches.
func TestBoundedStoreEvictsLRU(t *testing.T) {
	// One shard so the LRU order is global and the test deterministic.
	per := charge(128)
	s := NewStoreWith(Config{MaxBytes: 4*per + per/2, Shards: 1})
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		_, _, err := s.Do(ctx, "produce", keyN(i), 1, bytesCodec, nil, func(context.Context) (any, error) {
			return payload(128), nil
		})
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
	}
	if got, cap := s.Bytes(), s.MaxBytes(); got > cap {
		t.Fatalf("Bytes() = %d exceeds cap %d", got, cap)
	}
	if s.Evictions() == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
	if int64(s.Len())+s.Evictions() != 10 {
		t.Fatalf("Len() %d + Evictions() %d != 10 inserts", s.Len(), s.Evictions())
	}
	// Each resident artifact is charged its encoding plus its key.
	if got, want := s.Bytes(), int64(s.Len())*per; got != want {
		t.Fatalf("Bytes() = %d, want %d for %d artifacts", got, want, s.Len())
	}
	// The most recent artifact must still be cached, the very first gone.
	if _, ok := s.Get(keyN(9)); !ok {
		t.Fatal("most recently inserted artifact was evicted")
	}
	if _, ok := s.Get(keyN(0)); ok {
		t.Fatal("least recently used artifact survived past the budget")
	}
}

// TestBoundedStoreTouchPromotes re-reads an old artifact before
// overflowing the budget: the touched artifact must survive eviction
// while untouched peers of the same age are dropped.
func TestBoundedStoreTouchPromotes(t *testing.T) {
	per := charge(128)
	s := NewStoreWith(Config{MaxBytes: 3 * per, Shards: 1})
	ctx := context.Background()
	mk := func(i int) {
		t.Helper()
		if _, _, err := s.Do(ctx, "produce", keyN(i), 1, bytesCodec, nil, func(context.Context) (any, error) {
			return payload(128), nil
		}); err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
	}
	mk(0)
	mk(1)
	mk(2)
	if _, ok := s.Get(keyN(0)); !ok { // touch 0: LRU order is now 1, 2, 0
		t.Fatal("artifact 0 missing before overflow")
	}
	mk(3) // evicts 1 (now the LRU tail)
	if _, ok := s.Get(keyN(0)); !ok {
		t.Fatal("recently touched artifact was evicted")
	}
	if _, ok := s.Get(keyN(1)); ok {
		t.Fatal("LRU artifact survived; touch did not reorder")
	}
}

// TestBoundedStoreOversizedArtifact: an artifact bigger than the whole
// budget is still returned to its caller (and its waiters) but is not
// retained.
func TestBoundedStoreOversizedArtifact(t *testing.T) {
	s := NewStoreWith(Config{MaxBytes: 256, Shards: 1})
	ctx := context.Background()
	v, hit, err := s.Do(ctx, "produce", keyN(0), 1, bytesCodec, nil, func(context.Context) (any, error) {
		return payload(4096), nil
	})
	if err != nil || hit {
		t.Fatalf("Do = hit %v err %v", hit, err)
	}
	if len(v.([]byte)) != 4096 {
		t.Fatalf("artifact truncated: %d elements", len(v.([]byte)))
	}
	if _, ok := s.Get(keyN(0)); ok {
		t.Fatal("oversized artifact was cached past the budget")
	}
	if s.Bytes() != 0 {
		t.Fatalf("Bytes() = %d after evicting the only artifact", s.Bytes())
	}
}

// TestBoundedStoreObsCounters counts a bounded store into the registry
// its calls' context carries and checks the eviction counter and occupancy gauges are published.
func TestBoundedStoreObsCounters(t *testing.T) {
	per := charge(128)
	s := NewStoreWith(Config{MaxBytes: 2 * per, Shards: 1})
	reg := obs.New()
	ctx := obs.NewContext(context.Background(), reg)
	for i := 0; i < 5; i++ {
		if _, _, err := s.Do(ctx, "produce", keyN(i), 1, bytesCodec, nil, func(context.Context) (any, error) {
			return payload(128), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Observe(reg) // publishes the occupancy gauges, as a build's end does
	snap := reg.Snapshot()
	if snap.Counters["stage/evictions"] != s.Evictions() || s.Evictions() == 0 {
		t.Fatalf("stage/evictions = %d, store says %d", snap.Counters["stage/evictions"], s.Evictions())
	}
	if snap.Gauges["stage/cache_bytes"] != s.Bytes() {
		t.Fatalf("stage/cache_bytes gauge %d != Bytes() %d", snap.Gauges["stage/cache_bytes"], s.Bytes())
	}
	if snap.Gauges["stage/cache_entries"] != int64(s.Len()) {
		t.Fatalf("stage/cache_entries gauge %d != Len() %d", snap.Gauges["stage/cache_entries"], s.Len())
	}
}

// TestBoundedStoreConcurrentCap hammers a small bounded store from many
// goroutines over a rotating key set and asserts the cap holds at every
// quiescent point and all values round-trip correctly. Run under -race
// this also exercises the sharded locking.
func TestBoundedStoreConcurrentCap(t *testing.T) {
	per := charge(64)
	s := NewStoreWith(Config{MaxBytes: 8 * per, Shards: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyN(i % 32)
				v, _, err := s.Do(ctx, "produce", k, 1, bytesCodec, nil, func(context.Context) (any, error) {
					return payload(64), nil
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(v.([]byte)) != 64 {
					t.Errorf("goroutine %d: wrong artifact", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Per-shard budgets mean the global total can transiently exceed
	// nothing: after quiescence every shard is at/under its share.
	if s.Bytes() > s.MaxBytes() {
		t.Fatalf("Bytes() = %d exceeds cap %d after drain", s.Bytes(), s.MaxBytes())
	}
}

// waitForWaiters blocks until the stage/singleflight_waits counter
// reaches want. The counter increments after a waiter has captured the
// in-flight entry (and before it blocks on the ready channel), so once
// it reads `want` every waiter is guaranteed to observe that flight's
// outcome no matter how the scheduler interleaves the cleanup.
func waitForWaiters(t *testing.T, reg *obs.Registry, want int64) {
	t.Helper()
	c := reg.Counter("stage/singleflight_waits")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Load() >= want {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("singleflight_waits stuck at %d, want %d", c.Load(), want)
}

// TestStorePanicReachesAllWaiters: a panicking execution must resolve
// into a *PanicError for the executor and every concurrent waiter —
// nobody blocks forever — and the key must stay uncached so a retry
// can succeed.
func TestStorePanicReachesAllWaiters(t *testing.T) {
	s := NewStore()
	reg := obs.New()
	ctx := obs.NewContext(context.Background(), reg)
	k := keyN(0)

	release := make(chan struct{})
	started := make(chan struct{})
	var execs atomic.Int32

	const waiters = 8
	errs := make(chan error, waiters+1)
	go func() {
		_, _, err := s.Do(ctx, "boom", k, 1, bytesCodec, nil, func(context.Context) (any, error) {
			execs.Add(1)
			close(started)
			<-release
			panic("chaos")
		})
		errs <- err
	}()
	<-started
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Do(ctx, "boom", k, 1, bytesCodec, nil, func(context.Context) (any, error) {
				execs.Add(1)
				return nil, nil
			})
			errs <- err
		}()
	}
	waitForWaiters(t, reg, waiters)
	close(release)
	wg.Wait()

	for i := 0; i < waiters+1; i++ {
		err := <-errs
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: err = %v, want PanicError", i, err)
		}
		if pe.Stage != "boom" || pe.Value != "chaos" {
			t.Fatalf("PanicError = %+v", pe)
		}
	}
	if snap := reg.Snapshot(); snap.Counters["stage/panics"] != 1 {
		t.Fatalf("stage/panics = %d, want 1", snap.Counters["stage/panics"])
	}

	// The failure is not cached: a retry executes and succeeds.
	v, hit, err := s.Do(ctx, "boom", k, 1, bytesCodec, nil, func(context.Context) (any, error) {
		execs.Add(1)
		return "recovered", nil
	})
	if err != nil || hit || v != "recovered" {
		t.Fatalf("retry after panic: v=%v hit=%v err=%v", v, hit, err)
	}
}

// TestStoreFailurePropagatesToAllWaiters is the single-flight failure
// contract, concurrently: one executor fails while N waiters are
// blocked on the same key. Every waiter must receive exactly the
// executor's error, the stage must have executed exactly once, no
// waiter is charged a hit or a miss, and the key is never cached — the
// immediate retry re-executes.
func TestStoreFailurePropagatesToAllWaiters(t *testing.T) {
	s := NewStore()
	reg := obs.New()
	ctx := obs.NewContext(context.Background(), reg)
	k := keyN(1)
	sentinel := errors.New("transient stage failure")

	release := make(chan struct{})
	started := make(chan struct{})
	var execs atomic.Int32

	const waiters = 16
	errs := make(chan error, waiters+1)
	go func() {
		_, _, err := s.Do(ctx, "flaky", k, 1, bytesCodec, nil, func(context.Context) (any, error) {
			execs.Add(1)
			close(started)
			<-release // hold the flight open until every waiter joined
			return nil, fmt.Errorf("wrapped: %w", sentinel)
		})
		errs <- err
	}()
	<-started

	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := s.Do(ctx, "flaky", k, 1, bytesCodec, nil, func(context.Context) (any, error) {
				execs.Add(1)
				return nil, errors.New("waiter executed — single flight broken")
			})
			if hit {
				t.Error("failed flight reported as cache hit")
			}
			errs <- err
		}()
	}
	waitForWaiters(t, reg, waiters)
	close(release)
	wg.Wait()

	gotSentinel := 0
	for i := 0; i < waiters+1; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("a caller saw success from a failed execution")
		}
		if errors.Is(err, sentinel) {
			gotSentinel++
		}
	}
	// Every waiter joined the flight before it resolved (the
	// singleflight_waits barrier above guarantees it), so every caller
	// must report exactly the executor's error.
	if gotSentinel != waiters+1 {
		t.Fatalf("%d of %d callers saw the executor's error", gotSentinel, waiters+1)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("stage executed %d times during the failed flight, want 1", n)
	}

	// The error was never cached: stats show no hits/misses, and a
	// retry executes afresh.
	if st, _ := s.StatsFor("flaky"); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("failed flight charged hits=%d misses=%d", st.Hits, st.Misses)
	}
	snap := reg.Snapshot()
	if snap.Counters["stage/errors"] != 1 {
		t.Fatalf("stage/errors = %d, want 1", snap.Counters["stage/errors"])
	}
	if snap.Counters["stage/hits"] != 0 || snap.Counters["stage/misses"] != 0 {
		t.Fatalf("failed flight leaked hits/misses counters: %+v", snap.Counters)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("failed artifact present in cache")
	}
	v, hit, err := s.Do(ctx, "flaky", k, 1, bytesCodec, nil, func(context.Context) (any, error) {
		execs.Add(1)
		return 42, nil
	})
	if err != nil || hit || v != 42 {
		t.Fatalf("retry after failure: v=%v hit=%v err=%v", v, hit, err)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("retry did not re-execute (execs = %d)", n)
	}
}

// TestUnboundedStoreNeverEvicts: the historical default keeps
// everything.
func TestUnboundedStoreNeverEvicts(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, _, err := s.Do(ctx, "produce", keyN(i), 1, bytesCodec, nil, func(context.Context) (any, error) {
			return payload(256), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 100 || s.Evictions() != 0 {
		t.Fatalf("unbounded store: Len=%d Evictions=%d", s.Len(), s.Evictions())
	}
	if s.MaxBytes() != 0 {
		t.Fatalf("unbounded store reports cap %d", s.MaxBytes())
	}
}

// TestStoreWrapIntercepts: an installed ExecWrapper sees (name, key)
// and can replace the execution; removing it restores the original.
func TestStoreWrapIntercepts(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	var sawName string
	var sawKey Key
	s.Wrap(func(name string, key Key, fn func(context.Context) (any, error)) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			sawName, sawKey = name, key
			return nil, errors.New("injected")
		}
	})
	_, _, err := s.Do(ctx, "wrapped", keyN(7), 1, bytesCodec, nil, func(context.Context) (any, error) {
		return "real", nil
	})
	if err == nil || err.Error() != "injected" {
		t.Fatalf("wrapper not applied: err=%v", err)
	}
	if sawName != "wrapped" || sawKey != keyN(7) {
		t.Fatalf("wrapper saw (%q, %q)", sawName, sawKey)
	}
	s.Wrap(nil)
	v, _, err := s.Do(ctx, "wrapped", keyN(7), 1, bytesCodec, nil, func(context.Context) (any, error) {
		return "real", nil
	})
	if err != nil || v != "real" {
		t.Fatalf("after unwrap: v=%v err=%v", v, err)
	}
}
