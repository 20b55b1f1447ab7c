package stage

import (
	"context"
	"fmt"
	"hash/maphash"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stats is the accumulated instrumentation of one stage across a
// Store's lifetime.
type Stats struct {
	// Name is the stage name.
	Name string `json:"name"`
	// Runs counts Do invocations (hits + disk hits + misses + waited
	// duplicates).
	Runs int `json:"runs"`
	// Hits counts invocations served from the artifact cache.
	Hits int `json:"hits"`
	// Misses counts invocations that executed the stage.
	Misses int `json:"misses"`
	// DiskHits counts invocations served by decoding a warm-tier
	// (Backend) artifact instead of executing the stage.
	DiskHits int `json:"disk_hits"`
	// Wall is the cumulative wall time of executed (missed) runs.
	Wall time.Duration `json:"wall_ns"`
	// Workers is the worker budget of the most recent executed run.
	Workers int `json:"workers"`
}

// PanicError is the error the Store hands every waiter when a stage
// function panics. The panic is contained at the execution site so the
// single-flight entry always resolves — without this, one panicking
// executor would leave every concurrent waiter blocked on a ready
// channel that never closes and the artifact permanently "in flight".
// The panicking execution is treated exactly like a failed one: nothing
// is cached and a later Do with the same key retries.
type PanicError struct {
	// Stage is the name of the stage whose function panicked.
	Stage string
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("stage: %s panicked: %v", e.Stage, e.Value)
}

// ExecWrapper intercepts stage executions: the Store passes it the
// stage name, artifact key and the function about to run, and executes
// whatever it returns instead. It exists for fault injection — a chaos
// harness wraps executions to make them slow, failing or panicking —
// and must be deterministic in (name, key) if the surrounding test
// wants reproducible failures. A nil wrapper (the default) is a no-op.
type ExecWrapper func(name string, key Key, fn func(context.Context) (any, error)) func(context.Context) (any, error)

// Config bounds a Store. The zero value reproduces the historical
// unbounded behavior.
type Config struct {
	// MaxBytes caps the estimated memory footprint of cached artifacts.
	// When an insertion pushes a shard over its share of the budget the
	// least-recently-used completed artifacts are evicted until it fits
	// (an artifact larger than the budget is evicted immediately after
	// being handed to its waiters). 0 disables eviction.
	MaxBytes int64
	// Shards spreads keys over independently locked cache shards so
	// concurrent requests do not serialize on one mutex. Each shard
	// owns MaxBytes/Shards of the budget. 0 selects a default of 8;
	// sharding never affects artifact values, only lock granularity.
	Shards int
	// SizeOf estimates an artifact's memory footprint for accounting.
	// Nil selects EstimateSize.
	SizeOf func(any) int64
	// Backend is the optional warm tier (typically internal/stage/cas):
	// memory misses probe it before executing, and successful
	// executions of codec-equipped stages write through to it. Nil
	// keeps the store memory-only (the historical behavior).
	Backend Backend
	// Codecs maps stage names to their artifact codecs. Only stages
	// with a codec participate in the warm tier; others are memory-only
	// regardless of Backend. Ignored when Backend is nil.
	Codecs map[string]Codec
}

// entry is one memoized artifact. ready is closed once val/err are
// final, so concurrent requests for the same key wait for the first
// executor instead of duplicating work (single-flight). Completed
// entries are linked into their shard's LRU list; in-flight entries are
// not and therefore can never be evicted.
type entry struct {
	key   Key
	ready chan struct{}
	val   any
	err   error

	size       int64
	prev, next *entry // shard LRU links, valid only while cached
	cached     bool
}

// shard is one lock domain of the store: a key-partitioned slice of the
// entry map plus its LRU list (head = most recently used) and byte
// accounting.
type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	head    *entry
	tail    *entry
	bytes   int64
}

// Store memoizes stage artifacts by Key and accumulates per-stage
// Stats. It is safe for concurrent use; concurrent Do calls with the
// same key execute the stage once. Failed (or panicking) executions are
// not cached — a later Do with the same key retries.
//
// A Store built by NewStoreWith with a positive MaxBytes is bounded:
// artifacts are accounted by estimated size and evicted LRU-first, so
// a long-running process (the youtiao-serve server in particular) can
// share one store across every request without growing without bound.
// Eviction only forgets an artifact — values already handed out remain
// valid, and a later Do re-executes the stage.
//
// Artifacts handed out by the store are shared across every pipeline
// assembled from it, so the pipeline-side contract is that stage
// outputs are immutable once returned (downstream stages build new
// values instead of editing their inputs).
type Store struct {
	shards      []*shard
	seed        maphash.Seed
	maxPerShard int64
	sizeOf      func(any) int64

	statsMu sync.Mutex
	stats   map[string]*Stats
	order   []string // stage names in first-seen order, for reporting

	totalBytes   atomic.Int64
	totalEntries atomic.Int64
	evictions    atomic.Int64

	// backend is the optional warm tier; codecs maps stage names onto
	// their artifact encodings. Both are fixed at construction.
	backend Backend
	codecs  map[string]Codec

	diskHits     atomic.Int64
	diskMisses   atomic.Int64
	decodeErrors atomic.Int64

	// obsv is the optional observability registry. Swapped atomically
	// so Observe is safe concurrently with in-flight Do calls; a nil
	// registry (the default) disables emission at zero cost.
	obsv atomic.Pointer[obs.Registry]

	// wrap is the optional ExecWrapper (chaos injection).
	wrap atomic.Pointer[ExecWrapper]
}

// NewStore returns an empty, unbounded artifact store.
func NewStore() *Store {
	return NewStoreWith(Config{})
}

// NewStoreWith returns an empty store under cfg's bounds.
func NewStoreWith(cfg Config) *Store {
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = 8
	}
	s := &Store{
		shards:  make([]*shard, nshards),
		seed:    maphash.MakeSeed(),
		sizeOf:  cfg.SizeOf,
		stats:   make(map[string]*Stats),
		backend: cfg.Backend,
		codecs:  cfg.Codecs,
	}
	if cfg.MaxBytes > 0 {
		s.maxPerShard = cfg.MaxBytes / int64(nshards)
		if s.maxPerShard == 0 {
			s.maxPerShard = 1
		}
	}
	if s.sizeOf == nil {
		s.sizeOf = EstimateSize
	}
	for i := range s.shards {
		s.shards[i] = &shard{entries: make(map[Key]*entry)}
	}
	return s
}

// shardFor maps a key onto its lock domain.
func (s *Store) shardFor(key Key) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := maphash.String(s.seed, string(key))
	return s.shards[h%uint64(len(s.shards))]
}

// Wrap installs (or, with nil, removes) the store's execution wrapper.
// Safe concurrently with in-flight Do calls; executions that already
// started keep the wrapper they resolved.
func (s *Store) Wrap(w ExecWrapper) {
	if w == nil {
		s.wrap.Store(nil)
		return
	}
	s.wrap.Store(&w)
}

// Observe routes the store's cache instrumentation into r: the
// "stage/hits", "stage/misses", "stage/errors", "stage/panics",
// "stage/evictions" and "stage/singleflight_waits" counters, the
// "stage/cache_bytes" and "stage/cache_entries" gauges and a per-stage
// execution-latency histogram ("stage/<name>"). Pass nil to disable.
// Counters except singleflight_waits and evictions are deterministic
// for sequential pipelines; singleflight_waits counts
// scheduling-dependent concurrent-duplicate suppression, and evictions
// depend on artifact arrival order under concurrency.
func (s *Store) Observe(r *obs.Registry) {
	// Pre-register the counters so every snapshot carries the full
	// set at 0 — the schema does not depend on which events occurred.
	r.Counter("stage/hits")
	r.Counter("stage/misses")
	r.Counter("stage/errors")
	r.Counter("stage/panics")
	r.Counter("stage/evictions")
	r.Counter("stage/singleflight_waits")
	// Warm-tier (Backend) counters. Pre-registered even for a
	// memory-only store so the snapshot schema never depends on the
	// persistence configuration — a stripped manifest of a disk-backed
	// run stays byte-comparable to the in-memory run.
	r.Counter("stage/disk_hits")
	r.Counter("stage/disk_misses")
	r.Counter("stage/decode_errors")
	s.obsv.Store(r)
	s.publishGauges(r)
}

// publishGauges refreshes the store's occupancy gauges.
func (s *Store) publishGauges(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Gauge("stage/cache_bytes").Set(s.totalBytes.Load())
	r.Gauge("stage/cache_entries").Set(s.totalEntries.Load())
	var bs BackendStats
	if s.backend != nil {
		bs = s.backend.Stats()
	}
	r.Gauge("stage/disk_bytes").Set(bs.Bytes)
	r.Gauge("stage/disk_entries").Set(int64(bs.Entries))
	r.Gauge("stage/gc_evictions").Set(bs.GCEvictions)
}

// statLocked returns (creating if needed) the stats row of a stage.
// Callers hold s.statsMu.
func (s *Store) statLocked(name string) *Stats {
	st, ok := s.stats[name]
	if !ok {
		st = &Stats{Name: name}
		s.stats[name] = st
		s.order = append(s.order, name)
	}
	return st
}

// row creates the stats row of a stage, if missing, without counting
// a run.
func (s *Store) row(name string) {
	s.statsMu.Lock()
	s.statLocked(name)
	s.statsMu.Unlock()
}

// pushFront links a completed entry at the MRU end. Callers hold sh.mu.
func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes an entry from the LRU list. Callers hold sh.mu.
func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// touch moves a cached entry to the MRU end. Callers hold sh.mu.
func (sh *shard) touch(e *entry) {
	if !e.cached || sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// evictLocked drops LRU entries until the shard fits its budget,
// returning how many were evicted. Only completed (cached) entries are
// in the list, so an in-flight execution can never be evicted. Callers
// hold sh.mu.
func (s *Store) evictLocked(sh *shard) int {
	if s.maxPerShard <= 0 {
		return 0
	}
	n := 0
	for sh.bytes > s.maxPerShard && sh.tail != nil {
		victim := sh.tail
		sh.unlink(victim)
		victim.cached = false
		delete(sh.entries, victim.key)
		sh.bytes -= victim.size
		s.totalBytes.Add(-victim.size)
		s.totalEntries.Add(-1)
		s.evictions.Add(1)
		n++
	}
	return n
}

// Do returns the artifact for key, executing fn to produce it on a
// cache miss. The boolean reports whether the artifact came from the
// cache. workers is recorded as the stage's worker budget (purely
// instrumentation — it never affects the artifact). Errors are
// returned to every concurrent waiter but never cached; a panicking fn
// is recovered into a *PanicError with the same contract.
func (s *Store) Do(ctx context.Context, name string, key Key, workers int, fn func(context.Context) (any, error)) (any, bool, error) {
	r := s.obsv.Load()
	s.statsMu.Lock()
	s.statLocked(name).Runs++
	s.statsMu.Unlock()

	sh := s.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.touch(e)
		sh.mu.Unlock()
		if r != nil {
			select {
			case <-e.ready:
			default:
				r.Counter("stage/singleflight_waits").Inc()
			}
		}
		<-e.ready
		if e.err != nil {
			// The executing call failed (and removed the entry); report
			// its error without charging this waiter a hit or a miss.
			return nil, false, e.err
		}
		s.statsMu.Lock()
		s.statLocked(name).Hits++
		s.statsMu.Unlock()
		r.Counter("stage/hits").Inc()
		return e.val, true, nil
	}
	e := &entry{key: key, ready: make(chan struct{})}
	sh.entries[key] = e
	sh.mu.Unlock()

	// Memory miss: probe the warm tier before executing. The probe
	// happens under the single-flight entry, so concurrent callers for
	// the same key coalesce onto one disk read exactly as they coalesce
	// onto one execution, and a decoded artifact is installed in the
	// memory tier like an executed one (it may be evicted and recalled
	// again later).
	if v, ok := s.diskLoad(r, name, key); ok {
		e.val = v
		e.size = s.sizeOf(v)
		close(e.ready)
		sh.mu.Lock()
		e.cached = true
		sh.pushFront(e)
		sh.bytes += e.size
		s.totalBytes.Add(e.size)
		s.totalEntries.Add(1)
		evicted := s.evictLocked(sh)
		sh.mu.Unlock()

		s.statsMu.Lock()
		s.statLocked(name).DiskHits++
		s.statsMu.Unlock()
		if evicted > 0 {
			r.Counter("stage/evictions").Add(int64(evicted))
		}
		s.publishGauges(r)
		return v, true, nil
	}

	if wp := s.wrap.Load(); wp != nil {
		fn = (*wp)(name, key, fn)
	}
	start := time.Now()
	v, err := runProtected(ctx, name, key, fn)
	dur := time.Since(start)
	e.val, e.err = v, err
	if err == nil {
		// Size the artifact before any waiter can see it: waiters may
		// fill its lazy caches, which the size walk reads.
		e.size = s.sizeOf(v)
	}
	close(e.ready)

	if err != nil {
		sh.mu.Lock()
		delete(sh.entries, key) // never cache failures
		sh.mu.Unlock()
		r.Counter("stage/errors").Inc()
		if _, ok := err.(*PanicError); ok {
			r.Counter("stage/panics").Inc()
		}
		return nil, false, err
	}

	var evicted int
	sh.mu.Lock()
	e.cached = true
	sh.pushFront(e)
	sh.bytes += e.size
	s.totalBytes.Add(e.size)
	s.totalEntries.Add(1)
	evicted = s.evictLocked(sh)
	sh.mu.Unlock()

	s.statsMu.Lock()
	st := s.statLocked(name)
	st.Misses++
	st.Wall += dur
	st.Workers = workers
	s.statsMu.Unlock()

	r.Counter("stage/misses").Inc()
	if evicted > 0 {
		r.Counter("stage/evictions").Add(int64(evicted))
	}
	s.diskStore(r, name, key, v)
	s.publishGauges(r)
	r.Histogram("stage/" + name).Observe(dur)
	return v, false, nil
}

// diskLoad probes the warm tier for (name, key), decoding on success.
// Anything short of a valid artifact — no backend, no codec for the
// stage, a backend miss or a decode failure — is a miss; decode
// failures additionally count as decode_errors (the backend already
// dropped the corrupt file, so the next write repairs it).
func (s *Store) diskLoad(r *obs.Registry, name string, key Key) (any, bool) {
	if s.backend == nil {
		return nil, false
	}
	codec, ok := s.codecs[name]
	if !ok || codec.Decode == nil {
		return nil, false
	}
	start := time.Now()
	data, ok := s.backend.Get(name, key)
	if !ok {
		s.diskMisses.Add(1)
		r.Counter("stage/disk_misses").Inc()
		return nil, false
	}
	v, err := codec.Decode(data)
	if err != nil {
		s.decodeErrors.Add(1)
		s.diskMisses.Add(1)
		r.Counter("stage/decode_errors").Inc()
		r.Counter("stage/disk_misses").Inc()
		return nil, false
	}
	s.diskHits.Add(1)
	r.Counter("stage/disk_hits").Inc()
	r.Histogram("stage/disk_read").Observe(time.Since(start))
	return v, true
}

// diskStore writes an executed artifact through to the warm tier.
// Best-effort: an encode failure only costs the persistence of this
// one artifact (it stays memory-cached), never the build.
func (s *Store) diskStore(r *obs.Registry, name string, key Key, v any) {
	if s.backend == nil {
		return
	}
	codec, ok := s.codecs[name]
	if !ok || codec.Encode == nil {
		return
	}
	start := time.Now()
	data, err := codec.Encode(v)
	if err != nil {
		s.decodeErrors.Add(1)
		r.Counter("stage/decode_errors").Inc()
		return
	}
	s.backend.Put(name, key, data)
	r.Histogram("stage/disk_write").Observe(time.Since(start))
}

// runProtected executes fn, converting a panic into a *PanicError so
// the caller's single-flight entry always resolves. The stage name and
// a short artifact-key prefix are attached as pprof labels for the
// duration of fn, so CPU and heap profiles taken with
// `cmd/youtiao -cpuprofile` attribute samples to pipeline stages —
// including goroutines fn spawns from the labelled context.
func runProtected(ctx context.Context, name string, key Key, fn func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			v, err = nil, &PanicError{Stage: name, Value: rec}
		}
	}()
	pprof.Do(ctx, pprof.Labels("stage", name, "artifact", keyPrefix(key)), func(ctx context.Context) {
		v, err = fn(ctx)
	})
	return v, err
}

// keyPrefix shortens an artifact key (a hex SHA-256) to a label-sized
// prefix: long enough to be unique within a run, short enough to keep
// profiles readable.
func keyPrefix(k Key) string {
	const n = 12
	if len(k) > n {
		return string(k[:n])
	}
	return string(k)
}

// Get returns a cached artifact without executing anything.
func (s *Store) Get(key Key) (any, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok {
		sh.touch(e)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	<-e.ready
	if e.err != nil {
		return nil, false
	}
	return e.val, true
}

// resident reports whether key names a completed artifact in the
// memory tier, without counting a lookup or refreshing its recency.
func (s *Store) resident(key Key) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	sh.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// Len returns the number of cached artifacts (completed or in flight).
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the estimated memory footprint of the cached artifacts.
func (s *Store) Bytes() int64 { return s.totalBytes.Load() }

// Evictions returns how many artifacts the budget has evicted.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

// DiskHits returns how many invocations the warm tier served.
func (s *Store) DiskHits() int64 { return s.diskHits.Load() }

// DiskMisses returns how many warm-tier probes missed (including
// decode failures).
func (s *Store) DiskMisses() int64 { return s.diskMisses.Load() }

// DecodeErrors returns how many artifacts failed to decode or encode;
// each one was treated as a miss (or skipped write), never an error.
func (s *Store) DecodeErrors() int64 { return s.decodeErrors.Load() }

// Backend returns the warm tier, nil for a memory-only store.
func (s *Store) Backend() Backend { return s.backend }

// BackendStats reports the warm tier's occupancy; the zero value for a
// memory-only store.
func (s *Store) BackendStats() BackendStats {
	if s.backend == nil {
		return BackendStats{}
	}
	return s.backend.Stats()
}

// MaxBytes returns the configured budget (0 = unbounded).
func (s *Store) MaxBytes() int64 {
	if s.maxPerShard <= 0 {
		return 0
	}
	return s.maxPerShard * int64(len(s.shards))
}

// Stats returns a copy of the per-stage instrumentation, in first-seen
// stage order.
func (s *Store) Stats() []Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := make([]Stats, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, *s.stats[name])
	}
	return out
}

// StatsFor returns the instrumentation row of one stage.
func (s *Store) StatsFor(name string) (Stats, bool) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	st, ok := s.stats[name]
	if !ok {
		return Stats{}, false
	}
	return *st, true
}
