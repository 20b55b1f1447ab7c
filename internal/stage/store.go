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
	// MaxBytes caps the cached artifacts' charge: each is charged the
	// length of its codec encoding plus the length of its key, which
	// the entry retains. When an insertion pushes a shard over its
	// share of the budget the least-recently-used completed artifacts
	// are evicted until it fits (an artifact larger than the budget is
	// evicted immediately after being handed to its waiters). 0
	// disables eviction.
	MaxBytes int64
	// Shards spreads keys over independently locked cache shards so
	// concurrent requests do not serialize on one mutex. Each shard
	// owns MaxBytes/Shards of the budget. 0 selects a default of 8;
	// sharding never affects artifact values, only lock granularity.
	Shards int
	// Backend is the optional warm tier (typically internal/stage/cas):
	// memory misses probe it before executing, and successful
	// executions of codec-equipped stages write through to it. Nil
	// keeps the store memory-only (the historical behavior).
	Backend Backend
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
// artifacts are accounted by encoded size and evicted LRU-first, so
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

	statsMu sync.Mutex
	stats   map[string]*Stats
	order   []string // stage names in first-seen order, for reporting

	totalBytes   atomic.Int64
	totalEntries atomic.Int64
	evictions    atomic.Int64

	// backend is the optional warm tier, fixed at construction.
	backend Backend

	diskMisses   atomic.Int64
	decodeErrors atomic.Int64

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
		stats:   make(map[string]*Stats),
		backend: cfg.Backend,
	}
	if cfg.MaxBytes > 0 {
		s.maxPerShard = cfg.MaxBytes / int64(nshards)
		if s.maxPerShard == 0 {
			s.maxPerShard = 1
		}
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

// Observe registers the store's metric names in r and publishes its
// occupancy gauges ("stage/cache_bytes", "stage/cache_entries" and the
// warm tier's "stage/disk_*" and "stage/gc_evictions") as they stand.
// It keeps no reference to r: the store's events reach a registry only
// through the context each Do call is handed, so concurrent builds
// count into their own registries. Graph.Run calls it for its registry once
// a build ends. A nil r is a no-op.
//
// The counters are "stage/hits", "stage/misses", "stage/errors",
// "stage/panics", "stage/evictions", "stage/singleflight_waits",
// "stage/disk_hits", "stage/disk_misses" and "stage/decode_errors";
// Do also times each execution into a "stage/<name>" histogram.
// Counters except singleflight_waits and evictions are deterministic
// for sequential pipelines; singleflight_waits counts
// scheduling-dependent concurrent-duplicate suppression, and evictions
// depend on artifact arrival order under concurrency.
func (s *Store) Observe(r *obs.Registry) {
	if r == nil {
		return
	}
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
	r.Gauge("stage/cache_bytes").Set(s.totalBytes.Load())
	r.Gauge("stage/cache_entries").Set(s.totalEntries.Load())
	bs := s.BackendStats()
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
// cache miss, and counts the outcome into the registry ctx carries
// (obs.FromContext; none counts nothing). fn runs on ctx, so what it
// counts lands in the same registry. The
// boolean reports whether the artifact came from the cache. workers is
// recorded as the stage's worker budget (purely instrumentation — it
// never affects the artifact). codec charges the
// artifact to the memory budget and carries it to and from the warm
// tier; a zero Codec keeps the artifact memory-only, charged by its key
// alone. Errors are returned to every concurrent waiter but never
// cached; a panicking fn is recovered into a *PanicError with the same
// contract.
func (s *Store) Do(ctx context.Context, name string, key Key, workers int, codec Codec, fn func(context.Context) (any, error)) (any, bool, error) {
	r := obs.FromContext(ctx)
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
	if v, size, ok := s.diskLoad(r, name, key, codec); ok {
		e.val, e.size = v, size
		close(e.ready)
		evicted := s.install(sh, e)

		s.statsMu.Lock()
		s.statLocked(name).DiskHits++
		s.statsMu.Unlock()
		if evicted > 0 {
			r.Counter("stage/evictions").Add(int64(evicted))
		}
		return v, true, nil
	}

	if wp := s.wrap.Load(); wp != nil {
		fn = (*wp)(name, key, fn)
	}
	start := time.Now()
	v, err := runProtected(ctx, name, key, fn)
	dur := time.Since(start)
	e.val, e.err = v, err
	var enc *[]byte
	if err == nil {
		// Encode before any waiter can see the artifact, so the
		// encoding never races a waiter filling its lazy caches.
		enc, e.size = s.encode(r, codec, key, v)
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
	evicted := s.install(sh, e)

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
	if enc != nil {
		s.diskStore(r, name, key, *enc)
		putBuf(enc)
	}
	r.Histogram("stage/" + name).Observe(dur)
	return v, false, nil
}

// install links a completed entry at its shard's MRU end, charges its
// size and evicts past the budget, returning how many were evicted.
func (s *Store) install(sh *shard, e *entry) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e.cached = true
	sh.pushFront(e)
	sh.bytes += e.size
	s.totalBytes.Add(e.size)
	s.totalEntries.Add(1)
	return s.evictLocked(sh)
}

// bufs pools the buffers artifacts are encoded into and recalled
// through. Neither a Codec's Decode nor a Backend retains a buffer past
// the call it was handed to, so a buffer is free again once that call
// returns, and neither an insert nor a disk hit allocates one.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf bounds the buffer a pool slot keeps, so one huge
// artifact does not pin its buffer.
const maxPooledBuf = 4 << 20

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufs.Put(b)
	}
}

// encode appends v's encoding to a pooled buffer and returns the buffer
// with the artifact's charge: the encoding's length plus the key's,
// which the entry retains. Without a codec, or when the encoding fails
// (counted as a decode error; the artifact then stays out of the warm
// tier), the artifact is charged its key alone and no buffer returns.
func (s *Store) encode(r *obs.Registry, codec Codec, key Key, v any) (*[]byte, int64) {
	if codec.Encode == nil {
		return nil, int64(len(key))
	}
	buf := bufs.Get().(*[]byte)
	data, err := codec.Encode((*buf)[:0], v)
	if err != nil {
		putBuf(buf)
		s.decodeErrors.Add(1)
		r.Counter("stage/decode_errors").Inc()
		return nil, int64(len(key))
	}
	*buf = data
	return buf, int64(len(data) + len(key))
}

// diskLoad probes the warm tier for (name, key), decoding on success,
// and returns the artifact with its charge: the payload's length plus
// the key's. Anything short of a valid artifact — no backend, no codec,
// a backend miss or a decode failure — is a miss; decode failures
// additionally count as decode_errors (the backend already dropped the
// corrupt file, so the next write repairs it).
func (s *Store) diskLoad(r *obs.Registry, name string, key Key, codec Codec) (any, int64, bool) {
	if s.backend == nil || codec.Decode == nil {
		return nil, 0, false
	}
	start := time.Now()
	buf := bufs.Get().(*[]byte)
	defer putBuf(buf)
	data, ok := s.backend.Get(name, key, (*buf)[:0])
	if !ok {
		s.diskMisses.Add(1)
		r.Counter("stage/disk_misses").Inc()
		return nil, 0, false
	}
	*buf = data
	v, err := codec.Decode(data)
	if err != nil {
		s.decodeErrors.Add(1)
		s.diskMisses.Add(1)
		r.Counter("stage/decode_errors").Inc()
		r.Counter("stage/disk_misses").Inc()
		return nil, 0, false
	}
	r.Counter("stage/disk_hits").Inc()
	r.Histogram("stage/disk_read").Observe(time.Since(start))
	return v, int64(len(data) + len(key)), true
}

// diskStore writes an executed artifact's encoding through to the warm
// tier. Best-effort: a lost write only costs a future re-execution.
func (s *Store) diskStore(r *obs.Registry, name string, key Key, data []byte) {
	if s.backend == nil {
		return
	}
	start := time.Now()
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

// Bytes returns the cached artifacts' charge: their encoded lengths
// plus their key lengths.
func (s *Store) Bytes() int64 { return s.totalBytes.Load() }

// Evictions returns how many artifacts the budget has evicted.
func (s *Store) Evictions() int64 { return s.evictions.Load() }

// DiskHits returns how many invocations the warm tier served, summed
// over the stats rows.
func (s *Store) DiskHits() int64 {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	var n int64
	for _, st := range s.stats {
		n += int64(st.DiskHits)
	}
	return n
}

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
