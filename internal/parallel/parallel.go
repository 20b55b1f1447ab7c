// Package parallel is the shared worker-pool execution layer of the
// YOUTIAO pipeline. Every embarrassingly-parallel inner loop — the
// crosstalk calibration campaign, Monte Carlo fidelity trajectories,
// per-region FDM/TDM grouping, the scaling sweeps — fans out through
// ForEach/ForEachErr so one Workers knob controls them all.
//
// Determinism is the package contract: callers write results only into
// the slot of their own task index and derive any randomness from
// TaskSeed, which splits a master seed into independent per-task
// streams with SplitMix64. Outputs are then bit-identical for any
// worker count or GOMAXPROCS — Workers only changes how fast the
// answer arrives, never what it is.
package parallel

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a worker-count option: any value <= 0 selects
// runtime.GOMAXPROCS(0), so a process limited to one P (go test -cpu 1,
// GOMAXPROCS=1) runs sequentially; positive values are returned
// unchanged. A resolved count of 1 means strictly sequential execution
// on the caller's goroutine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) once for every i in [0, n), on at most
// Workers(workers) goroutines. Tasks are handed out by an atomic
// counter, so the assignment of tasks to goroutines is scheduling-
// dependent — fn must keep the determinism contract: write only to
// state owned by index i (e.g. out[i]) and take any randomness from a
// per-index TaskSeed stream. With a resolved worker count of 1 (or
// n <= 1) fn runs inline on the calling goroutine with no
// synchronization at all, reproducing pre-pool sequential behaviour.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Resolve returns the worker count ForEach and friends actually use
// for n tasks: Workers(workers) clamped to n and floored at 1. Callers
// sizing per-worker scratch (see ForEachWorker) must size it with
// Resolve so the slice covers exactly the ids that can appear.
func Resolve(workers, n int) int {
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEachWorker is ForEach that additionally hands fn the id of the
// executing worker, a stable integer in [0, Resolve(workers, n)). The
// id exists so tasks can reuse per-worker scratch buffers (state
// vectors, BFS queues) without synchronization: a worker runs its
// tasks strictly sequentially, so scratch indexed by worker id is
// data-race-free by construction. The determinism contract still
// applies — which tasks land on which worker is scheduling-dependent,
// so scratch must carry no information between tasks (reset it at task
// entry) and results must still be written to per-index slots.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Resolve(workers, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(g)
	}
	wg.Wait()
}

// ForEachErrWorker is ForEachWorker for fallible tasks, with the same
// lowest-failing-index error selection as ForEachErr.
func ForEachErrWorker(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEachWorker(workers, n, func(worker, i int) { errs[i] = fn(worker, i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEachErr is ForEach for fallible tasks. Every task always runs
// (there is no early cancellation — tasks are cheap relative to the
// bookkeeping that cancellation would need), and the error of the
// lowest-indexed failing task is returned, so the reported error is
// the same one sequential execution would have surfaced first.
func ForEachErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEach(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEachCtx is ForEachErr with cooperative cancellation. The context
// is checked before every task is handed out: once ctx is done, no new
// task starts, the in-flight tasks finish, every worker goroutine
// exits before the call returns (no leaks), and the context's error is
// returned — cancellation takes precedence over task errors, because a
// partially-executed batch has no well-defined lowest failing index.
// When the context is never cancelled the behaviour, including the
// lowest-index error selection and the determinism contract, is
// exactly that of ForEachErr.
//
// ForEachCtx and ForEachCtxWorker are the pool calls that count: they
// record the call into the registry ctx carries (obs.FromContext), if
// any; the other variants record nothing.
//
// Tasks that want finer-grained promptness (long-running fn bodies)
// should check ctx themselves; ForEachCtx only guarantees promptness
// at task granularity.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachCtxWorker(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachCtxWorker is ForEachCtx that additionally hands fn the id of
// the executing worker, a stable integer in [0, Resolve(workers, n)) —
// the cancellation semantics of ForEachCtx combined with the
// per-worker-scratch contract of ForEachWorker (reset scratch at task
// entry; write results only to per-index slots).
func ForEachCtxWorker(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	w := Resolve(workers, n)
	o, start := obsBegin(ctx, n, w)
	if w <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				o.end(start)
				return err
			}
			if err := fn(0, i); err != nil && first == nil {
				first = err
			}
		}
		o.busy(start)
		o.end(start)
		return first
	}
	var first firstErr
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	done := ctx.Done()
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			if o != nil {
				ws := time.Now()
				defer o.busy(ws)
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					first.set(i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	o.end(start)
	if err := ctx.Err(); err != nil {
		return err
	}
	return first.err
}

// firstErr keeps the error of the lowest failing task index of a
// concurrent batch: the error sequential execution would have met
// first.
type firstErr struct {
	mu  sync.Mutex
	i   int
	err error
}

func (f *firstErr) set(i int, err error) {
	f.mu.Lock()
	if f.err == nil || i < f.i {
		f.i, f.err = i, err
	}
	f.mu.Unlock()
}

// golden is the 64-bit golden-ratio increment of the SplitMix64
// generator.
const golden = 0x9E3779B97F4A7C15

// SplitMix64 is one step of Steele et al.'s SplitMix64 generator:
// advance the state by the golden-ratio increment and apply the
// avalanching finalizer. It is the mixing primitive behind TaskSeed.
func SplitMix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// TaskSeed splits a master seed into the seed of task index `task`.
// Distinct (master, task) pairs land on well-separated SplitMix64
// outputs, so sibling tasks get statistically independent RNG streams
// while the whole family stays a pure function of the master seed —
// the scheme that makes parallel results worker-count-invariant.
func TaskSeed(master int64, task uint64) int64 {
	z := SplitMix64(uint64(master))
	return int64(SplitMix64(z + (task+1)*golden))
}

// TaskRand returns a private *rand.Rand for task index `task` of the
// master seed's family. The generator is owned by the caller and must
// not be shared across tasks.
func TaskRand(master int64, task uint64) *rand.Rand {
	return rand.New(rand.NewSource(TaskSeed(master, task)))
}
