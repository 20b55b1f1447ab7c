package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != procs {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, procs)
	}
	if got := Workers(-3); got != procs {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, procs)
	}
	// A process limited to one P resolves to sequential execution,
	// whatever the machine's CPU count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) under GOMAXPROCS 1 = %d, want 1", got)
	}
	for _, n := range []int{1, 2, 7, 64} {
		if got := Workers(n); got != n {
			t.Errorf("Workers(%d) = %d", n, got)
		}
	}
}

func TestForEachVisitsEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		for _, n := range []int{0, 1, 2, 5, 100, 1000} {
			counts := make([]int32, n)
			ForEach(workers, n, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForEachDeterministicOutput(t *testing.T) {
	// Index-slotted writes must produce identical slices for any worker
	// count — the pool's core contract.
	run := func(workers int) []int64 {
		out := make([]int64, 500)
		ForEach(workers, len(out), func(i int) {
			out[i] = TaskSeed(42, uint64(i))
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 16} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	for _, workers := range []int{1, 4} {
		err := ForEachErr(workers, 100, func(i int) error {
			switch i {
			case 17:
				return errLow
			case 80:
				return errors.New("high")
			}
			return nil
		})
		if err != errLow {
			t.Errorf("workers=%d: got %v, want the index-17 error", workers, err)
		}
	}
	if err := ForEachErr(4, 50, func(i int) error { return nil }); err != nil {
		t.Errorf("unexpected error %v", err)
	}
	if err := ForEachErr(4, 0, func(i int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0 returned %v", err)
	}
}

func TestForEachErrRunsEveryTaskDespiteErrors(t *testing.T) {
	var ran int32
	_ = ForEachErr(4, 64, func(i int) error {
		atomic.AddInt32(&ran, 1)
		return fmt.Errorf("task %d", i)
	})
	if ran != 64 {
		t.Errorf("only %d of 64 tasks ran", ran)
	}
}

func TestTaskSeedIsPureAndSpread(t *testing.T) {
	if TaskSeed(7, 3) != TaskSeed(7, 3) {
		t.Fatal("TaskSeed is not a pure function")
	}
	// Seeds across tasks and across masters must not collide in any
	// small family (SplitMix64 avalanches, so collisions would indicate
	// a wiring bug, not bad luck).
	seen := make(map[int64]string)
	for _, master := range []int64{0, 1, 2, -1, 1 << 40} {
		for task := uint64(0); task < 1000; task++ {
			s := TaskSeed(master, task)
			at := fmt.Sprintf("(%d,%d)", master, task)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and %s", prev, at)
			}
			seen[s] = at
		}
	}
}

func TestTaskRandStreamsAreIndependentOfWorkerCount(t *testing.T) {
	draw := func(workers int) []float64 {
		out := make([]float64, 200)
		ForEach(workers, len(out), func(i int) {
			out[i] = TaskRand(99, uint64(i)).Float64()
		})
		return out
	}
	want := draw(1)
	got := draw(8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d drew %v sequential vs %v parallel", i, want[i], got[i])
		}
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(4, 100); got != 4 {
		t.Errorf("Resolve(4, 100) = %d", got)
	}
	if got := Resolve(8, 3); got != 3 {
		t.Errorf("Resolve(8, 3) = %d, want clamp to n", got)
	}
	if got := Resolve(1, 0); got != 1 {
		t.Errorf("Resolve(1, 0) = %d, want floor 1", got)
	}
	if got := Resolve(0, 1000); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0, 1000) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachWorkerVisitsEveryIndexWithValidWorkerID(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		for _, n := range []int{0, 1, 5, 100} {
			w := Resolve(workers, n)
			counts := make([]int32, n)
			var badWorker atomic.Int32
			ForEachWorker(workers, n, func(worker, i int) {
				if worker < 0 || worker >= w {
					badWorker.Store(int32(worker) + 1)
				}
				atomic.AddInt32(&counts[i], 1)
			})
			if b := badWorker.Load(); b != 0 {
				t.Fatalf("workers=%d n=%d: worker id %d outside [0,%d)", workers, n, b-1, w)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForEachWorkerScratchIsRaceFree exercises the per-worker-scratch
// pattern the id exists for: every worker mutates only its own slot,
// which -race must accept and the totals must prove every task ran.
func TestForEachWorkerScratchIsRaceFree(t *testing.T) {
	const n = 500
	w := Resolve(4, n)
	scratch := make([]int, w)
	ForEachWorker(4, n, func(worker, i int) { scratch[worker]++ })
	total := 0
	for _, c := range scratch {
		total += c
	}
	if total != n {
		t.Errorf("scratch counters sum to %d, want %d", total, n)
	}
}

func TestForEachErrWorkerReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	for _, workers := range []int{1, 4} {
		err := ForEachErrWorker(workers, 100, func(worker, i int) error {
			switch i {
			case 23:
				return errLow
			case 77:
				return errors.New("high")
			}
			return nil
		})
		if err != errLow {
			t.Errorf("workers=%d: got %v, want the index-23 error", workers, err)
		}
	}
	if err := ForEachErrWorker(4, 0, func(worker, i int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0 returned %v", err)
	}
}

// TestForEachConcurrentUse drives the pool from many goroutines at
// once — the pool itself must be freely shareable (run under -race).
func TestForEachConcurrentUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sum := make([]int, 64)
			ForEach(4, len(sum), func(i int) { sum[i] = i * g })
			for i := range sum {
				if sum[i] != i*g {
					t.Errorf("goroutine %d: slot %d corrupted", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkForEachOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForEach(4, 256, func(int) {})
	}
}
