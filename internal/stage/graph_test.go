package stage

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// rendezvous returns a pair of callbacks that each block until the
// other has been called: two nodes calling them finish only if they
// run concurrently, i.e. in one wave.
func rendezvous(t *testing.T) (func(), func()) {
	a, b := make(chan struct{}), make(chan struct{})
	wait := func(mine, theirs chan struct{}) func() {
		return func() {
			close(mine)
			select {
			case <-theirs:
			case <-time.After(5 * time.Second):
				t.Error("wave partner never ran concurrently")
			}
		}
	}
	return wait(a, b), wait(b, a)
}

// sumNode returns a node keyed and valued v plus the build, calling
// hook (if non-nil) when it executes.
func sumNode(name string, v int, hook func(), inputs ...string) Node[int] {
	return Node[int]{
		Name:   name,
		Inputs: inputs,
		Params: func(b int, k *KeyBuilder) { k.Int(v + b) },
		Run: func(ctx context.Context, b int, in []any) (any, error) {
			if hook != nil {
				hook()
			}
			return v + b, nil
		},
		Codec: textCodec,
	}
}

// TestRunWavesFromDeclarationOrder: consecutive independent nodes form
// one wave and run concurrently; a node whose input is in the current
// wave opens the next one. Keys chain input keys in declared order,
// then params.
func TestRunWavesFromDeclarationOrder(t *testing.T) {
	b1, c1 := rendezvous(t)
	d1, e1 := rendezvous(t)
	g := MustGraph(
		sumNode("a", 1, nil),
		sumNode("b", 2, b1, "a"),
		sumNode("c", 3, c1, "a"),
		sumNode("d", 4, d1, "b", "c"), // input in [b c]: new wave
		sumNode("e", 5, e1, "a"),      // joins [d e]
	)
	s := NewStore()
	in, err := g.Run(context.Background(), s, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []any{1, 2, 3, 4, 5}; !reflect.DeepEqual(in, want) {
		t.Errorf("artifacts = %v, want %v", in, want)
	}
	ka := NewKey("a").Int(1).Done()
	kb := NewKey("b").Key(ka).Int(2).Done()
	kc := NewKey("c").Key(ka).Int(3).Done()
	if v, ok := s.Get(NewKey("d").Key(kb).Key(kc).Int(4).Done()); !ok || v != 4 {
		t.Errorf("d is not stored under its chained key (got %v, %v)", v, ok)
	}
	var names []string
	for _, st := range s.Stats() {
		names = append(names, st.Name)
		if st.Runs != 1 || st.Misses != 1 {
			t.Errorf("stage %s: %d runs, %d misses, want 1, 1", st.Name, st.Runs, st.Misses)
		}
	}
	if want := []string{"a", "b", "c", "d", "e"}; !reflect.DeepEqual(names, want) {
		t.Errorf("report rows = %v, want %v", names, want)
	}
}

// TestRunSequentialAtOneWorker: with one worker every wave runs in
// declaration order on the calling goroutine.
func TestRunSequentialAtOneWorker(t *testing.T) {
	var order []string
	node := func(name string, inputs ...string) Node[int] {
		return Node[int]{Name: name, Inputs: inputs, Run: func(context.Context, int, []any) (any, error) {
			order = append(order, name)
			return name, nil
		}, Codec: textCodec}
	}
	g := MustGraph(node("a"), node("b", "a"), node("c", "a"), node("d", "b"), node("e"))
	if _, err := g.Run(context.Background(), NewStore(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "d", "e"}; !reflect.DeepEqual(order, want) {
		t.Errorf("execution order = %v, want %v", order, want)
	}
}

// TestRunGivenAndSkipped: a given node supplies its key and artifact
// without running; a skipped node gets neither, leaves no stats row,
// and lets its neighbors share a wave.
func TestRunGivenAndSkipped(t *testing.T) {
	p1, r1 := rendezvous(t)
	ran := map[string]bool{}
	var mu sync.Mutex
	mark := func(name string, hook func()) func() {
		return func() {
			mu.Lock()
			ran[name] = true
			mu.Unlock()
			if hook != nil {
				hook()
			}
		}
	}
	skipped := sumNode("q", 20, mark("q", nil), "p")
	skipped.Skip = func(b int) bool { return b > 0 }
	reader := Node[int]{Name: "p", Inputs: []string{"src"}, Run: func(_ context.Context, _ int, in []any) (any, error) {
		mark("p", p1)()
		return in[0].(int) + 10, nil
	}, Codec: textCodec}
	g := MustGraph(
		sumNode("src", 1, mark("src", nil)),
		reader,
		skipped,
		sumNode("r", 30, mark("r", r1), "src"), // shares a wave with p once q is skipped
	)
	s := NewStore()
	givenKey := NewKey("external").Done()
	in, err := g.Run(context.Background(), s, 1, 2, Given{Name: "src", Key: givenKey, Val: 100})
	if err != nil {
		t.Fatal(err)
	}
	if ran["src"] || ran["q"] || !ran["p"] || !ran["r"] {
		t.Errorf("executed nodes = %v, want exactly p and r", ran)
	}
	if want := []any{100, 110, nil, 31}; !reflect.DeepEqual(in, want) {
		t.Errorf("artifacts = %v, want %v", in, want)
	}
	if _, ok := s.Get(NewKey("p").Key(givenKey).Done()); !ok {
		t.Error("p's key does not chain the given key")
	}
	if _, ok := s.StatsFor("q"); ok {
		t.Error("skipped node has a stats row")
	}
	if _, ok := s.StatsFor("src"); ok {
		t.Error("given node has a stats row")
	}
}

// TestRunNamesFailingNode: a node's error comes back as an *Error
// naming it, wrapping the cause; nothing after it runs.
func TestRunNamesFailingNode(t *testing.T) {
	boom := errors.New("boom")
	after := false
	g := MustGraph(
		sumNode("a", 1, nil),
		Node[int]{Name: "b", Inputs: []string{"a"}, Run: func(context.Context, int, []any) (any, error) { return nil, boom }, Codec: textCodec},
		sumNode("c", 3, nil, "a"),
		sumNode("d", 4, func() { after = true }, "b"),
	)
	for _, workers := range []int{1, 2} {
		_, err := g.Run(context.Background(), NewStore(), 0, workers)
		var e *Error
		if !errors.As(err, &e) || e.Stage != "b" || !errors.Is(err, boom) {
			t.Errorf("workers %d: err = %v, want *Error naming b wrapping boom", workers, err)
		} else if got, want := err.Error(), "youtiao design: stage b: boom"; got != want {
			t.Errorf("workers %d: message %q, want %q", workers, got, want)
		}
	}
	if after {
		t.Error("a node after the failing wave ran")
	}
}

// TestRunCancelBetweenWaves: ctx ending between waves stops the run
// before the next wave, naming its first node.
func TestRunCancelBetweenWaves(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reached := false
	g := MustGraph(
		sumNode("a", 1, cancel),
		sumNode("b", 2, func() { reached = true }, "a"),
	)
	_, err := g.Run(ctx, NewStore(), 0, 1)
	var e *Error
	if !errors.As(err, &e) || e.Stage != "b" || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want *Error naming b wrapping context.Canceled", err)
	}
	if reached {
		t.Error("the wave after cancellation ran")
	}
}

// TestRunPanicReachesCaller: a panicking node is still a *PanicError to
// the caller, inside the *Error naming it.
func TestRunPanicReachesCaller(t *testing.T) {
	g := MustGraph(
		sumNode("a", 1, nil),
		sumNode("b", 2, func() { panic("kaboom") }, "a"),
		sumNode("c", 3, nil, "a"),
	)
	_, err := g.Run(context.Background(), NewStore(), 0, 2)
	var pe *PanicError
	var e *Error
	if !errors.As(err, &pe) || pe.Stage != "b" || pe.Value != "kaboom" {
		t.Fatalf("err = %v, want a *PanicError from b", err)
	}
	if !errors.As(err, &e) || e.Stage != "b" {
		t.Errorf("err = %v, want it named after b", err)
	}
}

// TestRunRowOrderIndependentOfArrival: the second node of a wave
// reaches Store.Do first, yet the report lists the wave's rows in
// declaration order.
func TestRunRowOrderIndependentOfArrival(t *testing.T) {
	secondRunning := make(chan struct{})
	first := sumNode("first", 1, nil)
	first.Params = func(b int, k *KeyBuilder) {
		select { // key the first node only once the second is executing
		case <-secondRunning:
		case <-time.After(5 * time.Second):
			t.Error("second node never started")
		}
		k.Int(1)
	}
	g := MustGraph(first, sumNode("second", 2, func() { close(secondRunning) }))
	s := NewStore()
	if _, err := g.Run(context.Background(), s, 0, 2); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, st := range s.Stats() {
		names = append(names, st.Name)
		if st.Runs != 1 {
			t.Errorf("stage %s: %d runs, want 1", st.Name, st.Runs)
		}
	}
	if want := []string{"first", "second"}; !reflect.DeepEqual(names, want) {
		t.Errorf("report rows = %v, want %v", names, want)
	}
}

// TestRunTimesEachExecutedNodeOnce: every executed node counts one
// outcome into the build's registry and times its execution once into
// its stage histogram; given and skipped nodes record nothing, a hit
// records no execution, and the build's end publishes the occupancy
// gauges into the same registry.
func TestRunTimesEachExecutedNodeOnce(t *testing.T) {
	skipped := sumNode("skipped", 3, nil, "given")
	skipped.Skip = func(int) bool { return true }
	g := MustGraph(sumNode("given", 1, nil), sumNode("ran", 2, nil, "given"), skipped)
	s := NewStore()
	for _, want := range []struct{ hits, misses int64 }{{0, 1}, {1, 0}} {
		reg := obs.New()
		if _, err := g.Run(obs.NewContext(context.Background(), reg), s, 0, 1, Given{Name: "given", Key: "k", Val: 1}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if h, m := snap.Counters["stage/hits"], snap.Counters["stage/misses"]; h != want.hits || m != want.misses {
			t.Errorf("hits %d misses %d, want %d and %d", h, m, want.hits, want.misses)
		}
		if n := int64(len(snap.Histograms)); n != want.misses || snap.Histograms["stage/ran"].Count != want.misses {
			t.Errorf("histograms %v, want stage/ran timed %d times and nothing else", snap.Histograms, want.misses)
		}
		if got := snap.Gauges["stage/cache_entries"]; got != 1 {
			t.Errorf("stage/cache_entries gauge = %d, want 1", got)
		}
	}
}

// TestRunAllHitWaveRunsInline: a wave whose every key is a completed
// artifact in memory runs on the calling goroutine instead of fanning
// out, and still returns the cached artifacts; a wave with a miss fans
// out as before.
func TestRunAllHitWaveRunsInline(t *testing.T) {
	reg := obs.New()
	ctx := obs.NewContext(context.Background(), reg)
	calls := reg.Counter("parallel/calls")
	g := MustGraph(sumNode("a", 1, nil), sumNode("b", 2, nil, "a"), sumNode("c", 3, nil, "a"))
	s := NewStore()
	cold, err := g.Run(ctx, s, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cold build fanned out %d times, want 1", got)
	}
	warm, err := g.Run(ctx, s, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("all-hit build fanned out %d more times, want 0", got-1)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("all-hit build = %v, want %v", warm, cold)
	}
	if r := s.Report(); r.Hits != 3 || r.Misses != 3 {
		t.Errorf("hits %d misses %d, want 3 and 3", r.Hits, r.Misses)
	}
	// Another build misses every key, so the [b c] wave fans out again.
	if _, err := g.Run(ctx, s, 11, 2); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("a build with misses fanned out %d times in all, want 2", got)
	}
}
