package stage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
)

// textCodec is the codec of the test graphs' nodes: it charges an
// artifact the length of its printed form and decodes to that text.
var textCodec = Codec{
	Encode: func(dst []byte, v any) ([]byte, error) { return fmt.Appendf(dst, "%v", v), nil },
	Decode: func(data []byte, _ []any) (any, error) { return string(data), nil },
}

// decl declares a graph node with no behavior, for structure tests.
func decl(name string, inputs ...string) Node[int] {
	return Node[int]{Name: name, Inputs: inputs, Codec: textCodec}
}

func TestGraphValidation(t *testing.T) {
	if _, err := NewGraph(decl("a"), decl("a")); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := NewGraph(decl("")); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewGraph(decl("a", "b")); err == nil {
		t.Error("forward/unknown input accepted")
	}
	if _, err := NewGraph(Node[int]{Name: "a"}); err == nil {
		t.Error("node without a codec accepted")
	}
	g, err := NewGraph(decl("a"), decl("b", "a"))
	if err != nil {
		t.Errorf("valid graph rejected: %v", err)
	} else if g.Codec("b").Encode == nil || g.Codec("c").Encode != nil {
		t.Error("Codec does not return the declared node's codec, or zero for an undeclared name")
	}
}

func diamond() *Graph[int] {
	return MustGraph(decl("src"), decl("left", "src"), decl("right", "src"), decl("sink", "left", "right"))
}

func TestGraphDownstream(t *testing.T) {
	g := diamond()
	if got := g.Downstream("src"); !reflect.DeepEqual(got, []string{"left", "right", "sink"}) {
		t.Errorf("Downstream(src) = %v", got)
	}
	if got := g.Downstream("left"); !reflect.DeepEqual(got, []string{"sink"}) {
		t.Errorf("Downstream(left) = %v", got)
	}
	if got := g.Downstream("sink"); len(got) != 0 {
		t.Errorf("Downstream(sink) = %v", got)
	}
	if got := g.Downstream("missing"); got != nil {
		t.Errorf("Downstream(missing) = %v", got)
	}
	if g.Len() != 4 {
		t.Errorf("Len() = %d, want 4", g.Len())
	}
}

func TestKeyDeterminismAndSeparation(t *testing.T) {
	k1 := NewKey("s").String("ab").Int64(7).Float64(1.5).Bool(true).Done()
	k2 := NewKey("s").String("ab").Int64(7).Float64(1.5).Bool(true).Done()
	if k1 != k2 {
		t.Error("identical component sequences produced different keys")
	}
	distinct := []Key{
		k1,
		NewKey("t").String("ab").Int64(7).Float64(1.5).Bool(true).Done(), // domain
		NewKey("s").String("ab").Int64(8).Float64(1.5).Bool(true).Done(), // int
		NewKey("s").String("ab").Int64(7).Float64(1.5).Bool(false).Done(),
		NewKey("s").String("a").String("b").Int64(7).Float64(1.5).Bool(true).Done(), // split string
		NewKey("s").String("ab").Uint64(7).Float64(1.5).Bool(true).Done(),           // type tag
	}
	seen := map[Key]int{}
	for i, k := range distinct {
		if j, dup := seen[k]; dup {
			t.Errorf("keys %d and %d collide: %s", i, j, k)
		}
		seen[k] = i
	}
	// Slice components must encode their boundaries.
	if NewKey("s").Floats([]float64{1, 2}).Floats(nil).Done() ==
		NewKey("s").Floats([]float64{1}).Floats([]float64{2}).Done() {
		t.Error("float slice boundary collision")
	}
	if NewKey("s").Ints([]int{1, 2}).Done() == NewKey("s").Ints([]int{1}).Int(2).Done() {
		t.Error("int slice vs scalar collision")
	}
}

func TestStoreHitMissAndStats(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	calls := 0
	run := func() (int, bool) {
		v, hit, err := s.Do(ctx, "fit", NewKey("fit").Int(1).Done(), 4, Codec{}, nil, func(context.Context) (any, error) {
			calls++
			return 42, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v.(int), hit
	}
	if v, hit := run(); v != 42 || hit {
		t.Fatalf("cold run: v=%d hit=%v", v, hit)
	}
	if v, hit := run(); v != 42 || !hit {
		t.Fatalf("warm run: v=%d hit=%v", v, hit)
	}
	if calls != 1 {
		t.Fatalf("stage executed %d times", calls)
	}
	st, ok := s.StatsFor("fit")
	if !ok || st.Runs != 2 || st.Hits != 1 || st.Misses != 1 || st.Workers != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d artifacts", s.Len())
	}
	if _, ok := s.Get(NewKey("fit").Int(1).Done()); !ok {
		t.Error("Get missed a cached artifact")
	}
	if _, ok := s.Get(NewKey("fit").Int(2).Done()); ok {
		t.Error("Get invented an artifact")
	}
}

func TestStoreErrorsNotCached(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	key := NewKey("flaky").Done()
	boom := errors.New("boom")
	calls := 0
	_, _, err := s.Do(ctx, "flaky", key, 1, Codec{}, nil, func(context.Context) (any, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := s.Do(ctx, "flaky", key, 1, Codec{}, nil, func(context.Context) (any, error) {
		calls++
		return 7, nil
	})
	if err != nil || v != 7 || hit {
		t.Fatalf("retry: v=%d hit=%v err=%v", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("stage executed %d times", calls)
	}
	st, _ := s.StatsFor("flaky")
	if st.Misses != 1 || st.Hits != 0 || st.Runs != 2 {
		t.Fatalf("stats after failure = %+v", st)
	}
}

// TestStoreSingleFlight checks that concurrent requests for one key
// execute the stage once and all observe its artifact.
func TestStoreSingleFlight(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	key := NewKey("slow").Done()
	var mu sync.Mutex
	calls := 0
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := s.Do(ctx, "slow", key, 1, Codec{}, nil, func(context.Context) (any, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-gate
				return 99, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], _ = v.(int)
		}(i)
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("stage executed %d times under contention", calls)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("waiter %d saw %d", i, v)
		}
	}
}

func TestReportTextJSONAndSub(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := s.Do(ctx, "fit", NewKey("fit").Int(i%2).Done(), 2, Codec{}, nil, func(context.Context) (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Report()
	if before.Hits != 1 || before.Misses != 2 {
		t.Fatalf("report totals = %d hits %d misses", before.Hits, before.Misses)
	}
	if _, _, err := s.Do(ctx, "fit", NewKey("fit").Int(0).Done(), 2, Codec{}, nil, func(context.Context) (any, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	delta := s.Report().Sub(before)
	if delta.Hits != 1 || delta.Misses != 0 {
		t.Fatalf("delta = %d hits %d misses", delta.Hits, delta.Misses)
	}
	if len(delta.Stages) != 1 || delta.Stages[0].Runs != 1 {
		t.Fatalf("delta stages = %+v", delta.Stages)
	}

	text := s.Report().Text()
	for _, want := range []string{"stage", "fit", "hits", "total:"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
	data, err := s.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if len(decoded.Stages) != 1 || decoded.Stages[0].Name != "fit" {
		t.Fatalf("decoded report = %+v", decoded)
	}
}

func TestStoreConcurrentDistinctKeys(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("stage-%d", i%4)
			v, _, err := s.Do(ctx, name, NewKey(name).Int(i).Done(), 1, Codec{}, nil, func(context.Context) (any, error) { return i, nil })
			if err != nil || v != i {
				t.Errorf("task %d: v=%d err=%v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 16 {
		t.Fatalf("store holds %d artifacts", s.Len())
	}
}

// TestDoAttachesPprofLabels: stage execution must run under pprof
// labels carrying the stage name and an artifact-key prefix so CPU and
// heap profiles attribute samples to pipeline stages. The labels must
// be gone again after Do returns.
func TestDoAttachesPprofLabels(t *testing.T) {
	s := NewStore()
	ctx := context.Background()
	key := NewKey("labelled").Int(7).Done()

	var gotStage, gotArtifact string
	var okStage, okArtifact bool
	_, _, err := s.Do(ctx, "labelled", key, 1, Codec{}, nil, func(ctx context.Context) (any, error) {
		gotStage, okStage = pprof.Label(ctx, "stage")
		gotArtifact, okArtifact = pprof.Label(ctx, "artifact")
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !okStage || gotStage != "labelled" {
		t.Errorf("stage label = %q (present=%v), want \"labelled\"", gotStage, okStage)
	}
	wantPrefix := keyPrefix(key)
	if !okArtifact || gotArtifact != wantPrefix {
		t.Errorf("artifact label = %q (present=%v), want %q", gotArtifact, okArtifact, wantPrefix)
	}
	if len(wantPrefix) != 12 {
		t.Errorf("key prefix %q not shortened to 12 chars", wantPrefix)
	}
	if _, leaked := pprof.Label(ctx, "stage"); leaked {
		t.Error("stage label leaked past Do on the caller's context")
	}

	// A panicking fn still resolves to a *PanicError with labels popped.
	_, _, err = s.Do(ctx, "boom", NewKey("boom").Done(), 1, Codec{}, nil, func(context.Context) (any, error) {
		panic("kaboom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stage != "boom" {
		t.Fatalf("panic under labels not converted: %v", err)
	}
}
