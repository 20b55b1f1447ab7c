package stage

import (
	"context"
	"testing"
)

// TestRecordDigestsLikeNewKey: a recording builder holds exactly the
// bytes NewKey digests, so its Done is NewKey's key.
func TestRecordDigestsLikeNewKey(t *testing.T) {
	long := string(make([]byte, 200)) // longer than the scratch array
	fill := func(b *KeyBuilder) *KeyBuilder {
		return b.Int64(-3).Uint64(7).Float64(0.5).Bool(true).String(long).
			Bytes([]byte("xy")).Key("k").Floats([]float64{1, 2}).Ints([]int{4})
	}
	rec := fill(Record("domain"))
	defer rec.Release()
	if got, want := rec.Done(), fill(NewKey("domain")).Done(); got != want {
		t.Errorf("recorded key %s, want %s", got, want)
	}
	again := fill(Record("domain"))
	defer again.Release()
	if string(again.Recorded()) != string(rec.Recorded()) {
		t.Error("recording is not deterministic")
	}
}

// memoGraph is a three-node chain whose keys all read the build.
func memoGraph() *Graph[int] {
	return MustGraph(sumNode("a", 1, nil), sumNode("b", 2, nil, "a"), sumNode("c", 3, nil, "b"))
}

// runKeys runs build b of g through m and returns every node's key.
func runKeys(t *testing.T, g *Graph[int], s *Store, m *Memo, b int) []Key {
	t.Helper()
	run, err := g.Run(context.Background(), s, m, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, g.Len())
	for i := range keys {
		keys[i] = run.Key(i)
	}
	return keys
}

// TestMemoReplacesOldest: a memo keeps its latest 16 builds; the 17th
// replaces the oldest, which keys afresh, to the same keys, and then
// replaces the next oldest in turn.
func TestMemoReplacesOldest(t *testing.T) {
	g, s := memoGraph(), NewStore()
	var m Memo
	first := runKeys(t, g, s, &m, 0)
	for b := 1; b <= memoEntries; b++ {
		runKeys(t, g, s, &m, b)
	}
	if len(m.keys) != memoEntries {
		t.Fatalf("memo holds %d entries, want %d", len(m.keys), memoEntries)
	}
	// record returns build b's recorded bytes as Run makes them.
	record := func(b int) string {
		a := &Artifacts[int]{g: g, b: b, nodes: make([]slot, g.Len())}
		var probe Memo
		a.keyAll(&probe)
		return probe.order[0]
	}
	if _, held := m.keys[record(0)]; held {
		t.Error("the oldest build is still held")
	}
	again := runKeys(t, g, s, &m, 0)
	for i := range first {
		if again[i] != first[i] {
			t.Errorf("node %d: key %s after eviction, want %s", i, again[i], first[i])
		}
	}
	if _, held := m.keys[record(1)]; held {
		t.Error("re-keying the oldest build did not replace the next oldest")
	}
	if _, held := m.keys[record(0)]; !held {
		t.Error("the re-keyed build is not held")
	}
}

// TestMemoHitAllocatesNothing: keying a remembered build assigns its
// keys without allocating.
func TestMemoHitAllocatesNothing(t *testing.T) {
	g := memoGraph()
	var m Memo
	a := &Artifacts[int]{g: g, b: 5, nodes: make([]slot, g.Len())}
	a.keyAll(&m)
	want := a.nodes[2].key
	allocs := testing.AllocsPerRun(100, func() {
		for i := range a.nodes {
			a.nodes[i].key = ""
		}
		a.keyAll(&m)
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("a memo hit allocates %.0f times, want 0", allocs)
	}
	if a.nodes[2].key != want || want == "" {
		t.Errorf("hit key %q, want %q", a.nodes[2].key, want)
	}
}
