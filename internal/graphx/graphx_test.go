package graphx

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// path builds a path graph 0-1-2-...-n-1.
func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	return g
}

// grid builds a w×h square lattice.
func grid(w, h int) *Graph {
	g := New(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				_ = g.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				_ = g.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("reversed duplicate edge accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := path(4)
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge reports nonexistent edge")
	}
	if g.HasEdge(0, 99) {
		t.Error("HasEdge out of range should be false")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Errorf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
}

func TestEdges(t *testing.T) {
	g := path(4)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("got %d edges, want 3", len(es))
	}
	for _, e := range es {
		if e[0] >= e[1] {
			t.Errorf("edge %v not ordered", e)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := path(5)
	d := g.BFSDistances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	// Disconnected vertex.
	g2 := New(3)
	_ = g2.AddEdge(0, 1)
	if d := g2.BFSDistances(0); d[2] != -1 {
		t.Errorf("unreachable vertex should be -1, got %d", d[2])
	}
}

func TestShortestPathCounts(t *testing.T) {
	// On a 3x3 grid, corner to corner has distance 4 and C(4,2)=6 paths.
	g := grid(3, 3)
	dist, count := g.ShortestPathCounts(0)
	if dist[8] != 4 {
		t.Errorf("corner distance: got %d, want 4", dist[8])
	}
	if count[8] != 6 {
		t.Errorf("corner path count: got %d, want 6", count[8])
	}
	// Adjacent: 1 path.
	if dist[1] != 1 || count[1] != 1 {
		t.Errorf("adjacent: dist %d count %d", dist[1], count[1])
	}
	// Diagonal neighbour: 2 paths of length 2.
	if dist[4] != 2 || count[4] != 2 {
		t.Errorf("diagonal: dist %d count %d", dist[4], count[4])
	}
}

func TestMultiPathDistance(t *testing.T) {
	g := grid(3, 3)
	if d := g.MultiPathDistance(0, 0); d != 0 {
		t.Errorf("self distance: got %v", d)
	}
	if d := g.MultiPathDistance(0, 1); d != 1 {
		t.Errorf("adjacent: got %v, want 1 (1 path x length 1)", d)
	}
	if d := g.MultiPathDistance(0, 4); d != 4 {
		t.Errorf("diagonal: got %v, want 4 (2 paths x length 2)", d)
	}
	if d := g.MultiPathDistance(0, 8); d != 24 {
		t.Errorf("corner: got %v, want 24 (6 paths x length 4)", d)
	}
	g2 := New(2)
	if d := g2.MultiPathDistance(0, 1); !math.IsInf(d, 1) {
		t.Errorf("disconnected: got %v, want +Inf", d)
	}
}

func TestAllMultiPathDistancesMatchesPointwise(t *testing.T) {
	g := grid(3, 4)
	m := g.AllMultiPathDistances()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if want := g.MultiPathDistance(u, v); m[u][v] != want {
				t.Fatalf("matrix[%d][%d] = %v, want %v", u, v, m[u][v], want)
			}
		}
	}
}

func TestMultiPathDistanceSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.4 {
					_ = g.AddEdge(i, j)
				}
			}
		}
		m := g.AllMultiPathDistances()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m[i][j] != m[j][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Errorf("multi-path distance not symmetric: %v", err)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	for i, c := range comps {
		if len(c) != len(want[i]) {
			t.Fatalf("component %d = %v, want %v", i, c, want[i])
		}
		for j := range c {
			if c[j] != want[i][j] {
				t.Fatalf("component %d = %v, want %v", i, c, want[i])
			}
		}
	}
}

func TestDijkstra(t *testing.T) {
	g := NewWeighted(4)
	_ = g.AddEdge(0, 1, 1)
	_ = g.AddEdge(1, 2, 2)
	_ = g.AddEdge(0, 2, 5)
	d := g.Dijkstra(0)
	if d[2] != 3 {
		t.Errorf("shortest 0->2: got %v, want 3", d[2])
	}
	if !math.IsInf(d[3], 1) {
		t.Errorf("unreachable: got %v", d[3])
	}
	if err := g.AddEdge(0, 1, -1); err == nil {
		t.Error("negative weight accepted")
	}
	if err := g.AddEdge(0, 9, 1); err == nil {
		t.Error("out-of-range weighted edge accepted")
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(15)
		g := New(n)
		wg := NewWeighted(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					_ = g.AddEdge(i, j)
					_ = wg.AddEdge(i, j, 1)
				}
			}
		}
		bfs := g.BFSDistances(0)
		dij := wg.Dijkstra(0)
		for v := 0; v < n; v++ {
			if bfs[v] < 0 {
				if !math.IsInf(dij[v], 1) {
					t.Fatalf("trial %d: v%d BFS unreachable but Dijkstra %v", trial, v, dij[v])
				}
				continue
			}
			if float64(bfs[v]) != dij[v] {
				t.Fatalf("trial %d: v%d BFS %d vs Dijkstra %v", trial, v, bfs[v], dij[v])
			}
		}
	}
}

func TestGreedyColoringProper(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := New(n)
		maxDeg := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					_ = g.AddEdge(i, j)
				}
			}
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) > maxDeg {
				maxDeg = g.Degree(v)
			}
		}
		order := rng.Perm(n)
		colors := g.GreedyColoring(order)
		for _, e := range g.Edges() {
			if colors[e[0]] == colors[e[1]] {
				t.Fatalf("trial %d: adjacent vertices %v share color %d", trial, e, colors[e[0]])
			}
		}
		for v, c := range colors {
			if c < 0 || c > maxDeg {
				t.Fatalf("trial %d: vertex %d color %d out of range [0,%d]", trial, v, c, maxDeg)
			}
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) should panic")
		}
	}()
	New(-1)
}

// randomGraph draws a connected-ish random graph for property tests.
func randomGraph(n int, rng *rand.Rand) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		// Spanning-tree edge keeps most of the graph connected...
		if rng.Float64() < 0.9 {
			_ = g.AddEdge(rng.Intn(i), i)
		}
	}
	// ...plus random extra edges for path multiplicity.
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(u, v) // duplicates rejected, fine
		}
	}
	return g
}

func TestBFSScratchMatchesAllocatingVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(3+rng.Intn(40), rng)
		sc := NewBFSScratch(g.N())
		for src := 0; src < g.N(); src++ {
			want := g.BFSDistances(src)
			got := g.BFSDistancesScratch(src, sc)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("trial %d src %d: scratch dist[%d] = %d, want %d", trial, src, v, got[v], want[v])
				}
			}
			wd, wc := g.ShortestPathCounts(src)
			gd, gc := g.ShortestPathCountsScratch(src, sc)
			for v := range wd {
				if gd[v] != wd[v] || gc[v] != wc[v] {
					t.Fatalf("trial %d src %d: scratch counts (%d,%d), want (%d,%d)", trial, src, gd[v], gc[v], wd[v], wc[v])
				}
			}
		}
	}
}

// TestAllMultiPathDistancesWorkerCountInvariance: the parallel fan-out
// over sources must produce a bit-identical matrix at any worker count.
func TestAllMultiPathDistancesWorkerCountInvariance(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(5+rng.Intn(60), rng)
		seq, err := g.AllMultiPathDistancesWorkers(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := g.AllMultiPathDistancesWorkers(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		for u := range seq {
			for v := range seq[u] {
				sv, pv := seq[u][v], par[u][v]
				if sv != pv && !(math.IsInf(sv, 1) && math.IsInf(pv, 1)) {
					t.Fatalf("seed %d: [%d][%d] = %v workers=1 vs %v workers=4", seed, u, v, sv, pv)
				}
			}
		}
	}
}
