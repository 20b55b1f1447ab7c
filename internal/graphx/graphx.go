// Package graphx implements the small-graph algorithms the grouping and
// partitioning passes rely on: unweighted and weighted shortest paths,
// shortest-path multiplicity counting (the multi-path topological
// distance of the paper, d_top = n*l), connected components and greedy
// coloring helpers.
//
// Graphs are represented as adjacency lists over dense integer vertex
// ids [0, n). This keeps the algorithms allocation-light and trivially
// testable.
package graphx

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Graph is an undirected graph over vertices 0..N-1.
type Graph struct {
	n   int
	adj [][]int
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graphx: negative vertex count %d", n))
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge adds an undirected edge {u, v}. Self-loops and duplicate edges
// are rejected with an error because the chip model never produces them
// and their presence would silently distort path multiplicity counts.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graphx: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graphx: self-loop at %d", u)
	}
	for _, w := range g.adj[u] {
		if w == v {
			return fmt.Errorf("graphx: duplicate edge (%d,%d)", u, v)
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Edges returns every undirected edge once, as ordered pairs (u < v).
func (g *Graph) Edges() [][2]int {
	var es [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return es
}

// BFSScratch holds the working buffers of one breadth-first traversal —
// the distance and path-count arrays plus the fixed-capacity vertex
// queue (every vertex is enqueued at most once, so a flat n-slot buffer
// with head/tail cursors replaces the historical slice-append queue and
// its re-slicing churn). One scratch serves any number of sequential
// traversals of graphs with at most the allocated vertex count; it must
// not be shared between concurrent traversals.
type BFSScratch struct {
	dist  []int
	count []int64
	queue []int
}

// NewBFSScratch returns scratch sized for n-vertex graphs.
func NewBFSScratch(n int) *BFSScratch {
	ints := make([]int, 2*n)
	return &BFSScratch{
		dist:  ints[:n:n],
		count: make([]int64, n),
		queue: ints[n:],
	}
}

// bfsDistancesInto runs the distance-only BFS from src into sc.dist.
func (g *Graph) bfsDistancesInto(src int, sc *BFSScratch) {
	dist, queue := sc.dist[:g.n], sc.queue[:g.n]
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = src
	head, tail := 0, 1
	for head < tail {
		u := queue[head]
		head++
		du := dist[u] + 1
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = du
				queue[tail] = v
				tail++
			}
		}
	}
}

// shortestPathCountsInto runs the counting BFS from src into sc.dist
// and sc.count.
func (g *Graph) shortestPathCountsInto(src int, sc *BFSScratch) {
	dist, count, queue := sc.dist[:g.n], sc.count[:g.n], sc.queue[:g.n]
	for i := range dist {
		dist[i] = -1
		count[i] = 0
	}
	dist[src] = 0
	count[src] = 1
	queue[0] = src
	head, tail := 0, 1
	for head < tail {
		u := queue[head]
		head++
		du := dist[u] + 1
		for _, v := range g.adj[u] {
			switch {
			case dist[v] < 0:
				dist[v] = du
				count[v] = count[u]
				queue[tail] = v
				tail++
			case dist[v] == du:
				count[v] += count[u]
			}
		}
	}
}

// BFSDistances returns the unweighted shortest-path distance from src to
// every vertex. Unreachable vertices get -1. The returned slice is owned
// by the caller; loops running many traversals should use
// BFSDistancesScratch instead.
func (g *Graph) BFSDistances(src int) []int {
	sc := &BFSScratch{dist: make([]int, g.n), queue: make([]int, g.n)}
	g.bfsDistancesInto(src, sc)
	return sc.dist
}

// BFSDistancesScratch is BFSDistances computed in caller-owned scratch.
// The returned slice aliases sc and is valid until the next traversal
// using sc.
func (g *Graph) BFSDistancesScratch(src int, sc *BFSScratch) []int {
	g.bfsDistancesInto(src, sc)
	return sc.dist[:g.n]
}

// ShortestPathCounts returns, for a source vertex, both the shortest-path
// distance dist[v] and the number of distinct shortest paths count[v]
// from src to each v. Unreachable vertices have dist -1 and count 0.
//
// This implements the paper's multi-path topological metric: when n
// shortest paths of length l connect two qubits, d_top = n*l.
func (g *Graph) ShortestPathCounts(src int) (dist []int, count []int64) {
	sc := NewBFSScratch(g.n)
	g.shortestPathCountsInto(src, sc)
	return sc.dist, sc.count
}

// ShortestPathCountsScratch is ShortestPathCounts computed in
// caller-owned scratch. The returned slices alias sc and are valid
// until the next traversal using sc.
func (g *Graph) ShortestPathCountsScratch(src int, sc *BFSScratch) (dist []int, count []int64) {
	g.shortestPathCountsInto(src, sc)
	return sc.dist[:g.n], sc.count[:g.n]
}

// MultiPathDistance returns the paper's multi-path topological distance
// between u and v: n*l where l is the shortest-path length and n the
// number of distinct shortest paths. It returns +Inf when v is
// unreachable from u, and 0 when u == v.
func (g *Graph) MultiPathDistance(u, v int) float64 {
	if u == v {
		return 0
	}
	dist, count := g.ShortestPathCounts(u)
	if dist[v] < 0 {
		return math.Inf(1)
	}
	return float64(count[v]) * float64(dist[v])
}

// AllMultiPathDistances returns the full n×n multi-path distance matrix.
// Entry [i][j] is +Inf for unreachable pairs and 0 on the diagonal.
// Sources fan out over runtime.GOMAXPROCS(0) workers; the matrix is a pure
// function of the graph, so the worker count cannot change a single
// entry (every row is written only by its own source's task).
func (g *Graph) AllMultiPathDistances() [][]float64 {
	m, _ := g.AllMultiPathDistancesWorkers(context.Background(), 0)
	return m
}

// AllMultiPathDistancesWorkers is AllMultiPathDistances with an
// explicit worker budget (<= 0: runtime.GOMAXPROCS(0), 1: sequential),
// counted into the registry ctx carries; it returns ctx's error once
// ctx ends. The rows share one flat n*n backing array, and each worker
// reuses one BFSScratch across all its sources.
func (g *Graph) AllMultiPathDistancesWorkers(ctx context.Context, workers int) ([][]float64, error) {
	m := make([][]float64, g.n)
	flat := make([]float64, g.n*g.n)
	nWorkers := parallel.Resolve(workers, g.n)
	scratch := make([]*BFSScratch, nWorkers)
	for w := range scratch {
		scratch[w] = NewBFSScratch(g.n)
	}
	err := parallel.ForEachCtxWorker(ctx, workers, g.n, func(worker, u int) error {
		row := flat[u*g.n : (u+1)*g.n : (u+1)*g.n]
		g.MultiPathDistancesFrom(u, scratch[worker], row)
		m[u] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// MultiPathDistancesFrom fills row, of length n, with the multi-path
// distances from u, the row u of AllMultiPathDistances, using sc.
func (g *Graph) MultiPathDistancesFrom(u int, sc *BFSScratch, row []float64) {
	dist, count := g.ShortestPathCountsScratch(u, sc)
	for v := range row[:g.n] {
		switch {
		case u == v:
			row[v] = 0
		case dist[v] < 0:
			row[v] = math.Inf(1)
		default:
			row[v] = float64(count[v]) * float64(dist[v])
		}
	}
}

// Components returns the connected components of g, each as a sorted
// slice of vertex ids, ordered by their smallest vertex.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		// Insertion sort: components are small.
		for i := 1; i < len(comp); i++ {
			for j := i; j > 0 && comp[j] < comp[j-1]; j-- {
				comp[j], comp[j-1] = comp[j-1], comp[j]
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// WeightedEdge is an edge with a non-negative weight.
type WeightedEdge struct {
	To     int
	Weight float64
}

// WeightedGraph is an undirected graph with weighted edges.
type WeightedGraph struct {
	n   int
	adj [][]WeightedEdge
}

// NewWeighted returns an empty weighted graph with n vertices.
func NewWeighted(n int) *WeightedGraph {
	return &WeightedGraph{n: n, adj: make([][]WeightedEdge, n)}
}

// N returns the number of vertices.
func (g *WeightedGraph) N() int { return g.n }

// AddEdge adds an undirected weighted edge.
func (g *WeightedGraph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graphx: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if w < 0 {
		return fmt.Errorf("graphx: negative weight %g on edge (%d,%d)", w, u, v)
	}
	g.adj[u] = append(g.adj[u], WeightedEdge{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], WeightedEdge{To: u, Weight: w})
	return nil
}

// Dijkstra returns the weighted shortest-path distances from src.
// Unreachable vertices get +Inf.
func (g *WeightedGraph) Dijkstra(src int) []float64 {
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{v: src, d: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.d > dist[item.v] {
			continue
		}
		for _, e := range g.adj[item.v] {
			if nd := item.d + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(pq, distItem{v: e.To, d: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// GreedyColoring colors the graph greedily in the given vertex order,
// returning color[v] for each vertex. Adjacent vertices always receive
// different colors; the number of colors used is at most maxDegree+1.
func (g *Graph) GreedyColoring(order []int) []int {
	color := make([]int, g.n)
	for i := range color {
		color[i] = -1
	}
	used := make([]bool, g.n+1)
	for _, u := range order {
		for _, v := range g.adj[u] {
			if c := color[v]; c >= 0 {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		color[u] = c
		for _, v := range g.adj[u] {
			if cv := color[v]; cv >= 0 {
				used[cv] = false
			}
		}
	}
	return color
}
