// Package stage is the stage-graph execution engine of the YOUTIAO
// design pipeline. Each pipeline step (fault-plan draw, crosstalk
// characterization, partition, FDM grouping, frequency allocation,
// annealing, TDM grouping) is a Node with declared inputs, a
// deterministic artifact Key, and per-execution instrumentation. A
// Store memoizes node outputs by key, so re-running the pipeline with
// only some options changed re-executes only the nodes whose keyed
// inputs changed — the "characterize once, redesign many" access
// pattern of parameter sweeps.
//
// The package is deliberately generic: it knows nothing about chips or
// groupings. The pipeline's node table (which stages exist, what
// participates in each key, how each runs) lives in
// internal/experiments; the determinism contract it relies on —
// artifacts are pure functions of their key, invariant in the worker
// count — is the one internal/parallel establishes.
package stage

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Node declares one stage of a graph and how a build of type B runs
// it. Inputs must name earlier declarations, which makes every graph
// acyclic and topologically sorted by construction.
type Node[B any] struct {
	// Name is the node's key domain, stats row, histogram and error
	// name.
	Name string
	// Inputs name the nodes whose keys open this node's key, in order.
	Inputs []string
	// Params appends the build fields Run reads that no input key
	// covers. Nil appends nothing.
	Params func(b B, k *KeyBuilder)
	// Skip leaves the node out of a build: no key, nil artifact. A
	// skipped node must have no running dependents. Nil never skips.
	Skip func(b B) bool
	// Parallel records the build's worker budget, which the node fans
	// out over, in its stats row instead of 1.
	Parallel bool
	// Run produces the artifact from in, the run's artifacts so far by
	// declaration index. It reads only its inputs and their upstream,
	// all of which its key chains.
	Run func(ctx context.Context, b B, in []any) (any, error)
	// Codec encodes the artifact Run produces: the memory tier charges
	// its encoded length and the warm tier stores it; a disk hit
	// decodes it against in, as Run would read it. Required.
	Codec Codec
}

// Given supplies a node's key and artifact for one run in place of
// executing it (a pre-fabricated device, say, or trained models).
type Given struct {
	Name string
	Key  Key
	Val  any
}

// Error names the node a graph run failed in. It wraps the cause, so
// errors.Is / errors.As still see context errors and *PanicError.
type Error struct {
	// Stage names the failing node (or, outside a run, the failing
	// design check).
	Stage string
	Err   error
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("youtiao design: stage %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// Graph is a validated node table and the executor of its builds.
// Every key chains exactly the declared inputs' keys, so the graph is
// also the invalidation contract: Downstream is what a changed input
// re-executes.
type Graph[B any] struct {
	nodes  []Node[B]
	inputs [][]int // declared inputs as node indices
	index  map[string]int
}

// NewGraph validates the declarations: names must be unique and
// non-empty, every node needs a codec, and inputs must reference
// earlier nodes.
func NewGraph[B any](nodes ...Node[B]) (*Graph[B], error) {
	g := &Graph[B]{nodes: nodes, index: make(map[string]int, len(nodes))}
	for i, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("stage: declaration %d has an empty name", i)
		}
		if _, dup := g.index[n.Name]; dup {
			return nil, fmt.Errorf("stage: duplicate stage %q", n.Name)
		}
		if n.Codec.Encode == nil || n.Codec.Decode == nil {
			return nil, fmt.Errorf("stage: %q has no codec", n.Name)
		}
		ins := make([]int, len(n.Inputs))
		for j, in := range n.Inputs {
			var ok bool
			if ins[j], ok = g.index[in]; !ok {
				return nil, fmt.Errorf("stage: %q input %q is not a previously declared stage", n.Name, in)
			}
		}
		g.index[n.Name] = i
		g.inputs = append(g.inputs, ins)
	}
	return g, nil
}

// MustGraph is NewGraph for static declarations; it panics on invalid
// graphs.
func MustGraph[B any](nodes ...Node[B]) *Graph[B] {
	g, err := NewGraph(nodes...)
	if err != nil {
		panic(err)
	}
	return g
}

// Len returns the number of declared nodes.
func (g *Graph[B]) Len() int { return len(g.nodes) }

// Codec returns the named node's codec, the zero Codec for an
// undeclared name.
func (g *Graph[B]) Codec(name string) Codec {
	i, ok := g.index[name]
	if !ok {
		return Codec{}
	}
	return g.nodes[i].Codec
}

// Downstream returns every node whose artifact (transitively) depends
// on the named node, in declaration order — exactly the set a changed
// input to that node invalidates. The node itself is not included.
func (g *Graph[B]) Downstream(name string) []string {
	i, ok := g.index[name]
	if !ok {
		return nil
	}
	affected := map[int]bool{i: true}
	var out []string
	for j := i + 1; j < len(g.nodes); j++ {
		for _, in := range g.inputs[j] {
			if affected[in] && !affected[j] {
				affected[j] = true
				out = append(out, g.nodes[j].Name)
			}
		}
	}
	return out
}

// Run executes one build through s and returns every node's artifact
// by declaration index (nil for skipped nodes).
//
// A node's key is NewKey(name), then its input keys in declared order,
// then its Params. Nodes run in waves: a wave is a maximal run of
// consecutive declared nodes (given and skipped ones aside) with no
// input inside the wave. A wave of two or more runs through
// parallel.ForEachCtx capped at workers, so at workers == 1 in
// declaration order, unless every one of its keys is already a
// completed artifact in memory: then it runs inline in declaration
// order, as fanning out hits would cost more than it saves. Each
// executed node runs through s.Do, which counts its outcome into the
// registry ctx carries (obs.FromContext), and any failure, ctx ending
// between waves included, comes back as an *Error naming the node. When
// the build ends, that registry receives the store's occupancy gauges
// (Store.Observe); a ctx without one records nothing.
func (g *Graph[B]) Run(ctx context.Context, s *Store, b B, workers int, given ...Given) ([]any, error) {
	defer s.Observe(obs.FromContext(ctx))
	keys, in := make([]Key, len(g.nodes)), make([]any, len(g.nodes))
	key := func(i int) {
		n := &g.nodes[i]
		k := NewKey(n.Name)
		for _, j := range g.inputs[i] {
			k.Key(keys[j])
		}
		if n.Params != nil {
			n.Params(b, k)
		}
		keys[i] = k.Done()
	}
	exec := func(i int) error {
		n := &g.nodes[i]
		if keys[i] == "" {
			key(i)
		}
		w := 1
		if n.Parallel {
			w = parallel.Workers(workers)
		}
		v, _, err := s.Do(ctx, n.Name, keys[i], w, n.Codec, in, func(ctx context.Context) (any, error) { return n.Run(ctx, b, in) })
		if err != nil {
			return &Error{Stage: n.Name, Err: err}
		}
		in[i] = v
		return nil
	}
	wave := make([]int, 0, len(g.nodes))
	flush := func() error {
		first := g.nodes[wave[0]].Name
		if err := ctx.Err(); err != nil {
			return &Error{Stage: first, Err: err}
		}
		// A wave of memory hits runs inline: fanning it out costs more
		// than the hits do. The peek keys the wave in declaration order
		// until a node misses. With no completed artifact in memory no
		// node can hit, so a cold store's wave keys inside the fan-out.
		hits := len(wave) > 1 && s.totalEntries.Load() > 0
		for k := 0; hits && k < len(wave); k++ {
			key(wave[k])
			hits = s.resident(keys[wave[k]])
		}
		if len(wave) == 1 || hits {
			for _, i := range wave {
				if err := exec(i); err != nil {
					return err
				}
			}
			return nil
		}
		// Create the wave's stats rows in declaration order before
		// fanning out, so the report's row order never depends on which
		// goroutine reaches Do first.
		for _, i := range wave {
			s.row(g.nodes[i].Name)
		}
		err := parallel.ForEachCtx(ctx, workers, len(wave), func(k int) error { return exec(wave[k]) })
		if _, named := err.(*Error); err != nil && !named {
			err = &Error{Stage: first, Err: err}
		}
		return err
	}
nodes:
	for i, n := range g.nodes {
		for _, gv := range given {
			if gv.Name == n.Name {
				keys[i], in[i] = gv.Key, gv.Val
				continue nodes
			}
		}
		if n.Skip != nil && n.Skip(b) {
			continue
		}
		for _, j := range g.inputs[i] {
			if slices.Contains(wave, j) {
				if err := flush(); err != nil {
					return nil, err
				}
				wave = wave[:0]
				break
			}
		}
		wave = append(wave, i)
	}
	if len(wave) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return in, nil
}
