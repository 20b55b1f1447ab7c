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
	"sync"

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
	// Unread reports that the build's result does not read this node's
	// artifact, so the build loads it only for a consumer that executes,
	// or when the store already holds it (Graph.Run). Nil: the result
	// reads it.
	Unread func(b B) bool
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

// memoEntries bounds a Memo: a sweep revisits a handful of option sets
// per chip (a serving fleet's tenants send about a dozen).
const memoEntries = 16

// Memo remembers the node keys of a graph's latest memoEntries builds
// by the bytes those keys digest (Graph.Run), replacing the oldest. The
// zero Memo is empty; it is safe for concurrent builds of one graph.
type Memo struct {
	mu    sync.Mutex
	keys  map[string][]Key
	order [memoEntries]string // recorded bytes by insertion; next is the oldest
	next  int
}

// put remembers keys for rec, unless it is held, in place of the
// oldest entry.
func (m *Memo) put(rec []byte, keys []Key) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, held := m.keys[string(rec)]; held {
		return
	}
	if m.keys == nil {
		m.keys = make(map[string][]Key)
	}
	delete(m.keys, m.order[m.next])
	m.order[m.next] = string(rec)
	m.keys[m.order[m.next]] = keys
	m.next = (m.next + 1) % memoEntries
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
	up     [][]int // transitive inputs, ascending
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
		var up []int
		for j := range i {
			if slices.ContainsFunc(ins, func(k int) bool { return k == j || slices.Contains(g.up[k], j) }) {
				up = append(up, j)
			}
		}
		g.index[n.Name] = i
		g.inputs = append(g.inputs, ins)
		g.up = append(g.up, up)
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
	var out []string
	for j := i + 1; ok && j < len(g.nodes); j++ {
		if slices.Contains(g.up[j], i) {
			out = append(out, g.nodes[j].Name)
		}
	}
	return out
}

// Artifacts is one build's artifacts by declaration index.
type Artifacts[B any] struct {
	g       *Graph[B]
	s       *Store
	b       B
	workers int
	ctx     context.Context
	in      []any
	nodes   []slot
}

// slot is one node's state in a build. The plan sets given, skip and
// load; mu and done guard the on-demand load of a node it left out.
type slot struct {
	key               Key
	given, skip, load bool
	mem               held // the memory tier's entry, as first looked up
	mu                sync.Mutex
	done              bool
}

type held uint8

const (
	unseen held = iota
	absent
	inFlight // or failed
	resident
)

// Run executes one build through s and returns its artifacts.
//
// A node's key is NewKey(name), then its input keys in declared order,
// then its Params, so Run keys a build before loading anything: from
// m, when m remembers the build's recorded bytes (Memo), or in one
// pass in declaration order, which m then remembers. A nil m keys
// every build afresh. Run then plans the build. The result set is
// every node whose Unread does not hold for b. Walking back, a node in
// the set whose key is not present (in memory, completed or in flight,
// or Backend.Has) brings its inputs into the set; presence is looked
// up only for a node with an input outside it. A node left outside
// loads only if memory holds it; otherwise nothing counts it, and In
// leaves it nil. A node that executes first loads, as Get does, every
// ancestor left unloaded, so a stale plan costs loads, never a wrong
// input.
//
// Loaded nodes run in waves: maximal runs of consecutive loaded nodes
// with no ancestor inside the wave. A wave of two or more runs through
// parallel.ForEachCtx capped at workers, unless every one of its keys
// is a completed artifact in memory: then it runs inline, in
// declaration order. Each loaded node runs through s.Do, which counts
// its outcome into the registry ctx carries (obs.FromContext); any
// failure, ctx ending between waves included, comes back as an *Error
// naming the node. When the build ends, that registry receives the
// store's occupancy gauges (Store.Observe).
func (g *Graph[B]) Run(ctx context.Context, s *Store, m *Memo, b B, workers int, given ...Given) (*Artifacts[B], error) {
	defer s.Observe(obs.FromContext(ctx))
	a := &Artifacts[B]{g: g, s: s, b: b, workers: workers, ctx: ctx,
		in: make([]any, len(g.nodes)), nodes: make([]slot, len(g.nodes))}
	a.plan(m, given)
	wave := make([]int, 0, len(g.nodes))
	for i := range g.nodes {
		if sl := &a.nodes[i]; !sl.load || sl.given {
			continue
		}
		if slices.ContainsFunc(g.up[i], func(j int) bool { return slices.Contains(wave, j) }) {
			if err := a.flush(wave); err != nil {
				return nil, err
			}
			wave = wave[:0]
		}
		wave = append(wave, i)
	}
	if len(wave) > 0 {
		if err := a.flush(wave); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// plan installs the given nodes, keys the build and decides which
// other nodes load (Run).
func (a *Artifacts[B]) plan(m *Memo, given []Given) {
	g := a.g
	for i := range g.nodes {
		n, sl := &g.nodes[i], &a.nodes[i]
		for _, gv := range given {
			if gv.Name == n.Name {
				sl.key, sl.given, sl.load, a.in[i] = gv.Key, true, true, gv.Val
			}
		}
		if !sl.given {
			sl.skip = n.Skip != nil && n.Skip(a.b)
			sl.load = !sl.skip && (n.Unread == nil || !n.Unread(a.b))
		}
	}
	a.keyAll(m)
	for i := len(g.nodes) - 1; i >= 0; i-- {
		sl := &a.nodes[i]
		switch {
		case sl.skip || sl.given:
		case !sl.load:
			sl.load = a.lookup(i) != absent
		case slices.ContainsFunc(g.inputs[i], func(j int) bool { return !a.nodes[j].load && !a.nodes[j].skip }) &&
			a.lookup(i) == absent && (a.s.backend == nil || !a.s.backend.Has(g.nodes[i].Name, sl.key)):
			for _, j := range g.inputs[i] {
				a.nodes[j].load = !a.nodes[j].skip
			}
		}
	}
}

// keyAll keys every node that is neither skipped nor given, in
// declaration order, unless m remembers the keys of the same recorded
// bytes: per node, its skip and given flags, then its given key or
// its Params. Those and the input keys are all a key chains, so equal
// bytes mean equal keys.
func (a *Artifacts[B]) keyAll(m *Memo) {
	var rec *KeyBuilder
	if m != nil {
		rec = Record("build")
		defer rec.Release()
		for i := range a.nodes {
			n, sl := &a.g.nodes[i], &a.nodes[i]
			rec.Bool(sl.skip).Bool(sl.given)
			if sl.given {
				rec.Key(sl.key)
			} else if !sl.skip && n.Params != nil {
				n.Params(a.b, rec)
			}
		}
		m.mu.Lock()
		keys := m.keys[string(rec.Recorded())]
		m.mu.Unlock()
		if keys != nil {
			for i := range a.nodes {
				a.nodes[i].key = keys[i]
			}
			return
		}
	}
	keys := make([]Key, len(a.nodes))
	for i := range a.nodes {
		n, sl := &a.g.nodes[i], &a.nodes[i]
		if !sl.skip && !sl.given {
			k := NewKey(n.Name)
			for _, j := range a.g.inputs[i] {
				k.Key(a.nodes[j].key)
			}
			if n.Params != nil {
				n.Params(a.b, k)
			}
			sl.key = k.Done()
		}
		keys[i] = sl.key
	}
	if m != nil {
		m.put(rec.Recorded(), keys)
	}
}

// lookup returns what the memory tier holds of node i's key, looking
// it up once per build.
func (a *Artifacts[B]) lookup(i int) held {
	if sl := &a.nodes[i]; sl.mem == unseen {
		sl.mem = a.s.lookup(sl.key)
	}
	return a.nodes[i].mem
}

// flush runs one wave.
func (a *Artifacts[B]) flush(wave []int) error {
	ctx, first := a.ctx, a.g.nodes[wave[0]].Name
	if err := ctx.Err(); err != nil {
		return &Error{Stage: first, Err: err}
	}
	// A wave of memory hits runs inline: fanning it out costs more than
	// the hits do.
	hits := len(wave) > 1
	for k := 0; hits && k < len(wave); k++ {
		hits = a.lookup(wave[k]) == resident
	}
	if len(wave) == 1 || hits {
		for _, i := range wave {
			if err := a.do(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	// Create the wave's stats rows in declaration order before fanning
	// out, so the report's row order never depends on which goroutine
	// reaches Do first.
	for _, i := range wave {
		a.s.row(a.g.nodes[i].Name)
	}
	err := parallel.ForEachCtx(ctx, a.workers, len(wave), func(k int) error { return a.do(ctx, wave[k]) })
	if _, named := err.(*Error); err != nil && !named {
		err = &Error{Stage: first, Err: err}
	}
	return err
}

// do loads node i through the store into in[i]. Should it execute, it
// first loads the ancestors its Run reads that the plan left unloaded.
func (a *Artifacts[B]) do(ctx context.Context, i int) (err error) {
	n := &a.g.nodes[i]
	w := 1
	if n.Parallel {
		w = parallel.Workers(a.workers)
	}
	a.in[i], _, err = a.s.Do(ctx, n.Name, a.nodes[i].key, w, n.Codec, a.in, func(ctx context.Context) (any, error) {
		for _, j := range a.g.up[i] {
			if _, err := a.get(ctx, j); err != nil {
				return nil, err
			}
		}
		return n.Run(ctx, a.b, a.in)
	})
	if err != nil {
		return &Error{Stage: n.Name, Err: err}
	}
	return nil
}

// get returns node i's artifact, loading it once if the plan left it
// unloaded.
func (a *Artifacts[B]) get(ctx context.Context, i int) (any, error) {
	sl := &a.nodes[i]
	if sl.load || sl.skip {
		return a.in[i], nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.done {
		if err := a.do(ctx, i); err != nil {
			return nil, err
		}
		sl.done = true
	}
	return a.in[i], nil
}

// Key returns node i's key, empty for a skipped node.
func (a *Artifacts[B]) Key(i int) Key { return a.nodes[i].key }

// In returns the artifacts by declaration index: nil for a skipped
// node, and for a node the plan left unloaded until Get loads it, so
// read such a node through Get.
func (a *Artifacts[B]) In() []any { return a.in }

// Get returns artifact i, loading it on first use if the plan left it
// unloaded. The load counts into the build's registry but outlives the
// build's context; a failed one is retried by the next Get.
func (a *Artifacts[B]) Get(i int) (any, error) {
	return a.get(context.WithoutCancel(a.ctx), i)
}
