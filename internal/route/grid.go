// Package route implements the chip-level control-line router used by
// the Table 2 chip-level evaluation: a grid router at 10 µm resolution
// running A* under standard EDA constraints — no crossing of committed
// wires, a minimum spacing between adjacent lines, and keep-out discs
// around the large on-chip components (qubits). Interfaces sit on the
// chip perimeter at a 0.5 mm pitch and each routed net consumes one.
package route

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Physical constants from the paper's chip-level discussion.
const (
	// Resolution is the routing-grid cell size in mm (10 µm).
	Resolution = 0.010
	// WireWidth is the control-line width in mm (20 µm).
	WireWidth = 0.020
	// WirePitch is the line-to-line pitch in mm (30 µm).
	WirePitch = 0.030
	// InterfacePitch is the perimeter interface pitch in mm (0.5 mm).
	InterfacePitch = 0.5
	// QubitKeepOut is the blocked radius around each qubit in mm.
	QubitKeepOut = 0.20
	// Margin is the die margin around the qubit array in mm; interface
	// pads sit near the die edge, so every net runs a trunk from the
	// edge to the array.
	Margin = 2.5
	// ControlPitch is the strip width of narrow digital DEMUX-control
	// lines (5 µm lines at 10 µm pitch).
	ControlPitch = 0.010
)

// cell is an integer grid coordinate.
type cell struct{ X, Y int }

// Grid is the routing canvas: a blocked-cell bitmap plus component
// keep-out discs. All A* working state lives in a per-Grid scratch
// arena (see gridScratch) that is reused across segments, so routing a
// net allocates only its returned polyline.
type Grid struct {
	w, h    int
	origin  geom.Point
	blocked []bool
	discs   []disc
	// discOf[cell] is the index of the keep-out disc covering the cell,
	// or -1. Discs are assumed non-overlapping (device keep-outs are
	// smaller than half the qubit pitch).
	discOf []int16

	scr gridScratch
}

// gridScratch is the per-Grid search arena. The visited/cost arrays
// are generation-stamped: bumping gen invalidates every entry in O(1),
// so consecutive astar calls share the arrays without a clearing pass.
// The open list is a concrete-typed binary heap that replicates
// container/heap's sift order exactly, keeping tie-breaking — and
// therefore the produced paths — bit-identical to the historical
// interface-based heap.
type gridScratch struct {
	prev   []int32
	cost   []float64
	gen    []uint32
	genCur uint32

	// Source-zone membership stamps (see markSrcZone) plus its BFS queue.
	zoneGen []uint32
	zoneCur uint32

	open   []pqItem
	queue  []cell
	cells  []cell
	exempt []int16

	// searches counts astar invocations on this arena; reuses counts
	// invocations that found the arrays already sized (scratch hits).
	searches int64
	reuses   int64
}

type disc struct {
	center geom.Point
	radius float64
}

// NewGrid creates a routing grid covering bounds expanded by Margin.
func NewGrid(bounds geom.Rect) *Grid {
	b := bounds.Expand(Margin)
	w := int(math.Ceil(b.Width()/Resolution)) + 1
	h := int(math.Ceil(b.Height()/Resolution)) + 1
	g := &Grid{w: w, h: h, origin: b.Min, blocked: make([]bool, w*h)}
	g.discOf = make([]int16, w*h)
	for i := range g.discOf {
		g.discOf[i] = -1
	}
	return g
}

// Width and Height return the grid dimensions in cells.
func (g *Grid) Width() int  { return g.w }
func (g *Grid) Height() int { return g.h }

// ClearWires removes every committed wire from the grid, restoring the
// canvas to its post-construction state. Keep-out discs are geometry,
// not wiring, and survive. The scratch arena is kept (that is the
// point of clearing instead of rebuilding).
func (g *Grid) ClearWires() {
	for i := range g.blocked {
		g.blocked[i] = false
	}
}

// ScratchStats reports (searches, reuses): total astar invocations on
// this grid and how many of them ran entirely on the pre-sized arena.
func (g *Grid) ScratchStats() (searches, reuses int64) {
	return g.scr.searches, g.scr.reuses
}

// AddKeepOut registers a circular component keep-out.
func (g *Grid) AddKeepOut(center geom.Point, radius float64) {
	idx := int16(len(g.discs))
	g.discs = append(g.discs, disc{center: center, radius: radius})
	// Rasterize the disc into the index map.
	c0 := g.toCell(geom.Pt(center.X-radius, center.Y-radius))
	c1 := g.toCell(geom.Pt(center.X+radius, center.Y+radius))
	for y := c0.Y; y <= c1.Y; y++ {
		for x := c0.X; x <= c1.X; x++ {
			c := cell{x, y}
			if !g.inBounds(c) {
				continue
			}
			if g.toPoint(c).Dist(center) < radius {
				g.discOf[g.idx(c)] = idx
			}
		}
	}
}

func (g *Grid) toCell(p geom.Point) cell {
	return cell{
		X: int(math.Round((p.X - g.origin.X) / Resolution)),
		Y: int(math.Round((p.Y - g.origin.Y) / Resolution)),
	}
}

func (g *Grid) toPoint(c cell) geom.Point {
	return geom.Pt(g.origin.X+float64(c.X)*Resolution, g.origin.Y+float64(c.Y)*Resolution)
}

func (g *Grid) inBounds(c cell) bool {
	return c.X >= 0 && c.X < g.w && c.Y >= 0 && c.Y < g.h
}

func (g *Grid) idx(c cell) int { return c.Y*g.w + c.X }

// ensureScratch sizes the arena to the grid. Called at most once per
// segment; after the first call every array keeps its capacity.
func (g *Grid) ensureScratch() {
	s := &g.scr
	if len(s.gen) == g.w*g.h {
		s.reuses++
		return
	}
	n := g.w * g.h
	s.prev = make([]int32, n)
	s.cost = make([]float64, n)
	s.gen = make([]uint32, n)
	s.zoneGen = make([]uint32, n)
	s.genCur = 0
	s.zoneCur = 0
}

// nextGen invalidates the visited/cost arrays in O(1). On the (rare)
// uint32 wraparound the stamps are cleared so stale entries from 2^32
// searches ago cannot alias the fresh generation.
func (s *gridScratch) nextGen() {
	s.genCur++
	if s.genCur == 0 {
		for i := range s.gen {
			s.gen[i] = 0
		}
		s.genCur = 1
	}
}

func (s *gridScratch) nextZoneGen() {
	s.zoneCur++
	if s.zoneCur == 0 {
		for i := range s.zoneGen {
			s.zoneGen[i] = 0
		}
		s.zoneCur = 1
	}
}

// inZone reports whether cell index i was stamped by the latest
// markSrcZone pass.
func (s *gridScratch) inZone(i int) bool { return s.zoneGen[i] == s.zoneCur }

// exemptDiscs collects (into the reused scratch buffer) the indices of
// keep-out discs containing either segment endpoint: a wire may
// traverse the discs it starts or ends in.
func (g *Grid) exemptDiscs(a, b geom.Point) []int16 {
	out := g.scr.exempt[:0]
	for i, d := range g.discs {
		if a.Dist(d.center) < d.radius || b.Dist(d.center) < d.radius {
			out = append(out, int16(i))
		}
	}
	g.scr.exempt = out
	return out
}

// inKeepOut reports whether the cell sits in a keep-out disc other than
// the exempted ones (discs containing the segment's endpoints).
func (g *Grid) inKeepOut(ci int, exempt []int16) bool {
	d := g.discOf[ci]
	if d < 0 {
		return false
	}
	for _, e := range exempt {
		if e == d {
			return false
		}
	}
	return true
}

// blockPath commits a routed path: its cells, plus a one-cell halo that
// enforces the 30 µm pitch (wire width 20 µm on a 10 µm grid), become
// unavailable to later nets.
func (g *Grid) blockPath(cells []cell) {
	for _, c := range cells {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				n := cell{c.X + dx, c.Y + dy}
				if g.inBounds(n) {
					g.blocked[g.idx(n)] = true
				}
			}
		}
	}
}

type pqItem struct {
	c     cell
	f, gc float64
}

// pushOpen appends it and sifts up, replicating container/heap.Push
// (append then up(n-1)) on a concrete element type.
func (s *gridScratch) pushOpen(it pqItem) {
	q := append(s.open, it)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	s.open = q
}

// popOpen removes and returns the minimum, replicating
// container/heap.Pop exactly: Swap(0, n-1), sift down over [0, n-1),
// return the displaced root. Matching the sift order matters — equal-f
// frontier cells pop in the same order as the historical
// container/heap implementation, keeping routed paths bit-identical.
func (s *gridScratch) popOpen() pqItem {
	q := s.open
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].f < q[j1].f {
			j = j2
		}
		if !(q[j].f < q[i].f) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	s.open = q[:n]
	return it
}

// crossPenalty is the A* cost of stepping onto a committed wire cell in
// the crossing-allowed retry pass — each such step models an airbridge
// crossover.
const crossPenalty = 60

// markSrcZone stamps the contiguous region of committed-wire cells
// around src (capped), which a new segment may traverse freely: a
// branch departing from its own hub or chain end necessarily starts
// inside the halo of the wiring already committed there. The stamps
// are queried through gridScratch.inZone until the next call.
func (g *Grid) markSrcZone(src cell) {
	const zoneCap = 600
	s := &g.scr
	s.nextZoneGen()
	si := g.idx(src)
	if !g.blocked[si] {
		return
	}
	s.zoneGen[si] = s.zoneCur
	count := 1
	queue := append(s.queue[:0], src)
	for qi := 0; qi < len(queue) && count < zoneCap; qi++ {
		c := queue[qi]
		for _, d := range [4]cell{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			n := cell{c.X + d.X, c.Y + d.Y}
			if !g.inBounds(n) {
				continue
			}
			ni := g.idx(n)
			if g.blocked[ni] && s.zoneGen[ni] != s.zoneCur {
				s.zoneGen[ni] = s.zoneCur
				count++
				queue = append(queue, n)
			}
		}
	}
	s.queue = queue
}

// astar finds the cheapest 4-connected path from src to dst avoiding
// blocked cells and foreign keep-outs. When allowCross is set, blocked
// cells are passable at crossPenalty (airbridge crossovers); keep-outs
// stay hard. It returns nil when no path exists. The returned cells
// alias the scratch arena and are valid until the next astar call.
// Cells stamped by the latest markSrcZone pass are traversable for
// free (the segment starts inside its own committed wiring).
func (g *Grid) astar(src, dst cell, exempt []int16, allowCross bool) []cell {
	if !g.inBounds(src) || !g.inBounds(dst) {
		return nil
	}
	// Expansion budget: a crossing-free pass that wanders far beyond
	// the direct corridor is abandoned in favour of the (always
	// feasible) crossing pass, bounding worst-case routing time.
	budget := 1 << 62
	if !allowCross {
		manhattan := abs(src.X-dst.X) + abs(src.Y-dst.Y)
		budget = 400*(manhattan+1) + 20000
	}
	expanded := 0
	s := &g.scr
	s.searches++
	s.nextGen()
	h := func(c cell) float64 {
		return float64(abs(c.X-dst.X) + abs(c.Y-dst.Y))
	}
	s.open = append(s.open[:0], pqItem{c: src, f: h(src)})
	si := g.idx(src)
	s.gen[si] = s.genCur
	s.cost[si] = 0
	s.prev[si] = int32(si)
	dirs := [4]cell{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for len(s.open) > 0 {
		it := s.popOpen()
		if it.c == dst {
			return g.reconstruct(src, dst)
		}
		ci := g.idx(it.c)
		if it.gc > s.cost[ci] {
			continue
		}
		if expanded++; expanded > budget {
			return nil
		}
		for _, d := range dirs {
			n := cell{it.c.X + d.X, it.c.Y + d.Y}
			if !g.inBounds(n) {
				continue
			}
			ni := g.idx(n)
			step := 1.0
			if n != dst {
				if g.inKeepOut(ni, exempt) {
					continue
				}
				if g.blocked[ni] && !s.inZone(ni) {
					if !allowCross {
						continue
					}
					step += crossPenalty
				}
			}
			if nc := it.gc + step; s.gen[ni] != s.genCur || nc < s.cost[ni] {
				s.gen[ni] = s.genCur
				s.cost[ni] = nc
				s.prev[ni] = int32(ci)
				s.pushOpen(pqItem{c: n, f: nc + h(n), gc: nc})
			}
		}
	}
	return nil
}

// reconstruct walks the prev stamps from dst back to src into the
// scratch cell buffer and reverses it in place.
func (g *Grid) reconstruct(src, dst cell) []cell {
	s := &g.scr
	path := s.cells[:0]
	cur := g.idx(dst)
	srcIdx := g.idx(src)
	for {
		path = append(path, cell{cur % g.w, cur / g.w})
		if cur == srcIdx {
			break
		}
		cur = int(s.prev[cur])
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	s.cells = path
	return path
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// RouteSegment routes one wire segment from a to b, commits it to the
// grid, and returns its polyline. Keep-out discs containing either
// endpoint are traversable for this segment. When no crossing-free path
// exists, a second pass allows airbridge crossovers at a penalty;
// crossings reports how many committed wires the result hops over.
func (g *Grid) RouteSegment(a, b geom.Point) (path []geom.Point, crossings int, err error) {
	return g.routeSegmentInto(a, b, nil)
}

// routeSegmentInto is RouteSegment appending the polyline to dst
// (which may be nil), so a multi-segment net accumulates its path in
// one amortized allocation instead of one slice per segment.
func (g *Grid) routeSegmentInto(a, b geom.Point, dst []geom.Point) (path []geom.Point, crossings int, err error) {
	src, dc := g.toCell(a), g.toCell(b)
	if !g.inBounds(src) || !g.inBounds(dc) {
		return dst, 0, fmt.Errorf("route: segment %v -> %v outside grid", a, b)
	}
	g.ensureScratch()
	exempt := g.exemptDiscs(a, b)
	g.markSrcZone(src)
	cells := g.astar(src, dc, exempt, false)
	if cells == nil {
		cells = g.astar(src, dc, exempt, true)
		if cells == nil {
			return dst, 0, fmt.Errorf("route: no path %v -> %v even with crossovers", a, b)
		}
		// Count crossover events: each transition into a committed-wire
		// region is one airbridge.
		inWire := false
		for _, c := range cells[1:] {
			ci := g.idx(c)
			b := g.blocked[ci] && !g.scr.inZone(ci)
			if b && !inWire {
				crossings++
			}
			inWire = b
		}
	}
	if dst == nil {
		dst = make([]geom.Point, 0, len(cells))
	}
	for _, c := range cells {
		dst = append(dst, g.toPoint(c))
	}
	g.blockPath(cells)
	return dst, crossings, nil
}
