package stage

import (
	mathbits "math/bits"
	"reflect"
	"sync"
)

// EstimateSize is the default artifact-size estimator of a bounded
// Store: a reflective deep walk that sums the inline representation of
// a value plus everything it points at. Shared and cyclic structure is
// counted once (pointers, slices and maps are deduplicated by their
// data address), so the estimate of a pipeline artifact that aliases a
// chip into several sub-structures does not multiply the chip.
//
// The estimate is an accounting currency, not an exact heap profile:
// allocator overhead, map bucket geometry and interface boxing are
// approximated with flat constants. What matters for the cache bound is
// that the estimate grows linearly with the real footprint — a
// 100k-qubit artifact must cost ~1000x a 100-qubit one — which the
// element-wise walk guarantees.
func EstimateSize(v any) int64 {
	if v == nil {
		return int64(2 * ptrBytes)
	}
	w := walkers.Get().(*sizeWalker)
	size := int64(2*ptrBytes) + int64(w.walk(reflect.ValueOf(v), 0))
	// A walker that marked a huge artifact goes back to the allocator
	// rather than pinning its table in the pool.
	if len(w.seen.slots) <= maxPooledSeen {
		clear(w.seen.slots)
		w.seen.n = 0
		walkers.Put(w)
	}
	return size
}

// walkers pools size walkers, so a store charging artifact after
// artifact reuses one grown, cleared seen set instead of growing a
// fresh one per estimate.
var walkers = sync.Pool{New: func() any { return new(sizeWalker) }}

// maxPooledSeen bounds the seen table a pooled walker may keep.
const maxPooledSeen = 1 << 15

const (
	ptrBytes = 8
	// mapEntryOverhead approximates the per-entry bucket cost of a map.
	mapEntryOverhead = 16
	// maxSizeDepth caps the recursion so a pathological artifact cannot
	// overflow the stack; structure deeper than this is undercounted,
	// never mis-walked.
	maxSizeDepth = 64
)

type sizeWalker struct {
	seen ptrSet
}

// ptrSet is a set of non-zero addresses: an open-addressing table,
// probed linearly from a multiplicative hash, at most half full.
type ptrSet struct {
	slots []uintptr // 0 marks a free slot; the length is a power of two
	shift uint      // 64 - log2(len(slots))
	n     int
}

// add inserts p, reporting whether it was absent.
func (s *ptrSet) add(p uintptr) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uintptr(len(s.slots) - 1)
	for i := uintptr(uint64(p) * 0x9e3779b97f4a7c15 >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case p:
			return false
		case 0:
			s.slots[i] = p
			s.n++
			return true
		}
	}
}

// grow doubles the table (to 64 slots at first) and reinserts.
func (s *ptrSet) grow() {
	old := s.slots
	s.slots, s.n = make([]uintptr, max(64, 2*len(old))), 0
	s.shift = 64 - uint(mathbits.TrailingZeros(uint(len(s.slots))))
	for _, p := range old {
		if p != 0 {
			s.add(p)
		}
	}
}

// walk returns the footprint of v including its inline representation.
func (w *sizeWalker) walk(v reflect.Value, depth int) uintptr {
	if !v.IsValid() || depth > maxSizeDepth {
		return 0
	}
	t := v.Type()
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || w.visited(v.Pointer()) {
			return ptrBytes
		}
		return ptrBytes + w.walk(v.Elem(), depth+1)
	case reflect.Interface:
		if v.IsNil() {
			return 2 * ptrBytes
		}
		return 2*ptrBytes + w.walk(v.Elem(), depth+1)
	case reflect.String:
		return 2*ptrBytes + uintptr(v.Len())
	case reflect.Slice:
		if v.IsNil() || w.visited(v.Pointer()) {
			return 3 * ptrBytes
		}
		elem := t.Elem()
		if !hasIndirect(elem) {
			return 3*ptrBytes + uintptr(v.Cap())*elem.Size()
		}
		total := 3*ptrBytes + uintptr(v.Cap()-v.Len())*elem.Size()
		if elem.Kind() == reflect.Slice && !hasIndirect(elem.Elem()) && depth+1 <= maxSizeDepth {
			// A slice of flat slices (adjacency lists, gate tables):
			// each inner slice counts as walk would count it, its
			// header plus its backing the first time that is seen,
			// without a call per inner slice.
			size := elem.Elem().Size()
			for i := 0; i < v.Len(); i++ {
				e := v.Index(i)
				total += 3 * ptrBytes
				if !w.visited(e.Pointer()) {
					total += uintptr(e.Cap()) * size
				}
			}
			return total
		}
		for i := 0; i < v.Len(); i++ {
			total += w.walk(v.Index(i), depth+1)
		}
		return total
	case reflect.Array:
		if !hasIndirect(t.Elem()) {
			return t.Size()
		}
		var total uintptr
		for i := 0; i < v.Len(); i++ {
			total += w.walk(v.Index(i), depth+1)
		}
		return total
	case reflect.Map:
		if v.IsNil() || w.visited(v.Pointer()) {
			return ptrBytes
		}
		total := uintptr(ptrBytes)
		iter := v.MapRange()
		for iter.Next() {
			total += mapEntryOverhead
			total += w.walk(iter.Key(), depth+1)
			total += w.walk(iter.Value(), depth+1)
		}
		return total
	case reflect.Struct:
		if !hasIndirect(t) {
			return t.Size()
		}
		var total uintptr
		for i := 0; i < v.NumField(); i++ {
			total += w.walk(v.Field(i), depth+1)
		}
		return total
	case reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return ptrBytes
	default:
		// Fixed-size scalars: bools, ints, floats, complex.
		return t.Size()
	}
}

// visited marks p, reporting whether it was already counted.
func (w *sizeWalker) visited(p uintptr) bool {
	return p == 0 || !w.seen.add(p)
}

// hasIndirect reports whether values of t can reference memory outside
// their inline representation. Flat types are accounted with a single
// multiplication instead of an element walk, which keeps EstimateSize
// cheap on the pipeline's large numeric slices.
func hasIndirect(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasIndirect(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasIndirect(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return false
	}
}
