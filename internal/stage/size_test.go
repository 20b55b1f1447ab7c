package stage

import "testing"

type sizeNode struct {
	Vals []float64
	Name string
	Next *sizeNode
}

func TestEstimateSizeScalesWithPayload(t *testing.T) {
	small := EstimateSize(make([]float64, 100))
	large := EstimateSize(make([]float64, 100_000))
	ratio := float64(large) / float64(small)
	if ratio < 500 || ratio > 2000 {
		t.Fatalf("1000x payload estimated at %.0fx (small %d, large %d)", ratio, small, large)
	}
}

func TestEstimateSizeCountsSharedOnce(t *testing.T) {
	shared := make([]float64, 10_000)
	type pair struct{ A, B []float64 }
	one := EstimateSize(pair{A: shared})
	both := EstimateSize(pair{A: shared, B: shared})
	// The second reference adds a slice header, not another 80KB.
	if both-one > 64 {
		t.Fatalf("shared slice double-counted: one=%d both=%d", one, both)
	}
}

func TestEstimateSizeCycleSafe(t *testing.T) {
	a := &sizeNode{Vals: make([]float64, 64), Name: "a"}
	b := &sizeNode{Vals: make([]float64, 64), Name: "b", Next: a}
	a.Next = b // cycle
	got := EstimateSize(a)
	if got <= 0 {
		t.Fatalf("cyclic estimate = %d", got)
	}
	// Both nodes' payloads counted once each: roughly 2 * 64 floats.
	if got < 1024 || got > 4096 {
		t.Fatalf("cyclic estimate %d outside the two-node envelope", got)
	}
}

func TestEstimateSizeMapAndString(t *testing.T) {
	m := map[string][]float64{
		"alpha": make([]float64, 1000),
		"beta":  make([]float64, 1000),
	}
	got := EstimateSize(m)
	if got < 16000 {
		t.Fatalf("map with 16KB of payload estimated at %d", got)
	}
	if EstimateSize(nil) <= 0 {
		t.Fatal("nil estimate not positive")
	}
	if EstimateSize("hello") < 5 {
		t.Fatal("string estimate below its length")
	}
}

func TestEstimateSizeArtifactShapes(t *testing.T) {
	// Shapes representative of pipeline artifacts: nested structs,
	// int slices of slices, interior pointers.
	type region struct{ Qubits []int }
	type art struct {
		Regions []region
		ByName  map[string]*region
	}
	a := art{
		Regions: []region{{Qubits: make([]int, 500)}, {Qubits: make([]int, 500)}},
		ByName:  map[string]*region{},
	}
	a.ByName["r0"] = &a.Regions[0]
	got := EstimateSize(a)
	if got < 8000 { // 1000 ints = 8KB minimum
		t.Fatalf("artifact estimate %d below its flat payload", got)
	}
}

// TestEstimateSizeNestedFlatSlices pins the estimate of a slice of
// flat slices: every inner header counts, and each backing array once,
// however many headers share its data pointer; nil and empty lists add
// their header alone.
func TestEstimateSizeNestedFlatSlices(t *testing.T) {
	backing := make([]int, 6)
	lists := [][]int{backing[:2:2], backing[2:6:6], nil, backing[:2:2], backing[:1:1], {}}
	const header = 3 * ptrBytes
	// Interface and outer header, then the inner headers plus the first
	// sight of each backing: backing[:2:2] and backing[:1:1] share a
	// data pointer, so only the first counts its two ints.
	want := int64(2*ptrBytes + header + 6*header + (2+4)*8)
	if got := EstimateSize(lists); got != want {
		t.Fatalf("estimate %d, want %d", got, want)
	}
	// The same lists inside a struct walk the same way.
	type wrapped struct{ L [][]int }
	if got := EstimateSize(wrapped{lists}); got != want {
		t.Fatalf("wrapped estimate %d, want %d", got, want)
	}
}

// TestEstimateSizeManyPointers counts many distinct and repeated
// pointers once each; the second walk reuses the first one's pooled,
// cleared seen set.
func TestEstimateSizeManyPointers(t *testing.T) {
	vals := make([]*[4]int64, 5000)
	for i := range vals {
		vals[i] = new([4]int64)
	}
	once := EstimateSize(vals)
	both := append(append(make([]*[4]int64, 0, 2*len(vals)), vals...), vals...)
	twice := EstimateSize(both)
	// The repeats add a pointer each, not another array.
	if want := once + int64(len(vals))*ptrBytes; twice != want {
		t.Fatalf("repeated pointers: %d, want %d (once %d)", twice, want, once)
	}
}

// TestEstimateSizeDepthCutoff checks that a slice of flat slices
// obeys maxSizeDepth like any other value: inner backings at the
// cutoff depth count, and those one level below it do not.
func TestEstimateSizeDepthCutoff(t *testing.T) {
	type wrap struct{ In struct{ L [][]int } }
	type node struct {
		Next *node
		W    wrap
	}
	// Node k's struct sits at depth 1+2k and its outer list at 4+2k
	// (W, In, L), its inner lists one level deeper.
	chain := func(last, innerCap int) *node {
		var head *node
		for k := last; k >= 0; k-- {
			c := 1
			if k == last {
				c = innerCap
			}
			head = &node{Next: head}
			head.W.In.L = [][]int{make([]int, 1, c)}
		}
		return head
	}
	deepest := (maxSizeDepth - 4) / 2 // outer list at maxSizeDepth
	if d := EstimateSize(chain(deepest, 100)) - EstimateSize(chain(deepest, 1)); d != 0 {
		t.Fatalf("inner backing below the depth cutoff added %d bytes", d)
	}
	if d := EstimateSize(chain(deepest-1, 100)) - EstimateSize(chain(deepest-1, 1)); d != 99*8 {
		t.Fatalf("inner backing at the depth cutoff added %d bytes, want %d", d, 99*8)
	}
}
