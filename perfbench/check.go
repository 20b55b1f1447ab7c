package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	youtiao "repro"
)

// designLog collects every design a run received: its digest per
// request key (SHA-256 of the DesignSnapshot JSON), and per distinct
// digest the oracle's verdict and the wiring-cost reduction. Safe for
// concurrent use.
type designLog struct {
	mu      sync.Mutex
	digests map[string]string // request key -> design digest
	designs map[string]checkedDesign
	errs    []string
}

type checkedDesign struct {
	err  error   // oracle verdict
	cost float64 // baseline/YOUTIAO wiring cost
}

func newDesignLog() *designLog {
	return &designLog{digests: make(map[string]string), designs: make(map[string]checkedDesign)}
}

// record checks one received design. raw is its DesignSnapshot JSON
// exactly as produced (json.Marshal of the snapshot, or the "design"
// field of a /v1/design response). dead lists the design's dead qubits
// and deadKnown says whether the target reported them. It returns an
// error when the design fails the oracle or differs from an earlier
// design for the same request.
func (l *designLog) record(r request, raw []byte, dead []int, deadKnown bool) error {
	sum := sha256.Sum256(raw)
	digest := hex.EncodeToString(sum[:])
	k := r.key()

	l.mu.Lock()
	d, seen := l.designs[digest]
	l.mu.Unlock()
	if !seen {
		var snap youtiao.DesignSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			d.err = fmt.Errorf("decode design: %w", err)
		} else {
			d.err = checkDesign(&snap, r.fdmCapacity(), dead, deadKnown || r.DefectRate == 0)
			d.cost = snap.Baseline.CostUSD / snap.Youtiao.CostUSD
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.designs[digest] = d
	err := d.err
	if prev, ok := l.digests[k]; ok && prev != digest {
		err = fmt.Errorf("design digest %.12s differs from earlier %.12s", digest, prev)
	}
	if err != nil {
		l.errs = append(l.errs, fmt.Sprintf("%s: %v", k, err))
		return err
	}
	l.digests[k] = digest
	return nil
}

// costReduction is the geometric mean of baseline/YOUTIAO wiring cost
// over the distinct designs received.
func (l *designLog) costReduction() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.digests) == 0 {
		return 0
	}
	keys := make([]string, 0, len(l.digests))
	for k := range l.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys) // fixed summation order: the mean is bit-stable
	var s float64
	for _, k := range keys {
		s += math.Log(l.designs[l.digests[k]].cost)
	}
	return math.Exp(s / float64(len(keys)))
}

// checkDesign is the independent design oracle: it re-derives the
// paper's wiring invariants from the snapshot alone, sharing no code
// with the pipeline's constructors.
//
//   - every alive qubit is on exactly one FDM line (alive = not in dead
//     when the dead qubits are known; the FDM and TDM qubit sets must
//     agree in every case);
//   - no line holds more than capacity qubits, and every qubit has a
//     frequency;
//   - frequencies within a line are distinct;
//   - each TDM group fits its DEMUX fan-out (direct 1, 1:2 at most 2,
//     1:4 at most 4);
//   - YOUTIAO needs no more coax than the baseline, and both costs are
//     positive.
func checkDesign(s *youtiao.DesignSnapshot, capacity int, dead []int, deadKnown bool) error {
	n := s.Chip.Qubits
	if n <= 0 {
		return fmt.Errorf("design has %d qubits", n)
	}
	fdm := make(map[int]bool, n)
	for i, line := range s.FDMLines {
		if len(line.Qubits) == 0 {
			return fmt.Errorf("FDM line %d is empty", i)
		}
		if len(line.Qubits) > capacity {
			return fmt.Errorf("FDM line %d holds %d qubits, capacity %d", i, len(line.Qubits), capacity)
		}
		if len(line.FreqGHz) != len(line.Qubits) {
			return fmt.Errorf("FDM line %d has %d frequencies for %d qubits", i, len(line.FreqGHz), len(line.Qubits))
		}
		freqs := make(map[float64]bool, len(line.FreqGHz))
		for j, q := range line.Qubits {
			if q < 0 || q >= n {
				return fmt.Errorf("FDM line %d names qubit %d of %d", i, q, n)
			}
			if fdm[q] {
				return fmt.Errorf("qubit %d is on two FDM lines", q)
			}
			fdm[q] = true
			f := line.FreqGHz[j]
			if !(f > 0) || math.IsInf(f, 0) {
				return fmt.Errorf("FDM line %d: qubit %d frequency %g", i, q, f)
			}
			if freqs[f] {
				return fmt.Errorf("FDM line %d: frequency %g GHz used twice", i, f)
			}
			freqs[f] = true
		}
	}

	tdm := make(map[int]bool, n)
	for i, g := range s.TDMGroups {
		fanout := map[string]int{"direct": 1, "1:2": 2, "1:4": 4}[g.Demux]
		if fanout == 0 {
			return fmt.Errorf("TDM group %d has unknown DEMUX %q", i, g.Demux)
		}
		if len(g.Devices) == 0 || len(g.Devices) > fanout {
			return fmt.Errorf("TDM group %d (%s) holds %d devices", i, g.Demux, len(g.Devices))
		}
		for _, d := range g.Devices {
			if !strings.HasPrefix(d, "q") {
				continue
			}
			q, err := strconv.Atoi(d[1:])
			if err != nil || q < 0 || q >= n {
				return fmt.Errorf("TDM group %d names device %q", i, d)
			}
			if tdm[q] {
				return fmt.Errorf("qubit %d is on two Z lines", q)
			}
			tdm[q] = true
		}
	}
	if len(tdm) != len(fdm) {
		return fmt.Errorf("FDM lines cover %d qubits, TDM groups %d", len(fdm), len(tdm))
	}
	for q := range fdm {
		if !tdm[q] {
			return fmt.Errorf("qubit %d has an XY line but no Z line", q)
		}
	}
	if deadKnown {
		isDead := make(map[int]bool, len(dead))
		for _, q := range dead {
			isDead[q] = true
		}
		for q := 0; q < n; q++ {
			if fdm[q] == isDead[q] {
				return fmt.Errorf("qubit %d: dead=%v but on an FDM line=%v", q, isDead[q], fdm[q])
			}
		}
	}

	if s.Youtiao.CoaxLines > s.Baseline.CoaxLines {
		return fmt.Errorf("YOUTIAO coax %d exceeds baseline %d", s.Youtiao.CoaxLines, s.Baseline.CoaxLines)
	}
	if !(s.Youtiao.CostUSD > 0) || !(s.Baseline.CostUSD > 0) {
		return fmt.Errorf("wiring costs %g / %g", s.Youtiao.CostUSD, s.Baseline.CostUSD)
	}
	return nil
}
