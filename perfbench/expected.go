package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
)

// expectation is the deterministic fingerprint of one run: a pure
// function of (workload, seed, seconds) on a fixed commit.
type expectation struct {
	// Requests is the request-list digest.
	Requests string `json:"requests"`
	// CostReductionX is the run's cost_reduction_x, bit for bit.
	CostReductionX float64 `json:"cost_reduction_x"`
	// Designs maps each request key to its design digest.
	Designs map[string]string `json:"designs"`
	// Stages holds per-stage [runs, hits, misses, disk hits] of the
	// timed phase, only for runs whose memory tier never evicted.
	Stages map[string][4]int `json:"stages,omitempty"`
}

func expectationOf(p *phase) expectation {
	e := expectation{
		Requests:       p.listDigest,
		CostReductionX: p.log.costReduction(),
		Designs:        p.log.digests,
	}
	if !p.evicting {
		e.Stages = make(map[string][4]int)
		for _, st := range p.stages.Stages {
			e.Stages[st.Name] = [4]int{st.Runs, st.Hits, st.Misses, st.DiskHits}
		}
	}
	return e
}

// diff lists how got departs from want. Stage counters are compared
// only when both sides recorded them.
func (want expectation) diff(got expectation) []string {
	var out []string
	if want.Requests != got.Requests {
		out = append(out, fmt.Sprintf("request-list digest %.12s, want %.12s", got.Requests, want.Requests))
	}
	if want.CostReductionX != got.CostReductionX {
		out = append(out, fmt.Sprintf("cost_reduction_x %v, want %v", got.CostReductionX, want.CostReductionX))
	}
	if len(want.Designs) != len(got.Designs) {
		out = append(out, fmt.Sprintf("%d distinct designs, want %d", len(got.Designs), len(want.Designs)))
	}
	keys := make([]string, 0, len(want.Designs))
	for k := range want.Designs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if got.Designs[k] != want.Designs[k] {
			if bad < 3 {
				out = append(out, fmt.Sprintf("design %s digest %.12s, want %.12s", k, got.Designs[k], want.Designs[k]))
			}
			bad++
		}
	}
	if bad > 3 {
		out = append(out, fmt.Sprintf("... %d design digests differ in all", bad))
	}
	if want.Stages != nil && got.Stages != nil {
		for _, name := range stageNames {
			if want.Stages[name] != got.Stages[name] {
				out = append(out, fmt.Sprintf("stage %s [runs hits misses disk] %v, want %v", name, got.Stages[name], want.Stages[name]))
			}
		}
	}
	return out
}

// expectedFile maps "<workload> seed=<n> seconds=<s>" to the
// expectation recorded for it.
type expectedFile map[string]expectation

func expectedKey(workload string, seed int64, seconds int) string {
	return fmt.Sprintf("%s seed=%d seconds=%d", workload, seed, seconds)
}

func loadExpected(path string) (expectedFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return expectedFile{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read expected designs: %w", err)
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return f, nil
}

func (f expectedFile) save(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("encode expected designs: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write expected designs: %w", err)
	}
	return nil
}
