package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	if got, want := quartiles([]float64{4, 1, 3, 2, 5}), [3]float64{2, 3, 4}; got != want {
		t.Errorf("quartiles of 1..5 = %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{1, 2, 3, 4}), [3]float64{1.75, 2.5, 3.25}; got != want {
		t.Errorf("quartiles of 1..4 = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
		wins   int
	}{
		{"gain, lower is better", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, false, 0.25, "gain", 10},
		{"worse beyond the bound", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, true, 0.1, "worse", 0},
		{"within the bound", []float64{99, 100, 98, 99, 101, 97, 99, 100, 98, 99}, true, 0.25, "-", 0},
	} {
		s := compare(base, tc.change, tc.higher, tc.bound)
		if s.Verdict != tc.want || s.Wins != tc.wins {
			t.Errorf("%s: verdict %q with %d wins, want %q with %d", tc.name, s.Verdict, s.Wins, tc.want, tc.wins)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 55, 145, 90, 110}
	if s := compare(noisy, base, true, 0.25); s.Verdict != "unresolved" {
		t.Errorf("base IQR of %v: verdict %q, want unresolved", quartiles(noisy), s.Verdict)
	}
	// Every change run reads better than every base run: the base's
	// spread no longer hides the comparison.
	above := []float64{151, 152, 153, 154, 155, 156, 157, 158, 159, 160}
	if s := compare(noisy, above, true, 0.25); s.Verdict == "unresolved" || s.Wins != 10 {
		t.Errorf("change %v above every base run of %v: verdict %q with %d wins", above, noisy, s.Verdict, s.Wins)
	}
}

// TestReportLeavesOutFailedPairs: a pair with a failed run on either
// side counts in no summary, and the report says so.
func TestReportLeavesOutFailedPairs(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricDef{{Name: "throughput_rps", Better: "higher", Bound: 0.25}}}
	var runs []run
	for p := 0; p < 10; p++ {
		b, c := 100.0, 90.0
		ok := p != 3
		if !ok {
			c = 1e6 // a failed run's value must not count as a win
		}
		runs = append(runs,
			run{Side: "base", Workload: "w", Pair: p, OK: true, Metrics: map[string]float64{"throughput_rps": b}},
			run{Side: "change", Workload: "w", Pair: p, OK: ok, Metrics: map[string]float64{"throughput_rps": c}})
	}
	var out bytes.Buffer
	report(&out, runs, spec, "base", 1)
	if !strings.Contains(out.String(), "1 pairs left out") {
		t.Errorf("report does not count the failed pair:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0/9") {
		t.Errorf("report does not summarize the 9 good pairs with no wins:\n%s", out.String())
	}
}

// TestOutRoundTripsSummaries: -out's JSON holds every run and, per
// workload and metric, the compared pairs in order, each pair's
// change/base ratio (null where the base reads 0), both sides'
// quartiles, the wins and the verdict, and reads back unchanged.
func TestOutRoundTripsSummaries(t *testing.T) {
	spec := benchSpec{EndToEnd: []metricDef{
		{Name: "alloc_mb_per_op", Better: "lower", Bound: 0.1},
		{Name: "setup_s", Better: "lower", Bound: 0.25},
	}}
	var runs []run
	for p := 0; p < 10; p++ {
		setup := 0.0
		if p > 0 {
			setup = 1
		}
		runs = append(runs,
			run{Side: "base", Workload: "w", Pair: p, OK: true, Metrics: map[string]float64{"alloc_mb_per_op": 0.025, "setup_s": setup}},
			run{Side: "change", Workload: "w", Pair: p, OK: p != 4, Metrics: map[string]float64{"alloc_mb_per_op": 0.0225, "setup_s": 1}})
	}
	sums := report(io.Discard, runs, spec, "base", 1)
	path := filepath.Join(t.TempDir(), "ab.json")
	want := abReport{Base: "base", Seed: 1, Runs: runs, Summaries: sums}
	if err := writeJSON(path, want); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got abReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Summaries) != 2 {
		t.Fatalf("%d summaries, want 2", len(got.Summaries))
	}
	alloc, setup := got.Summaries[0], got.Summaries[1]
	if alloc.Metric != "alloc_mb_per_op" || alloc.Verdict != "gain" || alloc.Wins != 9 || alloc.LeftOut != 1 {
		t.Errorf("alloc summary %+v, want a gain with 9 wins and 1 pair left out", alloc)
	}
	if want := []int{0, 1, 2, 3, 5, 6, 7, 8, 9}; !reflect.DeepEqual(alloc.Pairs, want) {
		t.Errorf("compared pairs %v, want %v", alloc.Pairs, want)
	}
	if r := alloc.Ratios[0]; r == nil || math.Abs(*r-0.9) > 1e-12 {
		t.Errorf("alloc ratio %v, want 0.9", r)
	}
	if setup.Ratios[0] != nil || setup.Ratios[1] == nil || *setup.Ratios[1] != 1 {
		t.Errorf("setup ratios %v, want null for pair 0's zero base, then 1", setup.Ratios)
	}
}
