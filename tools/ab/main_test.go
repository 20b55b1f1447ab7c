package main

import (
	"bytes"
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
		if s.verdict != tc.want || s.wins != tc.wins {
			t.Errorf("%s: verdict %q with %d wins, want %q with %d", tc.name, s.verdict, s.wins, tc.want, tc.wins)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 55, 145, 90, 110}
	if s := compare(noisy, base, true, 0.25); s.verdict != "unresolved" {
		t.Errorf("base IQR of %v: verdict %q, want unresolved", quartiles(noisy), s.verdict)
	}
	// Every change run reads better than every base run: the base's
	// spread no longer hides the comparison.
	above := []float64{151, 152, 153, 154, 155, 156, 157, 158, 159, 160}
	if s := compare(noisy, above, true, 0.25); s.verdict == "unresolved" || s.wins != 10 {
		t.Errorf("change %v above every base run of %v: verdict %q with %d wins", above, noisy, s.verdict, s.wins)
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
