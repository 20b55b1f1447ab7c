// Command ab compares the end-to-end benchmark (perfbench) of a base
// revision against the working tree, in alternating pairs. Run from the
// repository root:
//
//	go run ./tools/ab -base <rev> [-pairs 10] [-workloads cold-design,warm-restart]
//	    [-seed 1] [-out ab.json]
//
// or `make ab BASE=<rev> PAIRS=10 WORKLOADS=...`. It checks the base out
// with `git worktree` under .bench_build/, builds and runs each side with
// its own perfbench/run.sh for BENCHMARK.json's run_seconds, and swaps
// which side runs first from one pair to the next, so a drift in the
// host's speed lands on both sides alike. It reads BENCHMARK.json and
// writes nothing under perfbench/.
//
// For each workload and metric it prints both sides' medians and
// quartiles, how many pairs the change won (ties count for neither),
// and a verdict:
//
//	unresolved  the base's IQR exceeds the metric's bound, relative to its
//	            median, and some change run reads no better than some base run
//	worse       the change's median is worse than the base's by more than the bound
//	gain        the change won at least 9 in 10 pairs and the medians differ
//	            by more than the base's IQR
//	-           none of these
//
// A pair with a failed run (perfbench exited non-zero or reported
// "correct": false) is left out of every summary, and the report says
// how many were. -out writes a JSON object: "runs", every run's
// metrics, and "summaries", per workload and metric the compared pairs,
// their change/base ratios (null where the base reads 0), both sides'
// quartiles, the wins and the verdict. The exit status is 1 when a run failed, 2 on a usage
// or setup error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json ab reads.
type benchSpec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
}

// metricDef declares one end-to-end metric: which direction is better
// and the relative bound a regression may reach.
type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON line perfbench prints last.
type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// run is one perfbench run of one side.
type run struct {
	Side     string             `json:"side"`
	Workload string             `json:"workload"`
	Pair     int                `json:"pair"`
	OK       bool               `json:"ok"`
	Metrics  map[string]float64 `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("ab", flag.ContinueOnError)
	fl.SetOutput(stderr)
	base := fl.String("base", "", "base revision (required)")
	pairs := fl.Int("pairs", 10, "alternating base/change pairs per workload")
	wl := fl.String("workloads", "cold-design,tenant-churn,warm-restart", "comma-separated perfbench workloads")
	seed := fl.Int64("seed", 1, "workload seed")
	out := fl.String("out", "", "write every run's metrics and every summary to this JSON file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(stderr, "ab: -base is required and -pairs must be positive")
		return 2
	}
	var spec benchSpec
	if data, err := os.ReadFile("BENCHMARK.json"); err != nil {
		fmt.Fprintln(stderr, "ab: run from the repository root:", err)
		return 2
	} else if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(stderr, "ab: BENCHMARK.json:", err)
		return 2
	}

	rev, err := git("rev-parse", "--short", *base+"^{commit}")
	if err != nil {
		fmt.Fprintln(stderr, "ab:", err)
		return 2
	}
	baseDir, err := filepath.Abs(filepath.Join(".bench_build", "ab-base-"+rev))
	if err != nil {
		fmt.Fprintln(stderr, "ab:", err)
		return 2
	}
	if _, err := os.Stat(baseDir); err != nil {
		if _, err := git("worktree", "add", "--detach", baseDir, rev); err != nil {
			fmt.Fprintln(stderr, "ab:", err)
			return 2
		}
	}
	defer git("worktree", "remove", "--force", baseDir)

	var runs []run
	failed := false
	for _, w := range strings.Split(*wl, ",") {
		for p := 0; p < *pairs; p++ {
			sides := []string{"base", "change"}
			if p%2 == 1 {
				slices.Reverse(sides)
			}
			for _, side := range sides {
				dir := "."
				if side == "base" {
					dir = baseDir
				}
				r := runOnce(dir, w, *seed, spec.RunSeconds, stderr)
				r.Side, r.Pair = side, p
				failed = failed || !r.OK
				fmt.Fprintf(stderr, "ab: %s pair %d %s: ok=%v\n", w, p, side, r.OK)
				runs = append(runs, r)
			}
		}
	}
	sums := report(stdout, runs, spec, *base, *seed)
	if *out != "" {
		if err := writeJSON(*out, abReport{Base: *base, Seed: *seed, Runs: runs, Summaries: sums}); err != nil {
			fmt.Fprintln(stderr, "ab:", err)
			return 2
		}
	}
	if failed {
		return 1
	}
	return 0
}

// abReport is what -out writes.
type abReport struct {
	Base      string          `json:"base"`
	Seed      int64           `json:"seed"`
	Runs      []run           `json:"runs"`
	Summaries []metricSummary `json:"summaries"`
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// git runs a git command and returns its trimmed output.
func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, out)
	}
	return strings.TrimSpace(string(out)), nil
}

// runOnce builds and runs perfbench in the checkout at dir and parses
// its result line. A run that cannot complete, exits non-zero or is
// not correct is not OK; its metrics are kept when it printed them.
func runOnce(dir, workload string, seed int64, seconds int, stderr io.Writer) run {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	err := cmd.Run()
	r := run{Workload: workload, Metrics: map[string]float64{}}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		fmt.Fprintf(stderr, "ab: %s in %s: no result line (%v)\n", workload, dir, err)
		return r
	}
	for k, m := range res.Metrics {
		r.Metrics[k] = m.Value
	}
	r.OK = err == nil && res.Correct
	return r
}

// metricSummary compares one metric of one workload, pair by pair,
// over the pairs whose runs both succeeded.
type metricSummary struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	LeftOut  int        `json:"pairs_left_out"` // pairs with a failed run
	Pairs    []int      `json:"pairs"`          // compared pairs, ascending
	Ratios   []*float64 `json:"ratios"`         // change/base by compared pair; nil where the base reads 0
	Base     [3]float64 `json:"base_quartiles"` // q1, median, q3
	Change   [3]float64 `json:"change_quartiles"`
	Wins     int        `json:"wins"`
	Verdict  string     `json:"verdict"`
}

// compare summarizes paired values b[i], c[i] of a metric where
// higher (or lower) is better and bound is the relative regression
// bound.
func compare(b, c []float64, higher bool, bound float64) metricSummary {
	s := metricSummary{Base: quartiles(b), Change: quartiles(c), Verdict: "-"}
	better := func(x, y float64) bool { return higher && x > y || !higher && x < y }
	for i := range b {
		if better(c[i], b[i]) {
			s.Wins++
		}
		var r *float64
		if b[i] != 0 {
			r = new(float64)
			*r = c[i] / b[i]
		}
		s.Ratios = append(s.Ratios, r)
	}
	// separated: every change run reads better than every base run.
	separated := higher && slices.Min(c) > slices.Max(b) || !higher && slices.Max(c) < slices.Min(b)
	iqr, med := s.Base[2]-s.Base[0], s.Base[1]
	worse := s.Change[1] - med
	if higher {
		worse = -worse
	}
	switch {
	case iqr > bound*math.Abs(med) && !separated:
		s.Verdict = "unresolved"
	case worse > bound*math.Abs(med):
		s.Verdict = "worse"
	case 10*s.Wins >= 9*len(b) && -worse > iqr:
		s.Verdict = "gain"
	}
	return s
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// report prints one table per workload: each metric the runs share,
// with both sides' quartiles, the change's wins and the verdict, over
// the pairs whose runs both succeeded. It returns the summaries it
// printed.
func report(w io.Writer, runs []run, spec benchSpec, base string, seed int64) []metricSummary {
	var sums []metricSummary
	defs := map[string]metricDef{}
	for _, d := range spec.EndToEnd {
		defs[d.Name] = d
	}
	var workloads []string
	for _, r := range runs {
		if !slices.Contains(workloads, r.Workload) {
			workloads = append(workloads, r.Workload)
		}
	}
	for _, wl := range workloads {
		failed := map[int]bool{}
		for _, r := range runs {
			if r.Workload == wl && !r.OK {
				failed[r.Pair] = true
			}
		}
		byPair := map[string]map[int]float64{}
		var names []string
		for _, r := range runs {
			if r.Workload != wl || failed[r.Pair] {
				continue
			}
			for k, v := range r.Metrics {
				key := r.Side + "\x00" + k
				if byPair[key] == nil {
					byPair[key] = map[int]float64{}
					if r.Side == "base" {
						names = append(names, k)
					}
				}
				byPair[key][r.Pair] = v
			}
		}
		slices.Sort(names)
		fmt.Fprintf(w, "\n%s, seed %d: base %s against the working tree\n", wl, seed, base)
		if len(failed) > 0 {
			fmt.Fprintf(w, "%d pairs left out: a run failed\n", len(failed))
		}
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tbase q1\tmedian\tq3\tchange q1\tmedian\tq3\tchange/base\twins\tverdict\t")
		for _, name := range names {
			d, ok := defs[name]
			if !ok {
				continue
			}
			var pairs []int
			var b, c []float64
			for p := range byPair["base\x00"+name] {
				if _, ok := byPair["change\x00"+name][p]; ok {
					pairs = append(pairs, p)
				}
			}
			slices.Sort(pairs)
			for _, p := range pairs {
				b, c = append(b, byPair["base\x00"+name][p]), append(c, byPair["change\x00"+name][p])
			}
			if len(b) == 0 {
				continue
			}
			s := compare(b, c, d.Better == "higher", d.Bound)
			s.Workload, s.Metric, s.LeftOut, s.Pairs = wl, name, len(failed), pairs
			sums = append(sums, s)
			fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.3f\t%d/%d\t%s\t\n", name,
				s.Base[0], s.Base[1], s.Base[2], s.Change[0], s.Change[1], s.Change[2],
				s.Change[1]/s.Base[1], s.Wins, len(pairs), s.Verdict)
		}
		tw.Flush()
	}
	return sums
}
