// Command perfbench is the end-to-end benchmark of the YOUTIAO design
// service. It runs one of three seeded workloads against the library or
// an in-process HTTP server, checks every design it receives, and prints
// a report followed by one JSON result line.
//
//	perfbench --workload cold-design|tenant-churn|warm-restart|all \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of one
// untraced run. With --trace 1 the workload runs twice, untraced then
// traced, and the result carries the per-layer metrics of the traced
// run, its layer self times and the tracing overhead. Exit status is 0
// when every check passed, 1 when a design, determinism or sanity check
// failed, and 2 when the run could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each workload to its runner, in report order.
var workloads = []struct {
	name string
	run  func(runConfig) (*phase, error)
}{
	{"cold-design", runCold},
	{"tenant-churn", runChurn},
	{"warm-restart", runWarm},
}

// maxLagMs is the generator lateness (p99) past which an open-loop run
// is invalid: its requests were not offered on schedule.
const maxLagMs = 50

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median.
const setupRepeats = 3

// expectedPath holds the recorded expectations, relative to the
// checkout the benchmark runs in.
var expectedPath = filepath.Join("perfbench", "expected.json")

// buildDir is where the benchmark keeps its scratch files, relative to
// the checkout it runs in.
const buildDir = ".bench_build"

// outcome is one workload's result.
type outcome struct {
	name     string
	measured *phase // the untraced phase, or the traced one with --trace 1
	untraced *phase // with --trace 1, the untraced phase
	problems []string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "all", "cold-design, tenant-churn, warm-restart or all")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 20, "approximate length of the timed phase")
	trace := fl.Int("trace", 0, "1 runs the workload untraced, then traced, and reports per-layer metrics")
	record := fl.Bool("record-expected", false, "store this run's digests as the expectation for its seed")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var selected []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			selected = append(selected, w.name)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}

	expected, err := loadExpected(expectedPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	scratch := filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)

	var outs []*outcome
	for _, name := range selected {
		out, err := runWorkload(name, *seed, *seconds, *trace == 1, scratch, expected, *record)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 2
		}
		report(stdout, out, *seed)
		outs = append(outs, out)
	}
	if *record {
		if err := expected.save(expectedPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}

	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, out := range outs {
		result.Correct = result.Correct && len(out.problems) == 0
		result.Attempted += out.measured.attempted
		result.Failed += out.measured.failed()
		vals := endToEnd(out.measured)
		if out.untraced != nil {
			vals = perLayer(out.measured, out.untraced)
		}
		for k, v := range vals {
			if len(outs) > 1 {
				k = out.name + "." + k
			}
			result.Metrics[k] = v
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and applies every check: the design
// oracle and digests, the zero-work predictions, the generator's
// lateness and the determinism guard.
func runWorkload(name string, seed int64, seconds int, traced bool, scratch string, expected expectedFile, record bool) (*outcome, error) {
	var runner func(runConfig) (*phase, error)
	for _, w := range workloads {
		if w.name == name {
			runner = w.run
		}
	}
	cfg := runConfig{seed: seed, seconds: seconds, setups: setupRepeats, dir: filepath.Join(scratch, "untraced")}
	if traced {
		cfg.setups = 1
	}
	p, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{name: name, measured: p}
	if traced {
		cfg.traced, cfg.dir = true, filepath.Join(scratch, "traced")
		t, err := runner(cfg)
		if err != nil {
			return nil, err
		}
		out.measured, out.untraced = t, p
		// Same seed twice in one process: the determinism guard's
		// direct test.
		for _, d := range expectationOf(p).diff(expectationOf(t)) {
			out.problems = append(out.problems, "traced run departs from untraced run: "+d)
		}
		spanFile := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := t.spans.write(spanFile); err != nil {
			return nil, err
		}
	}

	for _, ph := range []*phase{out.untraced, out.measured} {
		if ph == nil {
			continue
		}
		out.problems = append(out.problems, ph.log.errs...)
		out.problems = append(out.problems, ph.sanity...)
		if ph.lagMs != nil {
			if lag := percentile(ph.lagMs, 0.99); lag > maxLagMs {
				out.problems = append(out.problems, fmt.Sprintf("invalid run: generator lag p99 %.1f ms > %d ms", lag, maxLagMs))
			}
		}
		if len(ph.latMs)+ph.failed() != ph.attempted {
			out.problems = append(out.problems, fmt.Sprintf("conservation: %d ok + %d failed != %d attempted", len(ph.latMs), ph.failed(), ph.attempted))
		}
	}

	key := expectedKey(name, seed, seconds)
	got := expectationOf(out.measured)
	if record {
		expected[key] = got
	} else if want, ok := expected[key]; ok {
		for _, d := range want.diff(got) {
			out.problems = append(out.problems, "differs from the recorded expectation: "+d)
		}
	}
	return out, nil
}

// report prints a workload's human-readable report.
func report(w io.Writer, out *outcome, seed int64) {
	p := out.measured
	mode := "untraced"
	if out.untraced != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s): %d attempted, %d ok, %d failed (failed_ratio %.4f), %d distinct designs\n",
		out.name, seed, mode, p.attempted, len(p.latMs), p.failed(), float64(p.failed())/float64(p.attempted), len(p.log.digests))
	if len(p.failures) > 0 {
		fmt.Fprintf(w, "   failures by class: %v\n", p.failures)
	}
	fmt.Fprintf(w, "   request-list digest %.16s; latency samples n=%d\n", p.listDigest, len(p.latMs))
	if p.lagMs != nil {
		fmt.Fprintf(w, "   sim: trace drawn in %d sim.Generate calls (%.1f ms); generator lag p99 %.2f ms (limit %d)\n",
			p.simDraws, p.simGenMs, percentile(p.lagMs, 0.99), maxLagMs)
	}
	if out.untraced == nil {
		e2e := endToEnd(p)
		for _, k := range sortedNames(e2e) {
			fmt.Fprintf(w, "   %-20s %14.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
		}
		// p99 is reported but not gated: on a shared 2-CPU host its
		// run-to-run spread exceeds any bound the gate allows.
		note := ""
		if len(p.latMs) < 1000 {
			note = fmt.Sprintf(", n=%d < 1000: near the maximum, not a tail estimate", len(p.latMs))
		}
		fmt.Fprintf(w, "   %-20s %14.4f ms (not gated%s)\n", "latency_p99_ms", percentile(p.latMs, 0.99), note)
	} else {
		layers := perLayer(p, out.untraced)
		prefixes := map[string][]string{}
		for _, k := range sortedNames(layers) {
			pre := k[:strings.IndexByte(k, '.')]
			prefixes[pre] = append(prefixes[pre], k)
		}
		groups := make([]string, 0, len(prefixes))
		for g := range prefixes {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		for _, g := range groups {
			if g == "serve" && p.rtMs == nil {
				fmt.Fprintf(w, "   serve.*: absent (serve is not on this workload's path)\n")
				continue
			}
			for _, k := range prefixes[g] {
				fmt.Fprintf(w, "   %-30s %14.4f %s\n", k, layers[k].Value, layers[k].Unit)
			}
		}
		request, self := selfTimes(p)
		fmt.Fprintf(w, "   self time of request time (%.1f ms over %d requests):\n", ms(request), p.attempted)
		for _, l := range layerOrder {
			fmt.Fprintf(w, "     %-8s %12.1f ms  %6.1f%%\n", l, ms(self[l]), 100*float64(self[l])/float64(max(request, 1)))
		}
		fmt.Fprintf(w, "   tracing overhead: latency_p50 %.3f ms traced vs %.3f ms untraced; throughput %.3f vs %.3f rps\n",
			percentile(p.latMs, 0.5), percentile(out.untraced.latMs, 0.5),
			float64(len(p.latMs))/p.res.wall.Seconds(), float64(len(out.untraced.latMs))/out.untraced.res.wall.Seconds())
	}
	if len(out.problems) == 0 {
		fmt.Fprintf(w, "   checks: all designs pass the oracle; determinism and sanity checks hold\n")
	}
	for _, pr := range out.problems {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", pr)
	}
}
