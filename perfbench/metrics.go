package main

import (
	"sort"
	"time"

	youtiao "repro"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// goodputLimitMs is the latency limit of goodput_300ms_rps.
const goodputLimitMs = 300

// stageNames are the pipeline stages, in pipeline order.
var stageNames = []string{
	"fabricate", "faults", "characterize-xy", "characterize-zz",
	"partition", "fdm-group", "allocate", "anneal", "tdm",
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(p *phase) map[string]metric {
	wall := p.res.wall.Seconds()
	ops := float64(p.attempted)
	ok := float64(len(p.latMs))
	good := 0
	for _, v := range p.latMs {
		if v <= goodputLimitMs {
			good++
		}
	}
	return map[string]metric{
		"setup_s":           {median(p.setupSecs), "s"},
		"throughput_rps":    {ok / wall, "1/s"},
		"goodput_300ms_rps": {float64(good) / wall, "1/s"},
		"latency_p50_ms":    {percentile(p.latMs, 0.50), "ms"},
		"latency_p90_ms":    {percentile(p.latMs, 0.90), "ms"},
		"ok_ratio":          {ok / ops, "ratio"},
		"cpu_ms_per_op":     {ms(p.res.cpu) / ops, "ms"},
		"alloc_mb_per_op":   {float64(p.res.alloc) / (1 << 20) / ops, "MiB"},
		"peak_rss_mb":       {peakRSSMB(), "MiB"},
		"cost_reduction_x":  {p.log.costReduction(), "x"},
	}
}

// obsDelta is the growth of a registry counter over the timed phase.
func obsDelta(p *phase, counter string) float64 {
	return float64(p.obsAfter.Counters[counter] - p.obsBefore.Counters[counter])
}

// gaugeDelta is the growth of an accumulating registry gauge.
func gaugeDelta(p *phase, gauge string) float64 {
	return float64(p.obsAfter.Gauges[gauge] - p.obsBefore.Gauges[gauge])
}

// histDelta is the growth of a registry histogram's count and sum.
func histDelta(p *phase, name string) (float64, time.Duration) {
	a, b := p.obsAfter.Histograms[name], p.obsBefore.Histograms[name]
	return float64(a.Count - b.Count), time.Duration(a.SumNs - b.SumNs)
}

func diskWrites(p *phase) float64 {
	n, _ := histDelta(p, "stage/disk_write")
	return n
}

func stageRow(rep youtiao.StageReport, name string) youtiao.StageStats {
	for _, st := range rep.Stages {
		if st.Name == name {
			return st
		}
	}
	return youtiao.StageStats{Name: name}
}

// stageCritical is the stage execution time on the requests' critical
// path: the sum of executed stage wall times, counting the concurrently
// run characterize-xy and characterize-zz campaigns once (the longer of
// the two).
func stageCritical(rep youtiao.StageReport) time.Duration {
	xy, zz := stageRow(rep, "characterize-xy").Wall, stageRow(rep, "characterize-zz").Wall
	return rep.Wall - min(xy, zz)
}

// selfTimes splits the traced phase's request time into each layer's
// self time: the layer's span time minus the part its children cover.
// The layers are the client (queueing and transport inside the
// benchmark), serve, youtiao (result assembly, key hashing, memory
// hits), stage (executions), cas (disk reads and writes) and the
// benchmark's output check.
func selfTimes(p *phase) (request time.Duration, self map[string]time.Duration) {
	request = p.spans.sum(spanRequest)
	serveT := p.spans.sum(spanServe)
	design := p.spans.sum(spanYoutiao)
	_, readT := histDelta(p, "stage/disk_read")
	_, writeT := histDelta(p, "stage/disk_write")
	cas := readT + writeT
	stage := stageCritical(p.stages)
	inner := design
	if serveT > 0 {
		inner = serveT
	}
	self = map[string]time.Duration{
		"client":  request - inner,
		"serve":   serveT - design,
		"youtiao": max(0, design-stage-cas),
		"stage":   stage,
		"cas":     cas,
		"check":   p.spans.sum(spanCheck),
	}
	if serveT == 0 {
		self["serve"] = 0
	}
	return request, self
}

// perLayer computes the per-layer metrics of a traced phase; untraced
// is the same workload's untraced phase, for the tracing overhead.
func perLayer(p, untraced *phase) map[string]metric {
	n := float64(p.attempted)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("sim.generate_ms", p.simGenMs, "ms")
	put("sim.requests", float64(len(p.lagMs)), "count")
	put("sim.lag_p99_ms", percentile(p.lagMs, 0.99), "ms")

	put("serve.roundtrip_p50_ms", percentile(p.rtMs, 0.50), "ms")
	put("serve.roundtrip_p99_ms", percentile(p.rtMs, 0.99), "ms")
	put("serve.overhead_p50_ms", percentile(p.overheadMs, 0.50), "ms")
	put("serve.overhead_p99_ms", percentile(p.overheadMs, 0.99), "ms")
	put("serve.response_kb", mean(p.respKB), "KiB")
	put("serve.shed", float64(p.failures["shed"]), "count")
	serveErrs := 0
	if p.rtMs != nil {
		serveErrs = p.failed() - p.failures["shed"]
	}
	put("serve.errors", float64(serveErrs), "count")

	put("youtiao.design_p50_ms", percentile(p.designMs, 0.50), "ms")
	put("youtiao.design_p99_ms", percentile(p.designMs, 0.99), "ms")
	put("youtiao.busy_ms", ms(p.spans.sum(spanYoutiao)), "ms")

	st := p.stages
	put("stage.hits", float64(st.Hits), "count")
	put("stage.misses", float64(st.Misses), "count")
	put("stage.disk_hits", float64(st.DiskHits), "count")
	hitRatio := 0.0
	if total := st.Hits + st.DiskHits + st.Misses; total > 0 {
		hitRatio = float64(st.Hits+st.DiskHits) / float64(total)
	}
	put("stage.hit_ratio", hitRatio, "ratio")
	put("stage.execs_per_op", float64(st.Misses)/n, "count")
	put("stage.coalesced", obsDelta(p, "stage/singleflight_waits"), "count")
	put("stage.evictions", float64(p.cacheAfter.Evictions-p.cacheBefore.Evictions), "count")
	put("stage.mem_mb", float64(p.cacheAfter.Bytes)/(1<<20), "MiB")
	for _, name := range stageNames {
		row := stageRow(st, name)
		put("stage."+name+".runs", float64(row.Misses), "count")
		put("stage."+name+".busy_ms", ms(row.Wall), "ms")
	}

	reads, readT := histDelta(p, "stage/disk_read")
	writes, writeT := histDelta(p, "stage/disk_write")
	put("cas.reads", reads, "count")
	put("cas.read_busy_ms", ms(readT), "ms")
	put("cas.writes", writes, "count")
	put("cas.write_busy_ms", ms(writeT), "ms")
	put("cas.decode_errors", float64(p.cacheAfter.DecodeErrors-p.cacheBefore.DecodeErrors), "count")
	put("cas.disk_mb", float64(p.cacheAfter.DiskBytes)/(1<<20), "MiB")
	put("cas.gc_evictions", float64(p.cacheAfter.GCEvictions-p.cacheBefore.GCEvictions), "count")

	put("crosstalk.fits", obsDelta(p, "crosstalk/fits"), "count")
	put("crosstalk.fit_candidates", obsDelta(p, "crosstalk/fit_candidates"), "count")
	put("crosstalk.predictions", obsDelta(p, "crosstalk/predictions"), "count")
	put("faults.pairs", obsDelta(p, "faults/pairs"), "count")
	put("faults.retried", obsDelta(p, "faults/retried"), "count")
	put("parallel.tasks", obsDelta(p, "parallel/tasks"), "count")
	put("parallel.busy_ms", gaugeDelta(p, "parallel/worker_busy_ns")/1e6, "ms")

	put("go.gc_cycles", float64(p.res.gcs), "count")
	put("go.gc_pause_ms", ms(p.res.gcPause), "ms")
	put("go.heap_peak_mb", p.heapPeakMB, "MiB")

	request, self := selfTimes(p)
	put("request.busy_ms", ms(request), "ms")
	put("request.latency_p99_ms", percentile(p.latMs, 0.99), "ms")
	for _, layer := range layerOrder {
		put(layer+".self_ms", ms(self[layer]), "ms")
		share := 0.0
		if request > 0 {
			share = float64(self[layer]) / float64(request)
		}
		put(layer+".self_share", share, "ratio")
	}

	if untraced != nil {
		put("trace.p50_ratio", percentile(p.latMs, 0.5)/percentile(untraced.latMs, 0.5), "ratio")
		put("trace.throughput_ratio",
			(float64(len(p.latMs))/p.res.wall.Seconds())/(float64(len(untraced.latMs))/untraced.res.wall.Seconds()), "ratio")
	}
	return m
}

// layerOrder lists the self-time layers from the outside in.
var layerOrder = []string{"client", "serve", "youtiao", "stage", "cas", "check"}

// sortedNames returns a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
