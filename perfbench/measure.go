package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile is the nearest-rank percentile of raw samples: the
// smallest sample with at least p of the samples at or below it. It is
// always an observed value, never an interpolation or a bucket edge.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resources is a point-in-time reading of the process counters a timed
// phase is diffed over.
type resources struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause uint64
}

func readResources() resources {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return resources{at: time.Now(), cpu: processCPU(), alloc: m.TotalAlloc, gcs: m.NumGC, gcPause: m.PauseTotalNs}
}

// resourceDelta is what a timed phase consumed.
type resourceDelta struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
}

func (r resources) since(earlier resources) resourceDelta {
	return resourceDelta{
		wall:    r.at.Sub(earlier.at),
		cpu:     r.cpu - earlier.cpu,
		alloc:   r.alloc - earlier.alloc,
		gcs:     r.gcs - earlier.gcs,
		gcPause: time.Duration(r.gcPause - earlier.gcPause),
	}
}

// heapSampler tracks the peak live-heap size while it runs, reading
// runtime/metrics (which does not stop the world) every interval.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				if v := sample[0].Value.Uint64(); v > h.peak {
					h.peak = v
				}
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
