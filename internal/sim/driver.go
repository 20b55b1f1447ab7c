package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	youtiao "repro"
	"repro/internal/serve"
)

// requestOf is the /v1/design request body of a request event. Both
// drivers start from it: the server driver posts it, the library
// driver maps it through DesignRequest.Options exactly as the server
// does, so a trace run against either target computes identical
// designs.
func requestOf(ev Event) serve.DesignRequest {
	return serve.DesignRequest{
		Topology:    ev.Topology,
		Qubits:      ev.Qubits,
		Seed:        ev.Seed,
		Theta:       ev.Theta,
		FDMCapacity: ev.FDMCapacity,
		AnnealSteps: ev.AnnealSteps,
		DefectRate:  ev.DefectRate,
	}
}

// LibraryDriver runs request events in-process through a shared design
// cache — the same experiments.DesignCache machinery youtiao-serve
// fronts, minus HTTP.
type LibraryDriver struct {
	cache *youtiao.SharedCache
	// designWorkers bounds each design's internal worker pool (the
	// designed system is bit-identical at any value).
	designWorkers int

	mu    sync.Mutex
	chips map[chipShape]*youtiao.Chip
}

type chipShape struct {
	topology string
	qubits   int
}

// NewLibraryDriver returns a driver over cache. designWorkers bounds
// the per-design parallelism (<= 0 selects the pipeline default).
func NewLibraryDriver(cache *youtiao.SharedCache, designWorkers int) *LibraryDriver {
	return &LibraryDriver{
		cache:         cache,
		designWorkers: designWorkers,
		chips:         make(map[chipShape]*youtiao.Chip),
	}
}

// Design implements Driver.
func (d *LibraryDriver) Design(ctx context.Context, ev Event) Outcome {
	ch, err := d.chip(ev.Topology, ev.Qubits)
	if err != nil {
		return Outcome{Class: OutcomeBadRequest, Detail: err.Error()}
	}
	opts := requestOf(ev).Options()
	opts.Workers = d.designWorkers
	if _, err := d.cache.Designer(ch).RedesignCtx(ctx, opts); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return Outcome{Class: OutcomeTimeout, Detail: err.Error()}
		}
		return Outcome{Class: OutcomeFailed, Detail: err.Error()}
	}
	return Outcome{Class: OutcomeOK}
}

// chip returns the shared prototype chip for a shape. Prototypes are
// cached so every request for a shape resolves to one *Chip — the
// design cache keys structurally anyway, this just skips rebuilding.
func (d *LibraryDriver) chip(topology string, qubits int) (*youtiao.Chip, error) {
	key := chipShape{topology: topology, qubits: qubits}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ch, ok := d.chips[key]; ok {
		return ch, nil
	}
	ch, err := youtiao.NewChip(topology, qubits)
	if err != nil {
		return nil, err
	}
	d.chips[key] = ch
	return ch, nil
}

// CacheSummary implements CacheSummarizer with the shared store's
// cumulative per-stage counters. Hand Run a fresh cache per run to make
// this the run's own traffic.
func (d *LibraryDriver) CacheSummary() *CacheSummary {
	rep := d.cache.StageReport()
	cs := &CacheSummary{Hits: rep.Hits, Misses: rep.Misses, DiskHits: rep.DiskHits}
	if total := cs.Hits + cs.DiskHits + cs.Misses; total > 0 {
		cs.HitRate = float64(cs.Hits+cs.DiskHits) / float64(total)
	}
	return cs
}

// ServerDriver runs request events against a live youtiao-serve
// endpoint over HTTP, carrying the tenant id on the X-Client-ID header
// so the server's fairness accounting sees the trace's clients.
type ServerDriver struct {
	base   string
	client *http.Client
	// timeoutMs, when positive, rides on every request body as its
	// design deadline (the server clamps to its own RequestTimeout).
	timeoutMs int64
}

// NewServerDriver returns a driver posting to baseURL (e.g.
// "http://127.0.0.1:8080"). requestTimeout bounds each HTTP exchange
// and, when positive, is also sent as the request's design deadline.
func NewServerDriver(baseURL string, requestTimeout time.Duration) *ServerDriver {
	d := &ServerDriver{
		base:   baseURL,
		client: &http.Client{Timeout: requestTimeout},
	}
	if requestTimeout > 0 {
		d.timeoutMs = requestTimeout.Milliseconds()
	}
	return d
}

// Design implements Driver.
func (d *ServerDriver) Design(ctx context.Context, ev Event) Outcome {
	body := requestOf(ev)
	body.TimeoutMs = d.timeoutMs
	payload, err := json.Marshal(body)
	if err != nil {
		return Outcome{Class: OutcomeBadRequest, Detail: err.Error()}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/design", bytes.NewReader(payload))
	if err != nil {
		return Outcome{Class: OutcomeTransport, Detail: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if ev.Client != "" {
		req.Header.Set(serve.ClientIDHeader, ev.Client)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return Outcome{Class: OutcomeTimeout, Detail: err.Error()}
		}
		return Outcome{Class: OutcomeTransport, Detail: err.Error()}
	}
	// Drain so the connection is reusable; the design body itself is
	// not the harness's concern.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	return Outcome{Class: classifyStatus(resp.StatusCode), Detail: statusDetail(resp.StatusCode)}
}

// classifyStatus maps the serving contract's status codes onto outcome
// classes (see DESIGN.md, "The serving contract").
func classifyStatus(code int) string {
	switch {
	case code == http.StatusOK:
		return OutcomeOK
	case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
		return OutcomeShed
	case code == http.StatusBadRequest:
		return OutcomeBadRequest
	case code == http.StatusGatewayTimeout:
		return OutcomeTimeout
	default:
		return OutcomeFailed
	}
}

func statusDetail(code int) string {
	if code == http.StatusOK {
		return ""
	}
	return fmt.Sprintf("http %d", code)
}
