// Package serve turns the YOUTIAO designer into a long-running,
// multi-tenant design-as-a-service endpoint: POST a chip description to
// /v1/design and get the multiplexed wiring design, a reproducibility
// manifest and stage timings back as JSON.
//
// The pipeline is CPU-heavy (seconds per cold design), so the server is
// engineered for overload rather than throughput: a bounded shared
// artifact cache (identical requests coalesce onto single-flight stage
// executions and memory stays under a fixed budget), admission control
// (at most MaxInFlight designs run, at most MaxQueue wait; excess load
// is shed with 429 + Retry-After instead of queueing unboundedly),
// per-request deadlines threaded into the pipeline's context, panic
// containment (a panicking stage fails its request with 500, never the
// process) and graceful drain (SIGTERM stops admissions, finishes
// in-flight work, then exits). See DESIGN.md, "The serving contract".
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	youtiao "repro"
	"repro/internal/obs"
	"repro/internal/stage"
)

// Server counter and gauge names, pre-registered so /metrics serves a
// stable schema from the first scrape.
const (
	cRequests   = "serve/requests"
	cOK         = "serve/ok"
	cBadRequest = "serve/bad_request"
	cShed       = "serve/shed"
	cTimeouts   = "serve/timeouts"
	cFailed     = "serve/failed"
	cPanics     = "serve/panics"
	gInFlight   = "serve/inflight"
	gQueued     = "serve/queued"
)

// ClientIDHeader names the request header carrying the caller's tenant
// id. Load harnesses (cmd/youtiao-load) set it so per-tenant fairness —
// who got served, who got shed — is observable server-side.
const ClientIDHeader = "X-Client-ID"

// maxTrackedClients bounds the per-client accounting map; ids past the
// bound are folded into the "~other" row so a client-id cardinality
// attack cannot grow server memory.
const maxTrackedClients = 64

// clientOverflow is the fold-in row of per-client accounting once
// maxTrackedClients distinct ids have been seen. The leading '~' cannot
// appear in a sanitized id, so it never collides with a real client.
const clientOverflow = "~other"

// ClientTally is one tenant's request accounting: how many designs it
// asked for and how each ended. Requests = OK + Shed + Errors once the
// request finished (in-flight requests are counted in Requests only).
type ClientTally struct {
	// Requests counts design requests carrying this client id.
	Requests int64 `json:"requests"`
	// OK counts designs served with 200.
	OK int64 `json:"ok"`
	// Shed counts requests dropped by admission control (429) or
	// refused while draining (503).
	Shed int64 `json:"shed"`
	// Errors counts everything else: bad requests, design failures,
	// timeouts and contained panics.
	Errors int64 `json:"errors"`
}

// Config tunes a Server. The zero value is completed by defaults sized
// for a small interactive deployment.
type Config struct {
	// MaxInFlight bounds concurrently executing designs (default 2).
	MaxInFlight int
	// MaxQueue bounds designs waiting for an execution slot (default
	// 2*MaxInFlight). A request arriving past the queue is shed
	// immediately with 429.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before being shed with 429 (default 10s).
	QueueWait time.Duration
	// RequestTimeout caps the design deadline of every request
	// (default 120s). A request's own timeoutMs may shorten it but
	// never extend it.
	RequestTimeout time.Duration
	// MaxQubits rejects chips larger than this with 400 (default
	// 512) — admission control against asymptotically expensive work,
	// not a pipeline limit.
	MaxQubits int
	// CacheBytes bounds the shared artifact cache (default 256 MiB;
	// negative = unbounded). Ignored when Cache is set.
	CacheBytes int64
	// CacheShards spreads the cache over independently locked shards
	// (0 = default). Ignored when Cache is set.
	CacheShards int
	// CacheDir, when non-empty, adds a persistent warm tier under this
	// directory: artifacts survive restarts and replicas pointed at the
	// same directory share their work. Ignored when Cache is set.
	CacheDir string
	// CacheDiskBytes bounds the warm tier (0 = unbounded); the
	// least-recently-used artifacts are garbage-collected past the
	// budget. Ignored when CacheDir is empty or Cache is set.
	CacheDiskBytes int64
	// Cache substitutes a caller-built cache — the chaos tests inject
	// one with a fault wrapper installed.
	Cache *youtiao.SharedCache
	// Obs substitutes a caller-built registry; one is created when nil.
	Obs *youtiao.ObsRegistry
	// Logf receives server log lines (panic reports, drain progress).
	// Defaults to log.Printf; tests set a quiet sink.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 10 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.MaxQubits <= 0 {
		c.MaxQubits = 512
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	} else if c.CacheBytes < 0 {
		c.CacheBytes = 0 // unbounded
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// DesignRequest is the /v1/design request body.
type DesignRequest struct {
	// Topology names the chip family: "square", "hexagon",
	// "heavy-square", "heavy-hexagon" or "low-density".
	Topology string `json:"topology"`
	// Qubits is the approximate chip size (required, >= 2).
	Qubits int `json:"qubits"`
	// Seed drives fabrication and measurement noise (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Theta overrides the TDM parallelism threshold; explicit 0 means
	// "every device above threshold" (the pointer distinguishes unset).
	Theta *float64 `json:"theta,omitempty"`
	// FDMCapacity overrides the qubits-per-XY-line limit.
	FDMCapacity int `json:"fdmCapacity,omitempty"`
	// AnnealSteps refines frequency allocation when positive.
	AnnealSteps int `json:"annealSteps,omitempty"`
	// DefectRate injects uniform device defects and calibration faults.
	DefectRate float64 `json:"defectRate,omitempty"`
	// RetryBudget is the calibration re-measurement budget.
	RetryBudget int `json:"retryBudget,omitempty"`
	// TimeoutMs shortens this request's design deadline below the
	// server's RequestTimeout.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// Options maps the request onto design options. It is the one
// request→Options mapping: the server and the library replay driver
// both call it, so a trace computes identical designs against either.
// Callers set Workers and Obs.
func (r DesignRequest) Options() youtiao.Options {
	opts := youtiao.Options{
		Seed:        r.Seed,
		FDMCapacity: r.FDMCapacity,
		AnnealSteps: r.AnnealSteps,
		RetryBudget: r.RetryBudget,
	}
	if r.Theta != nil {
		opts.Theta, opts.HasTheta = *r.Theta, true
	}
	if r.DefectRate > 0 {
		opts.Faults = youtiao.UniformFaults(r.DefectRate)
	}
	return opts
}

// DesignResponse is the /v1/design response body.
type DesignResponse struct {
	// Design is the wiring design snapshot.
	Design *youtiao.DesignSnapshot `json:"design"`
	// Manifest is the reproducibility record of the design. Stages and
	// Obs are omitted — those are cumulative server state, not
	// per-request facts — so Manifest.StripTimings() of two responses
	// for identical requests are byte-identical.
	Manifest *youtiao.Manifest `json:"manifest"`
	// Stages is the server's cumulative per-stage cache report at
	// response time (runs, hits, misses, wall). Diff two to see what a
	// request re-executed versus recalled.
	Stages *youtiao.StageReport `json:"stages,omitempty"`
	// ElapsedMs is the request's wall time inside the design call.
	ElapsedMs float64 `json:"elapsedMs"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// Server is an overload-robust HTTP front-end over a shared design
// cache. Create with New, mount Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *youtiao.ObsRegistry
	cache *youtiao.SharedCache
	mux   *http.ServeMux

	sem    chan struct{}
	queued atomic.Int64

	// mu guards the drain state: active in-flight designs, the
	// draining flag and the idle broadcast channel. A WaitGroup cannot
	// express "stop admitting, then wait" without an Add/Wait race.
	mu       sync.Mutex
	active   int
	draining bool
	idle     chan struct{}

	// clientsMu guards the per-tenant fairness accounting keyed by the
	// X-Client-ID header (anonymous requests are not tracked).
	clientsMu sync.Mutex
	clients   map[string]*ClientTally

	// now is injectable for tests; defaults to time.Now.
	now func() time.Time
}

// New returns a Server over cfg. It errors only when cfg.CacheDir is
// set and the persistent cache directory cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	cache := cfg.Cache
	if cache == nil {
		var err error
		cache, err = youtiao.OpenSharedCache(youtiao.CacheConfig{
			MaxBytes:  cfg.CacheBytes,
			Shards:    cfg.CacheShards,
			Dir:       cfg.CacheDir,
			DiskBytes: cfg.CacheDiskBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: open cache: %w", err)
		}
	}
	// One registry observes everything: the shared store's metric
	// names and occupancy gauges, and (via Options.Obs on every
	// request) each build's stage outcomes and package counters, so
	// /metrics totals the whole cache and the work behind it.
	cache.Observe(reg)
	for _, name := range []string{cRequests, cOK, cBadRequest, cShed, cTimeouts, cFailed, cPanics} {
		reg.Counter(name)
	}
	reg.Gauge(gInFlight).Set(0)
	reg.Gauge(gQueued).Set(0)

	s := &Server{
		cfg:     cfg,
		reg:     reg,
		cache:   cache,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		now:     time.Now,
		clients: make(map[string]*ClientTally),
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("/v1/design", http.HandlerFunc(s.handleDesign))
	s.mux.Handle("/healthz", http.HandlerFunc(s.handleHealthz))
	s.mux.Handle("/readyz", http.HandlerFunc(s.handleReadyz))
	s.mux.Handle("/metrics", reg.Handler())
	return s, nil
}

// Handler returns the server's root handler: the route mux wrapped in
// panic recovery, so no request — however broken — can crash the
// process. Stage panics are already contained by the artifact store;
// this guards the HTTP layer itself.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.reg.Counter(cPanics).Add(1)
				s.cfg.Logf("serve: panic in %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				// The handler may have written already; a duplicate
				// WriteHeader is logged by net/http and otherwise
				// harmless. Losing one response beats losing the server.
				writeJSON(w, http.StatusInternalServerError,
					errorBody{Error: fmt.Sprintf("internal panic: %v", v)})
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Registry exposes the server's metrics registry (the one behind
// /metrics).
func (s *Server) Registry() *youtiao.ObsRegistry { return s.reg }

// Cache exposes the shared design cache (for stats and tests).
func (s *Server) Cache() *youtiao.SharedCache { return s.cache }

// enter registers one in-flight design; it fails once draining so no
// new work starts after Shutdown begins.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

// leave unregisters an in-flight design and wakes Shutdown when the
// last one finishes.
func (s *Server) leave() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	if s.active == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
}

// Shutdown drains the server: readiness flips to 503 (so load
// balancers stop routing), new design requests are refused with 503,
// and the call blocks until in-flight designs finish or ctx fires.
// Idempotent; safe to call concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.active == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// admit implements admission control: fast-path a free execution slot,
// otherwise queue (bounded by MaxQueue, for at most QueueWait), and
// shed everything else. The returned release must be called exactly
// once when ok.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	release = func() {
		<-s.sem
		s.reg.Gauge(gInFlight).Set(int64(len(s.sem)))
	}
	select {
	case s.sem <- struct{}{}:
		s.reg.Gauge(gInFlight).Set(int64(len(s.sem)))
		return release, true
	default:
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, false
	}
	s.reg.Gauge(gQueued).Set(s.queued.Load())
	defer func() {
		s.reg.Gauge(gQueued).Set(s.queued.Add(-1))
	}()
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		s.reg.Gauge(gInFlight).Set(int64(len(s.sem)))
		return release, true
	case <-timer.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	}
}

// sanitizeClientID normalizes the X-Client-ID header value: printable
// ASCII only (anything else is dropped), at most 64 bytes, and never
// starting with '~' (reserved for the overflow row). Empty in, empty
// out — anonymous requests are not tracked.
func sanitizeClientID(raw string) string {
	var b strings.Builder
	for i := 0; i < len(raw) && b.Len() < 64; i++ {
		c := raw[i]
		if c > 0x20 && c < 0x7f && c != '~' {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// tallyClient applies f to the client's fairness row, folding new ids
// past maxTrackedClients into the overflow row. No-op for an empty id.
func (s *Server) tallyClient(id string, f func(*ClientTally)) {
	if id == "" {
		return
	}
	s.clientsMu.Lock()
	defer s.clientsMu.Unlock()
	t, ok := s.clients[id]
	if !ok {
		if len(s.clients) >= maxTrackedClients {
			id = clientOverflow
			if t = s.clients[id]; t == nil {
				t = &ClientTally{}
				s.clients[id] = t
			}
		} else {
			t = &ClientTally{}
			s.clients[id] = t
		}
	}
	f(t)
}

// ClientStats snapshots the per-tenant fairness accounting: one row per
// client id seen on the X-Client-ID header (plus the "~other" overflow
// row once the tracked-id bound is hit).
func (s *Server) ClientStats() map[string]ClientTally {
	s.clientsMu.Lock()
	defer s.clientsMu.Unlock()
	out := make(map[string]ClientTally, len(s.clients))
	for id, t := range s.clients {
		out[id] = *t
	}
	return out
}

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "use POST"})
		return
	}
	s.reg.Counter(cRequests).Add(1)
	client := sanitizeClientID(r.Header.Get(ClientIDHeader))
	s.tallyClient(client, func(t *ClientTally) { t.Requests++ })

	req, err := decodeDesignRequest(w, r)
	if err != nil {
		s.reg.Counter(cBadRequest).Add(1)
		s.tallyClient(client, func(t *ClientTally) { t.Errors++ })
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if req.Qubits < 2 || req.Qubits > s.cfg.MaxQubits {
		s.reg.Counter(cBadRequest).Add(1)
		s.tallyClient(client, func(t *ClientTally) { t.Errors++ })
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("qubits must be in [2, %d], got %d", s.cfg.MaxQubits, req.Qubits)})
		return
	}
	ch, err := youtiao.NewChip(req.Topology, req.Qubits)
	if err != nil {
		s.reg.Counter(cBadRequest).Add(1)
		s.tallyClient(client, func(t *ClientTally) { t.Errors++ })
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Admission before execution: a shed request costs JSON parsing and
	// chip construction (microseconds), never a design (seconds).
	release, ok := s.admit(r.Context())
	if !ok {
		s.reg.Counter(cShed).Add(1)
		s.tallyClient(client, func(t *ClientTally) { t.Shed++ })
		w.Header().Set("Retry-After", retryAfter(s.cfg.QueueWait))
		writeJSON(w, http.StatusTooManyRequests,
			errorBody{Error: "overloaded: execution slots and queue are full"})
		return
	}
	defer release()
	if !s.enter() {
		s.tallyClient(client, func(t *ClientTally) { t.Shed++ })
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining"})
		return
	}
	defer s.leave()

	opts := req.Options()
	opts.Obs = s.reg

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	res, err := s.cache.Designer(ch).RedesignCtx(ctx, opts)
	elapsed := time.Since(start)
	if err != nil {
		s.tallyClient(client, func(t *ClientTally) { t.Errors++ })
		s.designError(w, err)
		return
	}
	s.tallyClient(client, func(t *ClientTally) { t.OK++ })

	manifest := youtiao.NewManifest(res, opts)
	manifest.CreatedAt = s.now().UTC().Format(time.RFC3339)
	report := s.cache.StageReport()
	s.reg.Counter(cOK).Add(1)
	writeJSON(w, http.StatusOK, DesignResponse{
		Design:    res.Snapshot(),
		Manifest:  manifest,
		Stages:    &report,
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
	})
}

// designError maps a pipeline failure onto the HTTP status contract:
// deadlines are 504 (the request asked for more work than its time
// budget), contained stage panics are 500 with the stage named, and
// other design failures are 422 (the pipeline understood the request
// and could not satisfy it — e.g. too many defects to group).
func (s *Server) designError(w http.ResponseWriter, err error) {
	var pe *stage.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.reg.Counter(cTimeouts).Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
	case errors.As(err, &pe):
		s.reg.Counter(cFailed).Add(1)
		writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: fmt.Sprintf("stage %s panicked: %v", pe.Stage, pe.Value)})
	default:
		s.reg.Counter(cFailed).Add(1)
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process serves requests. Stays 200 while draining —
	// a draining server is healthy, just not ready.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readiness struct {
		Status   string             `json:"status"`
		InFlight int                `json:"inflight"`
		Queued   int64              `json:"queued"`
		Cache    youtiao.CacheStats `json:"cache"`
		// Clients is the per-tenant fairness accounting (requests, ok,
		// shed, errors per X-Client-ID). Map keys marshal sorted, so
		// the rendering is deterministic.
		Clients map[string]ClientTally `json:"clients,omitempty"`
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	body := readiness{
		Status:   "ready",
		InFlight: len(s.sem),
		Queued:   s.queued.Load(),
		Cache:    s.cache.Stats(),
		Clients:  s.ClientStats(),
	}
	code := http.StatusOK
	if draining {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// decodeDesignRequest parses and strictly validates the request body:
// unknown fields are rejected (a typoed option silently designing the
// wrong system is worse than a 400) and bodies are capped at 1 MiB.
func decodeDesignRequest(w http.ResponseWriter, r *http.Request) (*DesignRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req DesignRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bad request body: trailing data after JSON object")
	}
	return &req, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	if _, err := w.Write(append(data, '\n')); err != nil {
		return // client went away; nothing to salvage
	}
}

// retryAfter renders a Retry-After header value from the queue wait: a
// shed client backing off for one queue window has a fresh admission
// chance.
func retryAfter(d time.Duration) string {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
