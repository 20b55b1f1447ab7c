package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	youtiao "repro"
	"repro/internal/stage"
)

// quiet silences server logs in tests.
func quiet(string, ...any) {}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = quiet
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// post fires one request at the handler and returns the recorder.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	h.ServeHTTP(rec, req)
	return rec
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func decodeResponse(t *testing.T, rec *httptest.ResponseRecorder) *DesignResponse {
	t.Helper()
	var resp DesignResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v\nbody: %s", err, rec.Body.String())
	}
	return &resp
}

// TestDesignHappyPath: a valid request designs the chip and returns a
// complete snapshot, a manifest and stage timings.
func TestDesignHappyPath(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()

	rec := post(h, "/v1/design", `{"topology": "square", "qubits": 4, "seed": 3}`)
	if rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	resp := decodeResponse(t, rec)
	if resp.Design == nil || resp.Design.Chip.Qubits != 4 {
		t.Fatalf("design = %+v", resp.Design)
	}
	if len(resp.Design.FDMLines) == 0 || len(resp.Design.TDMGroups) == 0 {
		t.Fatalf("design missing groupings: %+v", resp.Design)
	}
	if resp.Manifest == nil || resp.Manifest.Seed != 3 || resp.Manifest.CreatedAt == "" {
		t.Fatalf("manifest = %+v", resp.Manifest)
	}
	if resp.Manifest.Stages != nil || resp.Manifest.Obs != nil {
		t.Fatal("response manifest must not embed cumulative server state")
	}
	if resp.Stages == nil || len(resp.Stages.Stages) == 0 {
		t.Fatal("response missing stage report")
	}

	// A second identical request is served from cache: zero new misses.
	before := srv.Cache().StageReport()
	rec = post(h, "/v1/design", `{"topology": "square", "qubits": 4, "seed": 3}`)
	if rec.Code != 200 {
		t.Fatalf("warm status = %d", rec.Code)
	}
	delta := srv.Cache().StageReport().Sub(before)
	if delta.Misses != 0 {
		t.Fatalf("warm request missed %d stages", delta.Misses)
	}
}

// TestColdRequestCountsPackageCounters: a request's build carries the
// server's registry, so the package counters of the work it executes —
// the fit, the calibration campaign, the worker pool — reach
// Server.Registry() and /metrics without any process-global setup.
func TestColdRequestCountsPackageCounters(t *testing.T) {
	srv := newTestServer(t, Config{})
	if rec := post(srv.Handler(), "/v1/design", `{"topology": "square", "qubits": 9, "seed": 5}`); rec.Code != 200 {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	for _, name := range []string{"crosstalk/fits", "faults/pairs", "parallel/tasks"} {
		if got := srv.Registry().Counter(name).Load(); got <= 0 {
			t.Errorf("%s = %d after a cold request, want > 0", name, got)
		}
	}
}

// TestDesignRejectsBadRequests: malformed bodies, unknown fields, bad
// topologies and out-of-range sizes are 400s and count as bad requests,
// never reaching the pipeline.
func TestDesignRejectsBadRequests(t *testing.T) {
	srv := newTestServer(t, Config{MaxQubits: 100})
	h := srv.Handler()

	cases := []struct {
		name, body string
	}{
		{"malformed", `{"topology": `},
		{"unknown field", `{"topology": "square", "qubits": 4, "qbits": 9}`},
		{"trailing data", `{"topology": "square", "qubits": 4} {"again": true}`},
		{"bad topology", `{"topology": "klein-bottle", "qubits": 4}`},
		{"too small", `{"topology": "square", "qubits": 1}`},
		{"too large", `{"topology": "square", "qubits": 101}`},
	}
	for _, tc := range cases {
		rec := post(h, "/v1/design", tc.body)
		if rec.Code != 400 {
			t.Fatalf("%s: status = %d, want 400 (body %s)", tc.name, rec.Code, rec.Body.String())
		}
	}
	if got := srv.Registry().Counter("serve/bad_request").Load(); got != int64(len(cases)) {
		t.Fatalf("serve/bad_request = %d, want %d", got, len(cases))
	}

	rec := get(h, "/v1/design")
	if rec.Code != 405 {
		t.Fatalf("GET /v1/design = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "POST" {
		t.Fatalf("Allow = %q", allow)
	}
}

// TestDesignDeadline: a request whose own timeoutMs expires mid-design
// returns 504 and counts a timeout.
func TestDesignDeadline(t *testing.T) {
	srv := newTestServer(t, Config{})
	rec := post(srv.Handler(), "/v1/design", `{"topology": "square", "qubits": 64, "timeoutMs": 1}`)
	if rec.Code != 504 {
		t.Fatalf("status = %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	if got := srv.Registry().Counter("serve/timeouts").Load(); got != 1 {
		t.Fatalf("serve/timeouts = %d", got)
	}
}

// TestCoalescing: N concurrent identical requests share single-flight
// stage executions — each pipeline stage runs exactly once — and return
// byte-identical designs and (stripped) manifests.
func TestCoalescing(t *testing.T) {
	const n = 8
	srv := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: n, QueueWait: time.Minute})
	h := srv.Handler()

	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = post(h, "/v1/design", `{"topology": "hexagon", "qubits": 6, "seed": 11}`)
		}(i)
	}
	wg.Wait()

	var designs [][]byte
	var manifests [][]byte
	for i, rec := range recs {
		if rec.Code != 200 {
			t.Fatalf("request %d: status %d, body %s", i, rec.Code, rec.Body.String())
		}
		resp := decodeResponse(t, rec)
		d, err := json.Marshal(resp.Design)
		if err != nil {
			t.Fatal(err)
		}
		m, err := resp.Manifest.StripTimings().JSON()
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
		manifests = append(manifests, m)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(designs[0], designs[i]) {
			t.Fatalf("coalesced designs diverge:\n%s\nvs\n%s", designs[0], designs[i])
		}
		if !bytes.Equal(manifests[0], manifests[i]) {
			t.Fatalf("stripped manifests diverge:\n%s\nvs\n%s", manifests[0], manifests[i])
		}
	}

	// Exactly one execution per stage (Misses counts executions; Runs
	// counts invocations): the store coalesced all N requests onto one
	// pipeline build.
	report := srv.Cache().StageReport()
	for _, st := range report.Stages {
		if st.Misses != 1 {
			t.Fatalf("stage %s executed %d times across %d identical requests", st.Name, st.Misses, n)
		}
		if st.Runs != n {
			t.Fatalf("stage %s saw %d invocations, want %d", st.Name, st.Runs, n)
		}
	}
	if len(report.Stages) == 0 {
		t.Fatal("no stages recorded")
	}
}

// TestOverloadSheds: with one execution slot and one queue seat, a
// burst of four requests resolves deterministically — two designs, two
// 429s with Retry-After — because admission is decided before any work
// starts.
func TestOverloadSheds(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 30 * time.Second})
	h := srv.Handler()

	// Park the first request in the execution slot: its fabricate stage
	// blocks until released.
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.Cache().WrapExec(func(name string, key stage.Key, fn func(context.Context) (any, error)) func(context.Context) (any, error) {
		if name != "fabricate" {
			return fn
		}
		return func(ctx context.Context) (any, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return fn(ctx)
		}
	})

	const body = `{"topology": "square", "qubits": 4, "seed": 5}`
	recs := make([]*httptest.ResponseRecorder, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs[0] = post(h, "/v1/design", body)
	}()
	<-started // the slot is held; everything below contends

	var burst sync.WaitGroup
	for i := 1; i < 4; i++ {
		burst.Add(1)
		go func(i int) {
			defer burst.Done()
			recs[i] = post(h, "/v1/design", body)
		}(i)
	}
	// Of the three contenders, one takes the queue seat and two are
	// shed immediately. Wait for the two 429s before unblocking so the
	// outcome is deterministic, then release the slot.
	deadline := time.After(10 * time.Second)
	for srv.Registry().Counter("serve/shed").Load() < 2 {
		select {
		case <-deadline:
			t.Fatalf("shed counter stuck at %d", srv.Registry().Counter("serve/shed").Load())
		case <-time.After(time.Millisecond):
		}
	}
	close(block)
	wg.Wait()
	burst.Wait()

	var oks, sheds int
	for i, rec := range recs {
		switch rec.Code {
		case 200:
			oks++
		case 429:
			sheds++
			if ra := rec.Header().Get("Retry-After"); ra != "30" {
				t.Fatalf("request %d: Retry-After = %q, want \"30\"", i, ra)
			}
		default:
			t.Fatalf("request %d: unexpected status %d (body %s)", i, rec.Code, rec.Body.String())
		}
	}
	if oks != 2 || sheds != 2 {
		t.Fatalf("burst resolved to %d oks + %d sheds, want 2 + 2", oks, sheds)
	}
	if got := srv.Registry().Counter("serve/shed").Load(); got != 2 {
		t.Fatalf("serve/shed = %d, want 2", got)
	}
}

// TestHealthEndpoints: healthz is always 200; readyz reports state and
// flips to 503 on drain; metrics serves the counter schema.
func TestHealthEndpoints(t *testing.T) {
	srv := newTestServer(t, Config{})
	h := srv.Handler()

	if rec := get(h, "/healthz"); rec.Code != 200 {
		t.Fatalf("healthz = %d", rec.Code)
	}
	rec := get(h, "/readyz")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ready"`) {
		t.Fatalf("readyz = %d %s", rec.Code, rec.Body.String())
	}

	rec = get(h, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("metrics = %d", rec.Code)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("metrics Cache-Control = %q", cc)
	}
	for _, counter := range []string{"serve/requests", "serve/shed", "serve/panics", "stage/evictions"} {
		if !strings.Contains(rec.Body.String(), fmt.Sprintf("%q", counter)) {
			t.Fatalf("metrics missing pre-registered counter %s:\n%s", counter, rec.Body.String())
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rec := get(h, "/readyz"); rec.Code != 503 {
		t.Fatalf("draining readyz = %d, want 503", rec.Code)
	}
	if rec := get(h, "/healthz"); rec.Code != 200 {
		t.Fatalf("draining healthz = %d, want 200", rec.Code)
	}
	rec = post(h, "/v1/design", `{"topology": "square", "qubits": 4}`)
	if rec.Code != 503 {
		t.Fatalf("design during drain = %d, want 503", rec.Code)
	}
}

// TestPanicMiddleware: a panic escaping a handler is converted to a 500
// and counted; the server keeps serving.
func TestPanicMiddleware(t *testing.T) {
	srv := newTestServer(t, Config{})
	srv.now = func() time.Time { panic("clock exploded") }
	h := srv.Handler()

	rec := post(h, "/v1/design", `{"topology": "square", "qubits": 4}`)
	if rec.Code != 500 {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if got := srv.Registry().Counter("serve/panics").Load(); got != 1 {
		t.Fatalf("serve/panics = %d", got)
	}

	srv.now = time.Now
	rec = post(h, "/v1/design", `{"topology": "square", "qubits": 4}`)
	if rec.Code != 200 {
		t.Fatalf("post-panic status = %d — server did not recover", rec.Code)
	}
}

// TestWarmRestartServesFromDisk: a server restarted against the cache
// directory of a previous one serves the repeated request entirely from
// the disk tier — zero stage executions, byte-identical stripped
// manifest — and /readyz surfaces the disk-tier stats.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheDir: dir}
	body := `{"topology": "square", "qubits": 9, "seed": 7}`

	first := newTestServer(t, cfg)
	rec := post(first.Handler(), "/v1/design", body)
	if rec.Code != 200 {
		t.Fatalf("first server status = %d: %s", rec.Code, rec.Body.String())
	}
	firstResp := decodeResponse(t, rec)

	// The "restart": a fresh server over the same directory, with an
	// empty memory tier.
	second := newTestServer(t, cfg)
	rec = post(second.Handler(), "/v1/design", body)
	if rec.Code != 200 {
		t.Fatalf("restarted server status = %d: %s", rec.Code, rec.Body.String())
	}
	secondResp := decodeResponse(t, rec)

	st := second.Cache().StageReport()
	if st.Misses != 0 {
		t.Fatalf("restarted server re-executed %d stages", st.Misses)
	}
	if st.DiskHits == 0 {
		t.Fatal("restarted server took no disk hits")
	}
	stats := second.Cache().Stats()
	if stats.DiskHits == 0 || stats.DiskEntries == 0 || stats.DecodeErrors != 0 {
		t.Fatalf("cache stats after warm restart: %+v", stats)
	}

	// The recalled design is byte-identical to the computed one.
	a, err := firstResp.Manifest.StripTimings().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := secondResp.Manifest.StripTimings().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("stripped manifests differ across restart:\n%s\n----\n%s", a, b)
	}
	aj, _ := json.Marshal(firstResp.Design)
	bj, _ := json.Marshal(secondResp.Design)
	if !bytes.Equal(aj, bj) {
		t.Error("designs differ across restart")
	}

	// /readyz exposes the disk tier.
	rec = get(second.Handler(), "/readyz")
	if rec.Code != 200 {
		t.Fatalf("readyz = %d", rec.Code)
	}
	var ready struct {
		Cache youtiao.CacheStats `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Cache.DiskHits == 0 || ready.Cache.DiskEntries == 0 {
		t.Fatalf("readyz cache stats missing disk tier: %+v", ready.Cache)
	}
}

// A cache directory that cannot be created surfaces as a constructor
// error, not a panic or a silently memory-only server.
func TestBadCacheDirFailsConstruction(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CacheDir: file, Logf: quiet}); err == nil {
		t.Fatal("New accepted a cache dir path occupied by a file")
	}
}

// TestDesignRequestOptions: the request→Options mapping honors an
// explicit Theta 0 (distinct from an absent Theta) and injects faults
// only for a positive defect rate.
func TestDesignRequestOptions(t *testing.T) {
	zero, four := 0.0, 4.0
	base := DesignRequest{Topology: "square", Qubits: 9, Seed: 7, FDMCapacity: 3, AnnealSteps: 20, RetryBudget: 2}
	cases := []struct {
		name       string
		theta      *float64
		defectRate float64
		want       youtiao.Options
	}{
		{"defaults", nil, 0, youtiao.Options{}},
		{"explicit-theta-0", &zero, 0, youtiao.Options{Theta: 0, HasTheta: true}},
		{"theta-4", &four, 0, youtiao.Options{Theta: 4, HasTheta: true}},
		{"defects", nil, 0.02, youtiao.Options{Faults: youtiao.UniformFaults(0.02)}},
	}
	for _, tc := range cases {
		req := base
		req.Theta, req.DefectRate = tc.theta, tc.defectRate
		want := tc.want
		want.Seed, want.FDMCapacity, want.AnnealSteps, want.RetryBudget = 7, 3, 20, 2
		if got := req.Options(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Options() = %+v, want %+v", tc.name, got, want)
		}
	}
}
