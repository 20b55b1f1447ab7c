package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	youtiao "repro"
	"repro/internal/serve"
)

// runConfig is one phase's settings.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	setups  int    // set-up repetitions; the last one is measured
	dir     string // scratch directory for cache trees
}

// phase is everything one timed phase measured.
type phase struct {
	reqs       []request
	listDigest string
	setupSecs  []float64
	simGenMs   float64
	simDraws   int

	attempted int
	failures  map[string]int // outcome class -> requests not OK
	latMs     []float64      // end-to-end latency of OK requests
	designMs  []float64      // time inside the design call
	res       resourceDelta
	log       *designLog

	stages                  youtiao.StageReport // timed-phase delta
	cacheBefore, cacheAfter youtiao.CacheStats
	obsBefore, obsAfter     youtiao.ObsSnapshot
	heapPeakMB              float64
	spans                   *spanLog

	// Open loop over HTTP only.
	lagMs      []float64
	rtMs       []float64
	overheadMs []float64
	respKB     []float64

	// evicting marks a memory tier that evicted, whose stage counters
	// depend on arrival order.
	evicting bool
	// sanity collects broken zero-work predictions.
	sanity []string

	// mu guards failures and the sample slices while clients run.
	mu sync.Mutex
}

func (p *phase) fail(class string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failures == nil {
		p.failures = make(map[string]int)
	}
	p.failures[class]++
}

func (p *phase) failed() int {
	n := 0
	for _, v := range p.failures {
		n += v
	}
	return n
}

// chipSet builds each chip shape once.
type chipSet map[shape]*youtiao.Chip

func (cs chipSet) get(r request) (*youtiao.Chip, error) {
	s := shape{r.Topology, r.Qubits}
	if ch, ok := cs[s]; ok {
		return ch, nil
	}
	ch, err := youtiao.NewChip(r.Topology, r.Qubits)
	if err != nil {
		return nil, err
	}
	cs[s] = ch
	return ch, nil
}

// observe attaches a registry to a traced phase: the cache's store
// counters and the process-global subsystem counters. Untraced phases
// run with observability off, as a library user would by default.
func observe(traced bool, cache *youtiao.SharedCache) *youtiao.ObsRegistry {
	if !traced {
		youtiao.Observe(nil)
		return nil
	}
	reg := youtiao.NewObservability()
	cache.Observe(reg)
	youtiao.Observe(reg)
	return reg
}

// libDesign runs one request through the library and checks the
// result. It returns the design call's start and end and whether the
// request was OK.
func libDesign(ctx context.Context, p *phase, cache *youtiao.SharedCache, ch *youtiao.Chip, r request, workers int, reg *youtiao.ObsRegistry, id int64) (bool, time.Duration) {
	t0 := time.Now()
	res, err := cache.Designer(ch).RedesignCtx(ctx, r.options(workers, reg))
	t1 := time.Now()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			p.fail("timeout")
		} else {
			p.fail("failed")
		}
		return false, 0
	}
	raw, err := json.Marshal(res.Snapshot())
	var dead []int
	if res.Faults != nil {
		dead = res.Faults.DeadQubits
	}
	if err == nil {
		err = p.log.record(r, raw, dead, true)
	}
	t2 := time.Now()
	p.spans.add(id, spanRequest, "", t0, t1)
	p.spans.add(id, spanYoutiao, spanRequest, t0, t1)
	p.spans.add(id, spanCheck, "", t1, t2)
	if err != nil {
		p.fail("check")
		return false, 0
	}
	return true, t1.Sub(t0)
}

// begin opens the timed phase that started at r0: it snapshots the
// cache and registry and, when traced, starts span and heap recording.
func (p *phase) begin(r0 resources, cache *youtiao.SharedCache, reg *youtiao.ObsRegistry, traced bool) (youtiao.StageReport, *heapSampler) {
	p.cacheBefore = cache.Stats()
	p.obsBefore = reg.Snapshot()
	if !traced {
		return cache.StageReport(), nil
	}
	p.spans = newSpanLog(r0.at)
	return cache.StageReport(), startHeapSampler(10 * time.Millisecond)
}

func (p *phase) end(cache *youtiao.SharedCache, reg *youtiao.ObsRegistry, r0 resources, rep0 youtiao.StageReport, hs *heapSampler) {
	p.res = readResources().since(r0)
	if hs != nil {
		p.heapPeakMB = hs.Stop()
	}
	p.stages = cache.StageReport().Sub(rep0)
	p.cacheAfter = cache.Stats()
	p.obsAfter = reg.Snapshot()
	p.evicting = p.cacheAfter.Evictions > p.cacheBefore.Evictions
}

// runCold is cold-design: a closed loop of one client designing
// distinct chips through a fresh memory-only cache.
func runCold(cfg runConfig) (*phase, error) {
	p := &phase{log: newDesignLog(), reqs: coldRequests(cfg.seed, cfg.seconds)}
	p.listDigest = listDigest(p.reqs)
	if again := listDigest(coldRequests(cfg.seed, cfg.seconds)); again != p.listDigest {
		return nil, fmt.Errorf("cold-design: request list is not a function of the seed")
	}
	var cache *youtiao.SharedCache
	var chips chipSet
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		chips = chipSet{}
		for _, r := range p.reqs {
			if _, err := chips.get(r); err != nil {
				return nil, fmt.Errorf("cold-design: %w", err)
			}
		}
		if err := warmUp(); err != nil {
			return nil, err
		}
		cache = youtiao.NewSharedCache(youtiao.CacheConfig{})
		p.setupSecs = append(p.setupSecs, time.Since(start).Seconds())
	}

	reg := observe(cfg.traced, cache)
	r0 := readResources()
	rep0, hs := p.begin(r0, cache, reg, cfg.traced)
	ctx := context.Background()
	for i, r := range p.reqs {
		p.attempted++
		ch, _ := chips.get(r)
		if ok, d := libDesign(ctx, p, cache, ch, r, 2, reg, int64(i)); ok {
			p.latMs = append(p.latMs, ms(d))
			p.designMs = append(p.designMs, ms(d))
		}
	}
	p.end(cache, reg, r0, rep0, hs)
	youtiao.Observe(nil)

	if p.stages.Hits != 0 || p.stages.DiskHits != 0 {
		p.sanity = append(p.sanity, fmt.Sprintf("cold-design recalled %d memory and %d disk artifacts, want 0", p.stages.Hits, p.stages.DiskHits))
	}
	if p.cacheAfter.DiskEntries != 0 || diskWrites(p) != 0 {
		p.sanity = append(p.sanity, "cold-design wrote to a disk tier, want none")
	}
	return p, nil
}

// warmUp designs a small chip of every topology in a throwaway cache,
// so the timed phase does not pay first-use costs (page faults, lazily
// built tables).
func warmUp() error {
	c := youtiao.NewSharedCache(youtiao.CacheConfig{})
	for _, topo := range []string{"square", "hexagon", "heavy-square", "heavy-hexagon", "low-density"} {
		ch, err := youtiao.NewChip(topo, 9)
		if err != nil {
			return err
		}
		if _, err := c.Designer(ch).Redesign(youtiao.Options{Seed: 1, Workers: 2}); err != nil {
			return fmt.Errorf("warm-up design: %w", err)
		}
	}
	return nil
}

// runWarm is warm-restart: set-up designs a fleet into a cache
// directory; the timed phase opens a fresh cache over it with half the
// fleet's memory and two clients read a shuffled stream of the fleet.
func runWarm(cfg runConfig) (*phase, error) {
	p := &phase{}
	fleet, stream := warmRequests(cfg.seed, cfg.seconds)
	p.reqs, p.listDigest = stream, listDigest(stream)
	if _, again := warmRequests(cfg.seed, cfg.seconds); listDigest(again) != p.listDigest {
		return nil, fmt.Errorf("warm-restart: request list is not a function of the seed")
	}
	var dir string
	var fleetBytes int64
	chips := chipSet{}
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		dir = filepath.Join(cfg.dir, fmt.Sprintf("warm-%d", i))
		cache, err := youtiao.OpenSharedCache(youtiao.CacheConfig{Dir: dir})
		if err != nil {
			return nil, fmt.Errorf("warm-restart: %w", err)
		}
		// The fleet's cold designs are the reference every warm read
		// must reproduce byte for byte.
		p.log = newDesignLog()
		setup := &phase{log: p.log}
		for _, r := range fleet {
			ch, err := chips.get(r)
			if err != nil {
				return nil, fmt.Errorf("warm-restart: %w", err)
			}
			if ok, _ := libDesign(context.Background(), setup, cache, ch, r, 2, nil, 0); !ok {
				return nil, fmt.Errorf("warm-restart: fleet design %s failed set-up", r.key())
			}
		}
		fleetBytes = cache.Stats().Bytes
		p.setupSecs = append(p.setupSecs, time.Since(start).Seconds())
		if i+1 < cfg.setups {
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("warm-restart: %w", err)
			}
		}
	}

	// The restart itself, opening the directory, is part of the timed
	// phase.
	r0 := readResources()
	cache, err := youtiao.OpenSharedCache(youtiao.CacheConfig{Dir: dir, MaxBytes: fleetBytes / 2, Shards: 1})
	if err != nil {
		return nil, fmt.Errorf("warm-restart: %w", err)
	}
	reg := observe(cfg.traced, cache)
	rep0, hs := p.begin(r0, cache, reg, cfg.traced)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var lat []float64
			for {
				i := next.Add(1) - 1
				if i >= int64(len(p.reqs)) {
					break
				}
				r := p.reqs[i]
				ch := chips[shape{r.Topology, r.Qubits}]
				ok, d := libDesign(ctx, p, cache, ch, r, 1, reg, i)
				if ok {
					lat = append(lat, ms(d))
				}
			}
			p.mu.Lock()
			p.latMs = append(p.latMs, lat...)
			p.mu.Unlock()
		}()
	}
	wg.Wait()
	p.attempted = len(p.reqs)
	p.designMs = p.latMs
	p.end(cache, reg, r0, rep0, hs)
	youtiao.Observe(nil)

	if p.stages.Misses != 0 {
		p.sanity = append(p.sanity, fmt.Sprintf("warm-restart executed %d stages, want 0", p.stages.Misses))
	}
	return p, nil
}

// churnTarget is one set-up instance of the served deployment: an
// in-process server on a loopback listener and a client limited to two
// connections.
type churnTarget struct {
	srv    *serve.Server
	reg    *youtiao.ObsRegistry
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

func startChurnTarget(dir string) (*churnTarget, error) {
	reg := youtiao.NewObservability()
	srv, err := serve.New(serve.Config{
		MaxInFlight: 2,
		CacheBytes:  64 << 20,
		CacheDir:    dir,
		Obs:         reg,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		return nil, fmt.Errorf("tenant-churn: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("tenant-churn: %w", err)
	}
	t := &churnTarget{
		srv:  srv,
		reg:  reg,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String() + "/v1/design",
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     2,
				MaxIdleConnsPerHost: 2,
				DisableCompression:  true,
			},
		},
	}
	go func() { t.done <- t.hs.Serve(ln) }()
	return t, nil
}

// stop drains the server and waits for its serve loop to return.
func (t *churnTarget) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t.client.CloseIdleConnections()
	err := t.hs.Shutdown(ctx)
	if serr := <-t.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := t.srv.Shutdown(ctx); derr != nil && err == nil {
		err = derr
	}
	return err
}

// designResponse is the part of a /v1/design response the benchmark
// reads: the design exactly as encoded, and the server's design time.
type designResponse struct {
	Design    json.RawMessage `json:"design"`
	ElapsedMs float64         `json:"elapsedMs"`
}

// post sends one request. It returns the outcome class ("ok" or a
// failure class), the response and its size.
func (t *churnTarget) post(r request) (string, *designResponse, int) {
	payload, err := json.Marshal(r.body())
	if err != nil {
		return "failed", nil, 0
	}
	req, err := http.NewRequest(http.MethodPost, t.url, bytes.NewReader(payload))
	if err != nil {
		return "transport", nil, 0
	}
	req.Header.Set("Content-Type", "application/json")
	if r.Client != "" {
		req.Header.Set(serve.ClientIDHeader, r.Client)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return "transport", nil, 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "transport", nil, 0
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "shed", nil, len(body)
	case http.StatusGatewayTimeout:
		return "timeout", nil, len(body)
	default:
		return "failed", nil, len(body)
	}
	var dr designResponse
	if err := json.Unmarshal(body, &dr); err != nil || len(dr.Design) == 0 {
		return "failed", nil, len(body)
	}
	return "ok", &dr, len(body)
}

// runChurn is tenant-churn: an open loop replaying a sim-generated
// trace in wall time against an in-process server over two
// connections, timed from each request's due time.
func runChurn(cfg runConfig) (*phase, error) {
	p := &phase{}
	var target *churnTarget
	timed, base, gen, draws, err := churnRequests(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	p.reqs, p.simGenMs, p.simDraws = timed, ms(gen), draws
	p.listDigest = listDigest(timed)
	if again, _, _, _, _ := churnRequests(cfg.seed, cfg.seconds); listDigest(again) != p.listDigest {
		return nil, fmt.Errorf("tenant-churn: request list is not a function of the seed")
	}
	for i := 0; i < cfg.setups; i++ {
		if target != nil {
			if err := target.stop(); err != nil {
				return nil, err
			}
			target = nil
		}
		start := time.Now()
		dir := filepath.Join(cfg.dir, fmt.Sprintf("churn-%d", i))
		target, err = startChurnTarget(dir)
		if err != nil {
			return nil, err
		}
		p.log = newDesignLog()
		for _, r := range base {
			class, dr, _ := target.post(r)
			if class != "ok" {
				target.stop()
				return nil, fmt.Errorf("tenant-churn: set-up request %s: %s", r.key(), class)
			}
			if err := p.log.record(r, dr.Design, nil, false); err != nil {
				target.stop()
				return nil, fmt.Errorf("tenant-churn: set-up request %s: %w", r.key(), err)
			}
		}
		p.setupSecs = append(p.setupSecs, time.Since(start).Seconds())
	}
	defer target.stop()

	cache := target.srv.Cache()
	reg := target.reg
	if cfg.traced {
		youtiao.Observe(reg)
	} else {
		youtiao.Observe(nil)
	}
	r0 := readResources()
	rep0, hs := p.begin(r0, cache, reg, cfg.traced)
	t0 := r0.at

	// The generator dispatches each request at its due time onto a
	// queue served by two client goroutines (two connections). The
	// queue holds every request, so the generator never blocks.
	queue := make(chan int, len(p.reqs))
	lag := make([]float64, 0, len(p.reqs))
	go func() {
		defer close(queue)
		for i, r := range p.reqs {
			due := t0.Add(time.Duration(r.DueNs))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			lag = append(lag, ms(time.Since(due)))
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := p.reqs[i]
				due := t0.Add(time.Duration(r.DueNs))
				send := time.Now()
				class, dr, size := target.post(r)
				recv := time.Now()
				if class == "ok" {
					if err := p.log.record(r, dr.Design, nil, false); err != nil {
						class = "check"
					}
				}
				checked := time.Now()
				if class != "ok" {
					p.fail(class)
				} else {
					rt := ms(recv.Sub(send))
					p.mu.Lock()
					p.latMs = append(p.latMs, ms(recv.Sub(due)))
					p.rtMs = append(p.rtMs, rt)
					p.designMs = append(p.designMs, dr.ElapsedMs)
					p.overheadMs = append(p.overheadMs, rt-dr.ElapsedMs)
					p.respKB = append(p.respKB, float64(size)/1024)
					p.mu.Unlock()
				}
				id := int64(i)
				p.spans.add(id, spanRequest, "", due, recv)
				p.spans.add(id, spanServe, spanRequest, send, recv)
				if dr != nil {
					p.spans.add(id, spanYoutiao, spanServe, send, send.Add(time.Duration(dr.ElapsedMs*float64(time.Millisecond))))
				}
				p.spans.add(id, spanCheck, "", recv, checked)
			}
		}()
	}
	wg.Wait()
	p.attempted = len(p.reqs)
	p.lagMs = lag
	p.end(cache, reg, r0, rep0, hs)
	youtiao.Observe(nil)
	return p, nil
}
