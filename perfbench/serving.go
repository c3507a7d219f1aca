package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The serving workloads drive an in-process fleet (2 replicas behind the
// router) over loopback HTTP.
//
// serve-warm: independent users, so an open loop at a few fixed offered
// rates, over results the fleet already holds. The request mix is the
// "mixed" phase of seda-loadgen's built-in hot-mix scenario
// (internal/loadgen/builtin.go), copied below as constants so the
// benchmark does not depend on the load generator's code:
// class weights sweep 16, explore 1, catalog 2; sweeps over figures 5b
// and 6b x five subsets of let, ncf and sent, Zipf-ranked in that listed
// order with exponent 1.2, 20% negotiating CSV and 30% revalidating with
// If-None-Match; explore over the scenario's two grid specs; catalog
// over /v1/workloads and /v1/schemes. Two departures, both to keep the
// simulator idle: explore requests are revalidations (the explore
// handler recalibrates its surrogate with cycle-accurate runs on every
// request that is not one, so a re-fetch is simulator work, not a warm
// read), and the grids cover let, ncf and sent rather than the full
// suite, which only shortens the fill since a revalidation evaluates
// nothing. The offered rates and the capacity probe are the
// benchmark's, not the scenario's 80 requests/s.
//
// serve-cold: callers that wait for fresh evaluations, so a closed loop
// with one client per CPU, starting from empty caches. Requests are
// single-workload sweeps over small and medium workloads on both
// presets and small explore grids over non-preset geometries drawn from
// a space large enough that most confirmations are fresh.

const (
	replicas = 2

	// requestTimeout fails a request that hangs instead of letting it
	// stall the run past its time limit.
	requestTimeout = 30 * time.Second

	// warmLatencyLimitMS is serve-warm's latency limit on the tail
	// percentile; a rate meets it only with no failed request and a
	// generator backlog that does not grow by more than a quarter of it.
	warmLatencyLimitMS = 25
	warmReference      = 0 // index into warmRates of the reference rate
	warmMaxInflight    = 64

	warmPhaseRequests = 1500   // arrivals per open-loop phase: enough for a p99
	warmProbeRequests = 100000 // generated; a run uses a prefix

	coldSequence   = 20000 // requests generated; a run uses a prefix
	coldSweepShare = 0.3

	// coldRSSRequests is after how many completed requests serve-cold
	// reads its peak resident set: the caches grow with every fresh
	// result, so a peak read at the end would grow with the host's speed.
	coldRSSRequests = 2000
)

// The hot-mix scenario's mixed phase (see above).
const (
	hotSweepWeight   = 16
	hotExploreWeight = 1
	hotCatalogWeight = 2
	hotZipf          = 1.2
	hotCSV           = 0.2
	hotRevalidate    = 0.3
)

var (
	hotFigs    = []string{"5b", "6b"}
	hotSubsets = [][]string{{"let", "ncf", "sent"}, {"let", "ncf"}, {"let"}, {"ncf"}, {"sent"}}
	hotSpecs   = []string{"rows=16|32", "rows=16|32,channels=2|4"}
	// hotGridWorkloads replaces the scenario's full suite on explore.
	hotGridWorkloads = []string{"let", "ncf", "sent"}
	hotCatalog       = []string{"/v1/workloads", "/v1/schemes"}
)

// warmRates are serve-warm's fixed offered rates, requests per second.
var warmRates = []float64{300, 600, 1200}

var (
	smallWorkloads  = []string{"let", "dlrm", "ncf", "sent"}
	mediumWorkloads = []string{"mob", "rest", "goo", "algo", "trf"}
	// The explore grids' geometry space: about 77k configurations, so a
	// run's confirmations rarely repeat and serve-cold stays cold. No
	// bandwidth equals a preset's, so no point is a preset.
	gridDims        = []string{"8", "10", "12", "14", "16", "20", "24", "28", "36", "40", "44", "48", "56", "64", "72", "80", "96", "112", "128", "160"}
	gridBandwidths  = []string{"3G", "4G", "5G", "6G", "7G", "8G", "12G", "14G", "16G", "24G", "32G", "40G"}
	gridFrequencies = []string{"800M", "1.2G", "1.5G", "1.8G", "2.2G", "2.5G", "3G", "3.5G"}
)

// entry is one representation the fleet serves and what must come back.
// Exactly one of sweep, explore and catalog is set.
type entry struct {
	sweep   *sweepSel
	explore *exploreSel
	catalog string // a catalog route, answered by the router itself
	etag    string // serve-warm: taken from the fill response
	digest  string // expected SHA-256 of the body
}

func (e *entry) path() string {
	switch {
	case e.sweep != nil:
		return e.sweep.path()
	case e.explore != nil:
		return e.explore.path()
	}
	return e.catalog
}

func (e *entry) csv() bool {
	switch {
	case e.sweep != nil:
		return e.sweep.CSV
	case e.explore != nil:
		return e.explore.CSV
	}
	return false
}

func (e *entry) key() string { return fmt.Sprintf("%s|csv=%v", e.path(), e.csv()) }

// call is one scheduled serve-warm request.
type call struct {
	entry int
	inm   bool // revalidate with If-None-Match instead of fetching
}

// phase is one serve-warm open-loop phase at a fixed offered rate.
type phase struct {
	rate    float64
	offsets []time.Duration
	calls   []call
}

type serving struct {
	cold   bool
	fleet  *fleet
	client *http.Client
	hops   *hopLog // traced runs only
	info   map[string]any

	catalog []entry // serve-warm
	phases  []phase // serve-warm
	probe   []call  // serve-warm closed-loop capacity probe
	seq     []entry // serve-cold
}

func (s *serving) setup(cfg config) error {
	s.info = map[string]any{}
	tmp := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "fleet-")
	if err != nil {
		return err
	}
	s.info["cache_dir"] = dir
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}, Timeout: requestTimeout}
	var wrap wrapFunc
	if cfg.trace {
		s.hops = newHopLog()
		wrap = s.hops.wrap
	}

	rng := newRNG(cfg.seed, 1)
	if s.cold {
		s.seq = coldRequests(rng)
		s.info["schedule_digest"] = digestEntries(s.seq, nil)
	} else {
		s.catalog = warmCatalog()
		s.phases, s.probe = warmPhases(rng)
		s.info["schedule_digest"] = digestEntries(s.catalog, append(s.phases, phase{calls: s.probe}))
	}

	if s.fleet, err = startFleet(dir, replicas, wrap); err != nil {
		return err
	}
	s.info["random_ports"] = s.fleet.randomPorts
	if s.cold {
		if err := warmPipeline(context.Background(), append(append([]string(nil), smallWorkloads...), mediumWorkloads...)); err != nil {
			return err
		}
		st, _, err := s.get("/v1/workloads", false, "", "setup")
		if err != nil || st != http.StatusOK {
			return fmt.Errorf("fleet not answering: status %d: %v", st, err)
		}
		return nil
	}
	return s.fillWarm()
}

// fillWarm fetches every catalog entry once through the router, which
// evaluates and caches it, and checks each body against a reference
// computed by calling seda and explore directly.
func (s *serving) fillWarm() error {
	ref := newSweepRef()
	for i := range s.catalog {
		e := &s.catalog[i]
		req, err := s.request(e.path(), e.csv(), "", fmt.Sprintf("fill.%d", i))
		if err != nil {
			return err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fill %s: status %d: %s", e.path(), resp.StatusCode, body)
		}
		e.etag = resp.Header.Get("ETag")
		var want []byte
		switch {
		case e.sweep != nil:
			want, err = ref.body(*e.sweep)
		case e.explore != nil:
			want, err = exploreBody(context.Background(), *e.explore, nil)
		}
		if err != nil {
			return err
		}
		// A wrong fill is not a set-up error: the entry keeps the
		// reference digest, so every measured fetch of it fails. The
		// catalog's wire form is the program's own; what is checked is
		// that it lists the program's workloads or schemes in order.
		e.digest = hexSHA(want)
		if e.catalog != "" {
			e.digest = "catalog does not list the program's names"
			if catalogOK(e.catalog, body) {
				e.digest = hexSHA(body)
			}
		}
		if hexSHA(body) != e.digest {
			wrong, _ := s.info["wrong_fills"].([]string) // absent until the first
			s.info["wrong_fills"] = append(wrong, e.key())
		}
	}
	// One more pass over the catalog, fetching and revalidating as the
	// mix does, warms connections and the replicas' memory caches.
	for i := range s.catalog {
		e := &s.catalog[i]
		for _, inm := range []bool{false, true} {
			if (inm && e.catalog == "") || (!inm && e.explore == nil) {
				if _, err := s.check(e, inm, "warm"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (s *serving) close() {
	if s.fleet != nil {
		s.fleet.close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if dir, ok := s.info["cache_dir"].(string); ok {
		os.RemoveAll(dir) //nolint:errcheck // best effort: it lives under .bench_build
		delete(s.info, "cache_dir")
	}
}

func (s *serving) request(path string, csv bool, etag, rid string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodGet, s.fleet.URL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", rid)
	if csv {
		req.Header.Set("Accept", "text/csv")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	return req, nil
}

// get sends one request and returns its status and the SHA-256 of its body.
func (s *serving) get(path string, csv bool, etag, rid string) (int, string, error) {
	req, err := s.request(path, csv, etag, rid)
	if err != nil {
		return 0, "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	if etag != "" && resp.StatusCode == http.StatusNotModified && resp.Header.Get("ETag") != etag {
		return resp.StatusCode, "", fmt.Errorf("304 with ETag %q, want %q", resp.Header.Get("ETag"), etag)
	}
	return resp.StatusCode, hex.EncodeToString(h.Sum(nil)), nil
}

// check fetches (or revalidates) a warm entry and reports whether the
// answer is right: the reference body, or a 304 for a revalidation.
func (s *serving) check(e *entry, inm bool, rid string) (bool, error) {
	if inm {
		st, _, err := s.get(e.path(), e.csv(), e.etag, rid)
		return err == nil && st == http.StatusNotModified, err
	}
	st, dig, err := s.get(e.path(), e.csv(), "", rid)
	return err == nil && st == http.StatusOK && dig == e.digest, err
}

func (s *serving) measure(cfg config) (*report, error) {
	r := &report{info: s.info}
	if s.hops != nil {
		s.hops.reset()
	}
	cache0 := s.fleet.cacheStats()
	stage0, err := s.fleet.stageSeconds()
	if err != nil {
		return nil, err
	}
	var rt runtimeDelta
	rt.begin()
	var clients []clientReq
	if s.cold {
		clients = s.runCold(cfg, r)
	} else {
		clients = s.runWarm(cfg, r)
	}
	rt.end()
	// serve-cold reads its peak during the loop, and so before
	// verifyCold: the check's own evaluations must not count as the
	// fleet's memory.
	if !s.cold {
		r.set("rss_peak_mb", rssPeakMB())
	}
	cache := s.fleet.cacheStats().sub(cache0)
	r.info["rescache"] = cache
	r.info["rescache_hit_rate"] = cache.hitRate()
	if !s.cold && cache.Computes > 0 {
		// A warm run must not evaluate anything; each compute is a
		// request that missed its cached result.
		r.failed += int(cache.Computes)
	}
	if s.cold {
		if err := s.verifyCold(clients, r); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		return r, nil
	}

	stage1, err := s.fleet.stageSeconds()
	if err != nil {
		return nil, err
	}
	n := float64(len(clients))
	r.set("dram.busy_s", (stage1[stageDrain]-stage0[stageDrain])/n)
	r.set("memprot.busy_s", (stage1[stageProtect]-stage0[stageProtect])/n)
	r.set("scalesim.busy_s", (stage1[stageScalesim]-stage0[stageScalesim])/n)
	r.set("rescache.hit_rate", cache.hitRate())
	r.set("rescache.computes", float64(cache.Computes))
	r.set("rescache.coalesced", float64(cache.Coalesced))
	r.set("rescache.disk_hits", float64(cache.DiskHits))
	r.set("rescache.shed", float64(cache.Shed))
	r.set("runtime.alloc_mb_per_op", rt.allocMB()/n)
	r.set("runtime.gc_cycles_per_op", rt.gcs()/n)
	s.hopMetrics(clients, r)
	return r, nil
}

// clientReq is one measured request as the client saw it.
type clientReq struct {
	rid        string
	entry      *entry
	sent, done time.Duration // actual send and completion, from the loop start
	status     int
	digest     string
	ok         bool
}

func (s *serving) runWarm(cfg config, r *report) []clientReq {
	var all []clientReq
	var phases []map[string]any
	goodput := 0.0
	for pi, ph := range s.phases {
		dur := warmPhaseDur(ph.rate)
		reqs := make([]clientReq, len(ph.calls))
		ss := openLoop(context.Background(), ph.offsets, warmMaxInflight, func(i int) bool {
			c := ph.calls[i]
			e := &s.catalog[c.entry]
			reqs[i] = clientReq{rid: fmt.Sprintf("w%d.%d", pi, i), entry: e}
			ok, _ := s.check(e, c.inm, reqs[i].rid)
			reqs[i].ok = ok
			return ok
		})
		var lat, late []float64
		fails, within := 0, 0
		for i, x := range ss {
			reqs[i].sent, reqs[i].done = x.sent, x.done
			lat = append(lat, ms(x.latency()))
			late = append(late, ms(x.lateness()))
			if !x.ok {
				fails++
			} else if ms(x.latency()) <= warmLatencyLimitMS {
				within++
			}
		}
		r.attempted += len(ss)
		r.failed += fails
		all = append(all, reqs[:len(ss)]...)

		tail := tailPercentile(len(lat))
		growth := ms(latenessGrowth(ss))
		pass := tail > 0 && percentile(lat, tail) <= warmLatencyLimitMS && fails == 0 && growth <= warmLatencyLimitMS/4
		rate := float64(within) / dur.Seconds()
		if pass {
			goodput = rate
		}
		if pi == warmReference {
			r.info["reference_rps"] = ph.rate
			r.info["reference_latency_p50_ms"] = median(lat)
			r.info["reference_latency_samples"] = len(lat)
			if tail >= 99 {
				r.info["latency_p99_ms"] = percentile(lat, 99)
			}
		}
		phases = append(phases, map[string]any{
			"offered_rps": ph.rate, "requests": len(lat), "failed": fails,
			"latency_p50_ms": median(lat), "tail_pct": tail, "latency_tail_ms": percentile(lat, tail),
			"lateness_p50_ms": median(late), "lateness_p99_ms": percentile(late, 99), "lateness_growth_ms": growth,
			"goodput_rps": rate, "meets_limits": pass,
		})
	}
	r.info["phases"] = phases
	r.info["goodput_rps"] = goodput
	r.info["latency_limit_ms"] = warmLatencyLimitMS

	// Capacity: the same mix in a closed loop, one client per CPU. Its
	// median latency is the bounded one: at the light fixed rates the
	// latency follows how the host wakes idle vCPUs, which the pace does
	// not track; on one shared host the 300/s median moved between 1.7
	// and 5.3 ms from run to run.
	probe := make([]clientReq, len(s.probe))
	pace := newPacer(readPace)
	n, rates, scale := pacedClosedLoop(pace, runtime.NumCPU(), len(s.probe), warmProbeDur(cfg.duration()), func(i int) {
		c := s.probe[i]
		e := &s.catalog[c.entry]
		q := clientReq{rid: fmt.Sprintf("p.%d", i), entry: e}
		start := time.Now()
		q.ok, _ = s.check(e, c.inm, q.rid)
		q.done = time.Since(start)
		probe[i] = q
	})
	var lat, raw []float64
	for i, q := range probe[:n] {
		r.attempted++
		if !q.ok {
			r.failed++
		}
		lat = append(lat, ms(q.done)*scale[i])
		raw = append(raw, ms(q.done))
	}
	r.set("latency_p50_ms", median(lat))
	r.set("throughput_rps", median(rates))
	r.info["throughput_slice_rps"] = rates
	r.info["latency_p50_ms_raw"] = median(raw)
	r.info["latency_samples"] = n
	r.info["probe_requests"] = n
	r.info["pace_s"] = pace.readings
	return append(all, probe[:n]...)
}

func (s *serving) runCold(cfg config, r *report) []clientReq {
	reqs := make([]clientReq, len(s.seq))
	var completed atomic.Int64
	rss := 0.0
	pace := newPacer(readPace)
	start := time.Now()
	n, rates, scale := pacedClosedLoop(pace, runtime.NumCPU(), len(s.seq), cfg.duration(), func(i int) {
		e := &s.seq[i]
		q := clientReq{rid: fmt.Sprintf("c%d", i), entry: e, sent: time.Since(start)}
		q.status, q.digest, _ = s.get(e.path(), e.csv(), "", q.rid)
		q.done = time.Since(start)
		reqs[i] = q
		if completed.Add(1) == coldRSSRequests {
			rss = rssPeakMB()
		}
	})
	reqs = reqs[:n]
	if rss == 0 {
		rss = rssPeakMB()
	}
	r.set("rss_peak_mb", rss)
	var lat, raw []float64
	for i, q := range reqs {
		lat = append(lat, ms(q.done-q.sent)*scale[i])
		raw = append(raw, ms(q.done-q.sent))
	}
	tail := tailPercentile(len(raw))
	r.set("latency_p50_ms", median(lat))
	r.set("throughput_rps", median(rates))
	r.info["throughput_slice_rps"] = rates
	r.info["latency_p50_ms_raw"] = median(raw)
	r.info["pace_s"] = pace.readings
	r.info["requests"] = n
	r.info["clients"] = runtime.NumCPU()
	r.info["latency_samples"] = len(lat)
	if tail >= 90 {
		r.info["latency_p90_ms"] = percentile(raw, 90)
	}
	r.info["tail_pct"] = tail
	r.info["latency_tail_ms"] = percentile(raw, tail)
	return reqs
}

// verifyCold recomputes every distinct representation the cold run
// fetched by calling seda and explore directly, in parallel, and counts
// each response that differs.
func (s *serving) verifyCold(reqs []clientReq, r *report) error {
	distinct := map[string]*entry{}
	for _, q := range reqs {
		distinct[q.entry.key()] = q.entry
	}
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ref := newSweepRef()
	cache, err := newMemCache()
	if err != nil {
		return err
	}
	want := make(map[string]string, len(keys))
	var mu sync.Mutex
	var firstErr error
	idx := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				e := distinct[k]
				var body []byte
				var err error
				if e.sweep != nil {
					body, err = ref.body(*e.sweep)
				} else {
					body, err = exploreBody(context.Background(), *e.explore, cache)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %s: %w", k, err)
				}
				want[k] = hexSHA(body)
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		idx <- k
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	statuses := map[int]int{}
	for i := range reqs {
		q := &reqs[i]
		statuses[q.status]++
		q.ok = q.status == http.StatusOK && q.digest == want[q.entry.key()]
		r.attempted++
		if !q.ok {
			r.failed++
		}
	}
	r.info["statuses"] = statuses
	r.info["distinct_requests"] = len(keys)
	return nil
}

// hopMetrics splits each request's latency into the router's own time,
// the replicas' handler time and the network, by joining the client's
// view with the handler spans recorded under the same X-Request-Id. The
// joined spans (router span as parent, replica spans under it) are
// kept in the report to be written out.
func (s *serving) hopMetrics(reqs []clientReq, r *report) {
	hops := s.hops.take()
	var spans []span
	var routers []int // index of each routed request's router span
	var netMS, busy, sweep, exploreMS []float64
	perReplica := make([]int, replicas)
	attempts, proxied := 0, 0
	for _, q := range reqs {
		root := -1
		for _, h := range hops[q.rid] {
			if h.tier == "cluster" {
				root = len(spans)
				spans = append(spans, span{Name: "cluster", Detail: q.rid, Parent: -1, Start: h.start, End: h.end})
			}
		}
		if root < 0 {
			continue
		}
		routers = append(routers, root)
		if q.entry.catalog == "" {
			proxied++
		}
		netMS = append(netMS, ms(q.done-q.sent)-ms(spans[root].dur()))
		for _, h := range hops[q.rid] {
			if h.tier != "serve" {
				continue
			}
			attempts++
			perReplica[h.idx]++
			d := ms(h.end - h.start)
			busy = append(busy, d)
			if strings.HasPrefix(h.path, "/v1/sweep") {
				sweep = append(sweep, d)
			} else if strings.HasPrefix(h.path, "/v1/explore") {
				exploreMS = append(exploreMS, d)
			}
			spans = append(spans, span{Name: "serve", Detail: fmt.Sprintf("replica%d %s", h.idx, h.path), Parent: root, Start: h.start, End: h.end})
		}
	}
	selfAll := selfTimes(spans)
	self := make([]float64, len(routers))
	for i, root := range routers {
		self[i] = ms(selfAll[root])
	}
	maxShare := 0.0
	for _, c := range perReplica {
		maxShare = max(maxShare, share(float64(c), float64(attempts)))
	}
	r.set("cluster.self_ms_p50", median(self))
	r.set("cluster.self_ms_p99", percentile(self, 99))
	// The router answers catalog routes itself, so only the other
	// requests can take replica attempts.
	r.set("cluster.attempts_per_req", share(float64(attempts), float64(proxied)))
	r.set("serve.busy_ms_p50", median(busy))
	r.set("serve.busy_ms_p99", percentile(busy, 99))
	r.set("serve.max_replica_share", maxShare)
	r.set("serve.sweep_ms_p50", median(sweep))
	r.set("serve.explore_ms_p50", median(exploreMS))
	r.set("net.ms_p50", median(netMS))
	r.info["routed_requests"] = len(routers)
	r.info["replica_requests"] = perReplica
	for _, s := range spans {
		r.spans = append(r.spans, s)
	}
}

// hop is one handler invocation timed from outside the handler.
type hop struct {
	tier       string
	idx        int
	path       string
	start, end time.Duration
}

// hopLog records handler spans keyed by X-Request-Id.
type hopLog struct {
	epoch time.Time
	mu    sync.Mutex
	hops  map[string][]hop
}

func newHopLog() *hopLog { return &hopLog{epoch: time.Now(), hops: map[string][]hop{}} }

func (l *hopLog) wrap(tier string, idx int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Since(l.epoch)
		h.ServeHTTP(w, r)
		end := time.Since(l.epoch)
		rid := r.Header.Get("X-Request-Id")
		l.mu.Lock()
		l.hops[rid] = append(l.hops[rid], hop{tier, idx, r.URL.Path, start, end})
		l.mu.Unlock()
	})
}

func (l *hopLog) reset() {
	l.mu.Lock()
	l.hops = map[string][]hop{}
	l.mu.Unlock()
}

func (l *hopLog) take() map[string][]hop {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.hops
	l.hops = map[string][]hop{}
	return h
}

// warmCatalog lists what serve-warm requests, in the hot-mix order: each
// sweep configuration as JSON then CSV, Zipf rank following the
// scenario's listing (figure, then subset); then the explore grids; then
// the catalog routes. It does not depend on the seed.
func warmCatalog() []entry {
	var out []entry
	for _, fig := range hotFigs {
		for _, ws := range hotSubsets {
			for _, csv := range []bool{false, true} {
				out = append(out, entry{sweep: &sweepSel{Workloads: ws, Fig: fig, CSV: csv}})
			}
		}
	}
	for _, spec := range hotSpecs {
		out = append(out, entry{explore: &exploreSel{Spec: spec, Base: "edge", Workloads: hotGridWorkloads}})
	}
	for _, route := range hotCatalog {
		out = append(out, entry{catalog: route})
	}
	return out
}

// warmPhaseDur is how long the open-loop phase at rate runs: about
// warmPhaseRequests arrivals, so each rate supports a p99.
func warmPhaseDur(rate float64) time.Duration {
	return time.Duration(warmPhaseRequests / rate * float64(time.Second))
}

// warmProbeDur is the measured time left for the closed-loop capacity
// probe after the open-loop phases, and at least a quarter of it.
func warmProbeDur(total time.Duration) time.Duration {
	left := total
	for _, r := range warmRates {
		left -= warmPhaseDur(r)
	}
	return max(left, total/4)
}

// warmPhases draws each rate's Poisson arrivals and the capacity
// probe's request sequence from the hot-mix weights, over the entries
// warmCatalog lists.
func warmPhases(rng *rand.Rand) ([]phase, []call) {
	sweeps := len(hotFigs) * len(hotSubsets)
	explores := 2 * sweeps
	catalogs := explores + len(hotSpecs)
	zipf := zipfPicker(rng, hotZipf, sweeps)
	draw := func() call {
		switch u := rng.Float64() * (hotSweepWeight + hotExploreWeight + hotCatalogWeight); {
		case u < hotSweepWeight:
			i := 2 * zipf()
			if rng.Float64() < hotCSV {
				i++
			}
			return call{entry: i, inm: rng.Float64() < hotRevalidate}
		case u < hotSweepWeight+hotExploreWeight:
			return call{entry: explores + rng.IntN(len(hotSpecs)), inm: true}
		default:
			return call{entry: catalogs + rng.IntN(len(hotCatalog))}
		}
	}
	var out []phase
	for _, rate := range warmRates {
		ph := phase{rate: rate, offsets: poissonOffsets(rng, rate, warmPhaseDur(rate))}
		for range ph.offsets {
			ph.calls = append(ph.calls, draw())
		}
		out = append(out, ph)
	}
	probe := make([]call, warmProbeRequests)
	for i := range probe {
		probe[i] = draw()
	}
	return out, probe
}

// coldRequests draws serve-cold's request sequence.
func coldRequests(rng *rand.Rand) []entry {
	sweepable := append(append([]string(nil), smallWorkloads...), mediumWorkloads...)
	out := make([]entry, 0, coldSequence)
	for len(out) < coldSequence {
		if rng.Float64() < coldSweepShare {
			npu := presetNames()[rng.IntN(2)]
			sel := sweepSel{NPU: npu, Workloads: []string{sweepable[rng.IntN(len(sweepable))]}}
			if f := rng.IntN(3); f > 0 {
				sel.Fig = figsOf(npu)[f-1]
				sel.CSV = rng.IntN(2) == 0
			}
			out = append(out, entry{sweep: &sel})
			continue
		}
		out = append(out, entry{explore: randomGrid(rng, 2)})
	}
	return out
}

// randomGrid draws a two-point explore grid over a non-preset geometry:
// two array heights at one array width, clock and DRAM bandwidth, on a
// random base preset, over nWorkloads small workloads.
func randomGrid(rng *rand.Rand, nWorkloads int) *exploreSel {
	rows := pick(rng, gridDims, 2)
	spec := fmt.Sprintf("rows=%s|%s,cols=%s,freq=%s,bw=%s", rows[0], rows[1],
		gridDims[rng.IntN(len(gridDims))], gridFrequencies[rng.IntN(len(gridFrequencies))],
		gridBandwidths[rng.IntN(len(gridBandwidths))])
	return &exploreSel{
		Spec:      spec,
		Base:      presetNames()[rng.IntN(2)],
		Workloads: pick(rng, smallWorkloads, nWorkloads),
		CSV:       rng.IntN(4) == 0,
	}
}

// pick draws k distinct items, returned in the order of items.
func pick(rng *rand.Rand, items []string, k int) []string {
	idx := rng.Perm(len(items))[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for i, j := range idx {
		out[i] = items[j]
	}
	return out
}

// digestEntries hashes a generated request set and, for serve-warm,
// its arrival schedule.
func digestEntries(es []entry, phases []phase) string {
	var parts [][]byte
	for i := range es {
		parts = append(parts, []byte(es[i].key()))
	}
	for _, ph := range phases {
		parts = append(parts, []byte(fmt.Sprint(ph.rate, ph.offsets, ph.calls)))
	}
	return scheduleDigest(parts...)
}

func hexSHA(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
