package main

// This file is the benchmark's only contact with the program under
// test: every call into seda, scalesim, memprot, dram, explore,
// rescache, serve and cluster is made here, so an API change in the
// program edits this file alone.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dram"
	"repro/internal/explore"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/scalesim"
	"repro/internal/serve"
	"repro/seda"
)

// presetNames lists the Table II NPU presets in figure order.
func presetNames() []string { return seda.NPUNames() }

// workloadNames lists the paper's 13 workloads in figure order.
func workloadNames() []string { return model.Names() }

// schemeKeys names the six protection schemes in plot order, as used in
// metric names.
func schemeKeys() []string {
	var out []string
	for _, s := range seda.Schemes() {
		out = append(out, schemeKey(s.Name()))
	}
	return out
}

// schemeKey turns a scheme's figure name into a metric-name key:
// "SGX-64B" -> "sgx64", "Baseline" -> "baseline".
func schemeKey(name string) string {
	k := strings.ToLower(strings.ReplaceAll(name, "-", ""))
	if n := len(k); n > 1 && k[n-1] == 'b' && k[n-2] >= '0' && k[n-2] <= '9' {
		k = k[:n-1]
	}
	return k
}

// runSuiteJSON evaluates every workload of one preset through the
// default parallel entry point and returns the suite's JSON.
func runSuiteJSON(npuName string) ([]byte, error) {
	npu, err := seda.NPUByName(npuName)
	if err != nil {
		return nil, err
	}
	s, err := seda.RunSuite(npu)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// goldenSuiteJSON reads the pinned figure golden of one preset. The
// goldens were captured at pipeline version 3; like the repository's
// golden test, the version line is the one difference allowed.
func goldenSuiteJSON(root, npuName string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(root, "seda", "testdata", "suite_"+npuName+".json"))
	if err != nil {
		return nil, err
	}
	return bytes.Replace(b, []byte(`"pipeline_version": "3"`),
		[]byte(fmt.Sprintf(`"pipeline_version": %q`, seda.PipelineVersion)), 1), nil
}

// Stage names of the program's own spans that the traced runs read: on
// figures the suite pool, its workload dispatches and the three layers
// each workload passes through; on the serving workloads the replicas'
// per-layer DRAM drain, protect and scalesim stage histograms.
const (
	stageSuite    = obs.StageSuite
	stageWorkload = obs.StageWorkload
	stageScalesim = obs.StageScalesim
	stageProtect  = obs.StageProtect
	stageDRAM     = obs.StageDRAM
	stageDrain    = obs.StageDRAMDrain
)

// spanTree is the program's export form of a span tree: each node has a
// stage name, a detail, a duration in milliseconds and its children.
type spanTree = obs.SpanJSON

// tracedSuiteJSON is runSuiteJSON under a tracer of the program's own
// span taxonomy (obs.NewTracer): seda.RunSuite's worker pool and the
// scalesim, protect and dram stages of every workload record spans, and
// the benchmark adds none. onEnd receives each span's stage name and
// duration as it ends. It returns the suite JSON and the span tree, in
// which each span's detail names its preset, workload or scheme.
func tracedSuiteJSON(npuName string, onEnd func(stage string, d time.Duration)) ([]byte, spanTree, error) {
	npu, err := seda.NPUByName(npuName)
	if err != nil {
		return nil, spanTree{}, err
	}
	ctx, tr := obs.NewTracer(context.Background(), "perfbench")
	tr.OnEnd = onEnd
	s, err := seda.RunSuiteOptsCtx(ctx, npu, model.All(), seda.DefaultSuiteOptions())
	tr.Finish()
	if err != nil {
		return nil, spanTree{}, err
	}
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		return nil, spanTree{}, err
	}
	return b.Bytes(), tr.Tree(), nil
}

// simCounts are simulated statistics of an evaluation. They depend only
// on the inputs, never on host speed.
type simCounts struct {
	bursts, rowHits, rowAccesses, simCycles, metaBytes uint64
}

// layerWalk evaluates suites one workload and one scheme at a time
// through the layer entry points — scalesim.Config.SimulateNetwork,
// memprot.ProtectAllArena and dram.Simulator.RunOverlay — to read the
// simulated counts seda's rows do not carry. It owns its protection
// arena, DRAM arena and authblock search cache, so the search cache's
// hit rate is that of one walk from empty.
type layerWalk struct {
	prot   *memprot.Arena
	dram   *dram.Arena
	optblk *memprot.OptBlkCache
}

func newLayerWalk() *layerWalk {
	return &layerWalk{prot: memprot.NewArena(), dram: dram.NewArena(), optblk: memprot.NewOptBlkCache()}
}

// optBlkHits returns the search cache's cumulative hits and misses.
func (p *layerWalk) optBlkHits() (hits, misses uint64) {
	return p.optblk.Hits(), p.optblk.Misses()
}

// suiteJSON evaluates every workload on one preset and returns the
// suite JSON, which must equal the golden, and the simulated counts.
func (p *layerWalk) suiteJSON(npuName string) ([]byte, simCounts, error) {
	var c simCounts
	npu, err := seda.NPUByName(npuName)
	if err != nil {
		return nil, c, err
	}
	res := &seda.SuiteResult{NPU: npu, Rows: make(map[string][]seda.RunResult)}
	for _, n := range model.All() {
		if res.Rows[n.Name], err = p.network(npu, n, &c); err != nil {
			return nil, c, fmt.Errorf("%s on %s: %w", n.Name, npu.Name, err)
		}
	}
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		return nil, c, err
	}
	return b.Bytes(), c, nil
}

func (p *layerWalk) network(npu seda.NPUConfig, net *model.Network, c *simCounts) ([]seda.RunResult, error) {
	arr, err := scalesim.New(npu.ArrayRows, npu.ArrayCols, npu.SRAMBytes)
	if err != nil {
		return nil, err
	}
	sim, err := arr.SimulateNetwork(net)
	if err != nil {
		return nil, err
	}
	schemes := seda.Schemes()
	popts := memprot.DefaultOptions()
	popts.OptBlkCache = p.optblk
	prots, err := memprot.ProtectAllArena(schemes, sim, popts, p.prot)
	if err != nil {
		return nil, err
	}
	defer p.prot.Release(prots)

	rows := make([]seda.RunResult, len(schemes))
	for i := range schemes {
		if rows[i], err = p.scheme(npu, net, sim, prots[i], c); err != nil {
			return nil, err
		}
	}
	base, err := seda.SchemeRow(rows, memprot.SchemeBaseline)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].NormTraffic = share(float64(rows[i].DataBytes+rows[i].MetaBytes), float64(base.DataBytes))
		rows[i].NormPerf = share(float64(base.ExecCycles), float64(rows[i].ExecCycles))
	}
	return rows, nil
}

// scheme drains one scheme's protected layers through the DRAM model.
// A layer takes max(compute, memory) cycles, as in the paper's
// double-buffered accelerator.
func (p *layerWalk) scheme(npu seda.NPUConfig, net *model.Network, sim *scalesim.NetworkResult, prot *memprot.Result, c *simCounts) (seda.RunResult, error) {
	dsim, err := dram.New(npu.DRAMConfig())
	if err != nil {
		return seda.RunResult{}, err
	}
	dsim.SetArena(p.dram)
	row := seda.RunResult{NPU: npu.Name, Network: net.Name, Scheme: prot.Scheme}
	for i := range prot.Layers {
		pl := &prot.Layers[i]
		st := dsim.RunOverlay(pl.Spine, pl.Deltas)
		compute := sim.Layers[i].ComputeCycles
		row.ExecCycles += max(st.Cycles, compute)
		row.ComputeCycles += compute
		row.DataBytes += pl.Overhead.DataBytes
		row.MetaBytes += pl.Overhead.MetaBytes()
		c.bursts += st.Reads + st.Writes
		c.rowHits += st.RowHits
		c.rowAccesses += st.RowHits + st.RowMisses + st.RowEmpty
		c.simCycles += st.Cycles
	}
	c.metaBytes += row.MetaBytes
	return row, nil
}

// sweepSel is one /v1/sweep representation: a preset, a workload subset,
// an optional figure and the body format.
type sweepSel struct {
	NPU       string   `json:"npu"`
	Workloads []string `json:"workloads"`
	Fig       string   `json:"fig,omitempty"`
	CSV       bool     `json:"csv,omitempty"`
}

func (s sweepSel) path() string {
	q := url.Values{}
	if s.NPU != "" { // a figure implies its preset
		q.Set("npu", s.NPU)
	}
	q.Set("workloads", strings.Join(s.Workloads, ","))
	if s.Fig != "" {
		q.Set("fig", s.Fig)
	}
	return "/v1/sweep?" + q.Encode()
}

// figMetric maps the figure names /v1/sweep accepts to their metric.
var figMetric = map[string]string{"5a": "traffic", "5b": "traffic", "6a": "perf", "6b": "perf"}

// figsOf returns the figures drawn from one preset.
func figsOf(npu string) []string {
	if npu == "server" {
		return []string{"5a", "6a"}
	}
	return []string{"5b", "6b"}
}

// sweepRef computes the bodies /v1/sweep must return by calling seda
// directly, evaluating each (preset, workload) pair once.
type sweepRef struct {
	mu   sync.Mutex
	rows map[string][]seda.RunResult // preset|workload -> rows
}

func newSweepRef() *sweepRef { return &sweepRef{rows: map[string][]seda.RunResult{}} }

func (r *sweepRef) body(s sweepSel) ([]byte, error) {
	npu, nets, err := serve.ResolveSweep(s.Fig, s.NPU, strings.Join(s.Workloads, ","))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var missing []*model.Network
	for _, n := range nets {
		if _, ok := r.rows[npu.Name+"|"+n.Name]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) > 0 {
		fresh, err := seda.RunSuiteOpts(npu, missing, seda.DefaultSuiteOptions())
		if err != nil {
			return nil, err
		}
		for name, rows := range fresh.Rows {
			r.rows[npu.Name+"|"+name] = rows
		}
	}
	suite := &seda.SuiteResult{NPU: npu, Rows: make(map[string][]seda.RunResult, len(nets))}
	for _, n := range nets {
		suite.Rows[n.Name] = r.rows[npu.Name+"|"+n.Name]
	}
	var b bytes.Buffer
	switch {
	case s.Fig == "":
		err = suite.WriteJSON(&b)
	case s.CSV && figMetric[s.Fig] == "traffic":
		err = suite.WriteTrafficCSV(&b)
	case s.CSV:
		err = suite.WritePerfCSV(&b)
	default:
		err = writeFigJSON(&b, suite, s.Fig)
	}
	return b.Bytes(), err
}

// writeFigJSON is the wire form of one figure's series on /v1/sweep:
// per-workload values aligned with the schemes array, plus averages.
// internal/serve keeps its encoder unexported, so this copy is the
// reference the served bodies are checked against; a change to the wire
// form shows as wrong bodies until this copy follows it.
func writeFigJSON(b *bytes.Buffer, suite *seda.SuiteResult, fig string) error {
	value := func(r seda.RunResult) float64 { return r.NormTraffic }
	avg := suite.AvgNormTraffic
	if figMetric[fig] == "perf" {
		value = func(r seda.RunResult) float64 { return r.NormPerf }
		avg = suite.AvgNormPerf
	}
	type rowJSON struct {
		Workload string    `json:"workload"`
		Values   []float64 `json:"values"`
	}
	doc := struct {
		NPU             string    `json:"npu"`
		Fig             string    `json:"fig"`
		Metric          string    `json:"metric"`
		PipelineVersion string    `json:"pipeline_version"`
		Schemes         []string  `json:"schemes"`
		Rows            []rowJSON `json:"rows"`
		Avg             []float64 `json:"avg"`
	}{NPU: suite.NPU.Name, Fig: fig, Metric: figMetric[fig], PipelineVersion: seda.PipelineVersion}
	for _, sc := range seda.Schemes() {
		doc.Schemes = append(doc.Schemes, sc.Name())
		doc.Avg = append(doc.Avg, avg(sc))
	}
	for _, name := range suite.Workloads() {
		row := rowJSON{Workload: name}
		for _, sc := range seda.Schemes() {
			r, err := seda.SchemeRow(suite.Rows[name], sc)
			if err != nil {
				return err
			}
			row.Values = append(row.Values, value(r))
		}
		doc.Rows = append(doc.Rows, row)
	}
	enc := json.NewEncoder(b)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// catalogOK reports whether the body of a catalog route lists the
// program's workloads (/v1/workloads) or schemes (/v1/schemes) by name,
// in order.
func catalogOK(route string, body []byte) bool {
	var want []string
	switch route {
	case "/v1/workloads":
		want = model.Names()
	case "/v1/schemes":
		for _, sc := range seda.Schemes() {
			want = append(want, sc.Name())
		}
	default:
		return false
	}
	var got []struct {
		Name string `json:"name"`
	}
	if json.Unmarshal(body, &got) != nil || len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Name != want[i] {
			return false
		}
	}
	return true
}

// exploreSel is one /v1/explore representation under the SeDA scheme.
type exploreSel struct {
	Spec      string   `json:"spec"`
	Base      string   `json:"base"`
	Workloads []string `json:"workloads"`
	CSV       bool     `json:"csv,omitempty"`
}

func (e exploreSel) path() string {
	q := url.Values{}
	q.Set("spec", e.Spec)
	q.Set("base", e.Base)
	q.Set("workloads", strings.Join(e.Workloads, ","))
	return "/v1/explore?" + q.Encode()
}

// exploreBody computes the body /v1/explore must return for e by
// calling the exploration engine directly. cache may be nil; it only
// lets repeated confirmations of one geometry share an evaluation.
func exploreBody(ctx context.Context, e exploreSel, cache *rescache.Cache) ([]byte, error) {
	spec, err := explore.ParseSpec(e.Spec)
	if err != nil {
		return nil, err
	}
	base, err := seda.NPUByName(e.Base)
	if err != nil {
		return nil, err
	}
	nets, err := serve.ParseWorkloads(strings.Join(e.Workloads, ","))
	if err != nil {
		return nil, err
	}
	opts := explore.Options{
		Workloads: nets,
		Scheme:    memprot.SchemeSeDA,
		Suite:     seda.DefaultSuiteOptions(),
		MaxPoints: serve.DefaultMaxExplorePoints,
		Cache:     cache,
	}
	res, err := explore.Run(ctx, spec, base, opts)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if e.CSV {
		err = res.WriteCSV(&b)
	} else {
		err = res.WriteJSON(&b)
	}
	return b.Bytes(), err
}

// newMemCache builds a memory-only result cache for reference
// evaluations.
func newMemCache() (*rescache.Cache, error) {
	return rescache.New(rescache.Options{MaxEntries: 1 << 16})
}

// warmPipeline fills the process-wide pools and search caches of seda
// and explore by evaluating the given workloads on both presets and one
// tiny exploration directly, leaving every result cache of the serving
// fleet empty.
func warmPipeline(ctx context.Context, workloads []string) error {
	nets, err := serve.ParseWorkloads(strings.Join(workloads, ","))
	if err != nil {
		return err
	}
	for _, npu := range seda.NPUPresets() {
		if _, err := seda.RunSuiteOpts(npu, nets, seda.DefaultSuiteOptions()); err != nil {
			return err
		}
	}
	_, err = exploreBody(ctx, exploreSel{Spec: "channels=2|4", Base: "edge", Workloads: []string{"let"}}, nil)
	return err
}

// cacheStats are rescache counters summed over the fleet's replicas.
type cacheStats struct {
	Hits, DiskHits, Coalesced, Computes, Shed, Errors uint64
}

func (a cacheStats) sub(b cacheStats) cacheStats {
	return cacheStats{a.Hits - b.Hits, a.DiskHits - b.DiskHits, a.Coalesced - b.Coalesced,
		a.Computes - b.Computes, a.Shed - b.Shed, a.Errors - b.Errors}
}

// hitRate is the share of lookups answered without a fresh evaluation.
func (a cacheStats) hitRate() float64 {
	served := float64(a.Hits + a.DiskHits + a.Coalesced)
	return share(served, served+float64(a.Computes+a.Shed+a.Errors))
}

// wrapFunc lets the benchmark time each tier's handler from outside;
// tier is "serve" or "cluster" and idx the replica index.
type wrapFunc func(tier string, idx int, h http.Handler) http.Handler

// fleet is the serving topology, all in this process on loopback
// listeners: replicas (serve.API over rescache, one shared disk-cache
// directory) behind a cluster.Router whose stale tier is a cache-only
// API over the same directory, as seda-router runs it.
type fleet struct {
	URL         string
	caches      []*rescache.Cache
	replicas    []http.Handler
	servers     []*http.Server
	randomPorts int // listeners that found their fixed port taken
	wg          sync.WaitGroup
	stop        context.CancelFunc
}

// fleetBasePort is the first of the loopback ports the fleet listens
// on, one per replica and then the router. The router names each
// replica by its host:port and places results by hashing those names,
// so with ports the system picks every run would split the hot keys
// between the replicas differently. A port that is taken falls back to
// one the system picks, and the summary counts those.
const fleetBasePort = 47310

// startFleet starts n replicas and the router. The replicas use
// seda-serve's default compute-slot bound and timeouts.
func startFleet(dir string, n int, wrap wrapFunc) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		c, err := rescache.New(rescache.Options{Dir: dir, MaxInflightComputes: 4, ComputeTimeout: 10 * time.Minute})
		if err != nil {
			f.close()
			return nil, err
		}
		api := serve.NewAPI(c, seda.DefaultSuiteOptions(), 2*time.Minute)
		api.SeedJitter(uint64(i + 1))
		h := api.Handler()
		f.caches = append(f.caches, c)
		f.replicas = append(f.replicas, h)
		if wrap != nil {
			h = wrap("serve", i, h)
		}
		addr, err := f.listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, addr)
	}
	stale, err := rescache.New(rescache.Options{Dir: dir, CacheOnly: true})
	if err != nil {
		f.close()
		return nil, err
	}
	rt, err := cluster.New(cluster.Options{Replicas: urls, Degraded: serve.NewAPI(stale, seda.DefaultSuiteOptions(), 0)})
	if err != nil {
		f.close()
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	rt.StartHealth(ctx)
	var h http.Handler = rt.Handler()
	if wrap != nil {
		h = wrap("cluster", 0, h)
	}
	addr, err := f.listen(h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.URL = "http://" + addr
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", fleetBasePort+len(f.servers)))
	if err != nil {
		f.randomPorts++
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return "", err
		}
	}
	srv := &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 3 * time.Minute, IdleTimeout: 2 * time.Minute}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on close
	}()
	return ln.Addr().String(), nil
}

// close stops the health checker and every listener and waits for the
// serving goroutines to return.
func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
	}
	for _, s := range f.servers {
		s.Close() //nolint:errcheck // shutting down; nothing to report
	}
	f.wg.Wait()
}

// cacheStats sums the replicas' rescache counters.
func (f *fleet) cacheStats() cacheStats {
	var t cacheStats
	for _, c := range f.caches {
		s := c.Stats()
		t.Hits += s.Hits
		t.DiskHits += s.DiskHits
		t.Coalesced += s.Coalesced
		t.Computes += s.Computes
		t.Shed += s.Shed
		t.Errors += s.Errors
	}
	return t
}

// stageSeconds sums, over the replicas, the seconds each pipeline stage
// has spent so far, read from the replicas' own span-duration histograms
// on /metrics.
func (f *fleet) stageSeconds() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, h := range f.replicas {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		fams, err := obs.ParseProm(rec.Body)
		if err != nil {
			return nil, fmt.Errorf("replica /metrics: %w", err)
		}
		fam := fams["seda_stage_duration_seconds"]
		if fam == nil {
			continue
		}
		for _, s := range fam.Samples {
			if s.Name == fam.Name+"_sum" {
				out[s.Labels["stage"]] += s.Value
			}
		}
	}
	return out, nil
}
