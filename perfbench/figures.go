package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"
)

// figures runs the paper's evaluation — every workload and every
// scheme on both Table II presets — through the default parallel entry
// point, back to back, and checks each suite's JSON against the pinned
// goldens. Its traced run arms the program's own tracer around the same
// entry point and splits the host time by layer from the spans the
// program records.
type figures struct {
	golden map[string][]byte
	inputs string // digest of the goldens the outputs are checked against

	// Traced runs only.
	rec       *recorder  // stage intervals the program's tracer reports
	trees     []spanTree // one span tree per traced preset suite
	walk      *layerWalk // simulated counts, read once in setup
	counts    simCounts  // of one two-preset suite
	walkWrong int        // presets whose walk JSON differed from the golden
}

// setup reads the goldens and runs one untraced suite (and, when
// traced, the layer walk and one traced suite) so the process-wide
// pools and search caches are filled before timing starts.
func (f *figures) setup(cfg config) error {
	f.golden = make(map[string][]byte)
	var parts [][]byte
	for _, p := range presetNames() {
		g, err := goldenSuiteJSON(cfg.root, p)
		if err != nil {
			return err
		}
		f.golden[p] = g
		parts = append(parts, g)
	}
	f.inputs = scheduleDigest(parts...)
	if _, err := f.untracedSuite(); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	f.walk = newLayerWalk()
	for _, p := range presetNames() {
		b, c, err := f.walk.suiteJSON(p)
		if err != nil {
			return err
		}
		f.counts.bursts += c.bursts
		f.counts.rowHits += c.rowHits
		f.counts.rowAccesses += c.rowAccesses
		f.counts.simCycles += c.simCycles
		f.counts.metaBytes += c.metaBytes
		if !bytes.Equal(b, f.golden[p]) {
			f.walkWrong++
		}
	}
	f.rec = newRecorder(stageScalesim, stageProtect, stageDRAM)
	_, err := f.tracedSuite()
	return err
}

func (f *figures) close() {}

// rssSuites is after how many measured suites figures reads its peak
// resident set. The heap grows with every suite run, so a peak read at
// the end of the run would grow with the host's speed.
const rssSuites = 3

// suiteOutcome is one two-preset suite: its host time and how many of
// its preset outputs differed from the goldens.
type suiteOutcome struct {
	dur   time.Duration
	wrong int
}

func (f *figures) untracedSuite() (suiteOutcome, error) {
	return f.suite(runSuiteJSON)
}

func (f *figures) tracedSuite() (suiteOutcome, error) {
	return f.suite(func(npu string) ([]byte, error) {
		b, tree, err := tracedSuiteJSON(npu, f.rec.onEnd)
		f.trees = append(f.trees, tree)
		return b, err
	})
}

func (f *figures) suite(run func(npu string) ([]byte, error)) (suiteOutcome, error) {
	var o suiteOutcome
	start := time.Now()
	for _, p := range presetNames() {
		b, err := run(p)
		if err != nil {
			return o, err
		}
		if !bytes.Equal(b, f.golden[p]) {
			o.wrong++
		}
	}
	o.dur = time.Since(start)
	return o, nil
}

func (f *figures) measure(cfg config) (*report, error) {
	if cfg.trace {
		return f.measureTraced(cfg)
	}
	r := &report{info: map[string]any{"inputs_digest": f.inputs}}
	var durs, raw []float64
	pace := newPacer(readPace)
	deadline := time.Now().Add(cfg.duration())
	for len(durs) == 0 || time.Now().Before(deadline) {
		var o suiteOutcome
		var err error
		k := pace.slice(func() { o, err = f.untracedSuite() })
		if err != nil {
			return nil, err
		}
		r.attempted += len(presetNames())
		r.failed += o.wrong
		durs = append(durs, secs(o.dur)*k)
		raw = append(raw, secs(o.dur))
		if len(durs) == rssSuites {
			r.set("rss_peak_mb", rssPeakMB())
		}
	}
	if _, ok := r.values["rss_peak_mb"]; !ok {
		r.set("rss_peak_mb", rssPeakMB())
	}
	total := 0.0
	for _, d := range durs {
		total += d
	}
	r.set("latency_p50_ms", 1000*median(durs))
	r.set("throughput_rps", float64(len(durs))/total)
	r.info["suite_s"] = median(durs)
	r.info["suite_s_raw"] = median(raw)
	r.info["suite_s_raw_samples"] = raw
	r.info["pace_s"] = pace.readings
	r.info["suites"] = len(durs)
	return r, nil
}

// measureTraced alternates untraced and traced suites, so both see the
// same host conditions; the per-layer split comes from the traced ones
// and the ratio of the two medians, each suite scaled to the reference
// pace, is the tracing overhead.
func (f *figures) measureTraced(cfg config) (*report, error) {
	r := &report{info: map[string]any{"inputs_digest": f.inputs}}
	r.attempted += len(presetNames())
	r.failed += f.walkWrong
	f.rec.take()
	f.trees = nil
	var plain, traced []float64
	var rt runtimeDelta
	pace := newPacer(readPace)
	deadline := time.Now().Add(cfg.duration())
	for len(traced) == 0 || time.Now().Before(deadline) {
		var o suiteOutcome
		var err error
		k := pace.slice(func() {
			rt.begin()
			o, err = f.untracedSuite()
			rt.end()
		})
		if err != nil {
			return nil, err
		}
		plain = append(plain, secs(o.dur)*k)
		r.attempted += len(presetNames())
		r.failed += o.wrong

		if k = pace.slice(func() { o, err = f.tracedSuite() }); err != nil {
			return nil, err
		}
		traced = append(traced, secs(o.dur)*k)
		r.attempted += len(presetNames())
		r.failed += o.wrong
	}
	n := float64(len(traced))
	cores := runtime.GOMAXPROCS(0)
	spans := f.rec.take()
	cpu := cpuShares(spans, func(span) bool { return true }, cores)
	busy := map[string]float64{}
	for i, s := range spans {
		busy[s.Name] += secs(cpu[i])
	}
	ps := poolSplit(f.trees, cores)
	dramWall := 0.0
	for _, w := range ps.dramWall {
		dramWall += w
	}

	c := f.counts
	hits, misses := f.walk.optBlkHits()
	r.set("dram.busy_s", busy[stageDRAM]/n)
	for _, k := range schemeKeys() {
		r.set("dram.busy_s."+k, busy[stageDRAM]*share(ps.dramWall[k], dramWall)/n)
	}
	r.set("dram.bursts", float64(c.bursts))
	r.set("dram.ns_per_burst", share(busy[stageDRAM]/n*1e9, float64(c.bursts)))
	r.set("dram.row_hit_rate", share(float64(c.rowHits), float64(c.rowAccesses)))
	r.set("dram.sim_cycles", float64(c.simCycles))
	r.set("memprot.busy_s", busy[stageProtect]/n)
	r.set("memprot.meta_bytes", float64(c.metaBytes))
	r.set("authblock.optblk_hit_rate", share(float64(hits), float64(hits+misses)))
	r.set("scalesim.busy_s", busy[stageScalesim]/n)
	for _, p := range presetNames() {
		for _, w := range workloadNames() {
			r.set(fmt.Sprintf("seda.workload_s.%s.%s", p, w), ps.workload[p+"."+w]/n)
		}
	}
	r.set("seda.critical_path_s", ps.critical/n)
	r.set("seda.pool_idle_share", share(ps.capacity-ps.workloads, ps.capacity))
	r.set("seda.uncovered_share", share(ps.uncovered, ps.workloads))
	r.set("runtime.alloc_mb_per_op", rt.allocMB()/float64(len(plain)))
	r.set("runtime.gc_cycles_per_op", rt.gcs()/float64(len(plain)))
	r.set("trace.overhead_share", median(traced)/median(plain)-1)
	r.info["suite_s_untraced"] = plain
	r.info["suite_s_traced"] = traced
	r.info["pace_s"] = pace.readings
	for _, t := range f.trees {
		r.spans = append(r.spans, t)
	}
	return r, nil
}

// poolStats is what the program's span trees show about seda's suite
// pool, summed over the traced suites, in seconds.
type poolStats struct {
	workload  map[string]float64 // "<preset>.<workload>" -> workload span
	dramWall  map[string]float64 // scheme key -> its DRAM loops' summed spans
	workloads float64            // all workload spans
	critical  float64            // longest workload span of each suite
	capacity  float64            // cores x suite span
	uncovered float64            // workload time no layer span covers
}

// poolSplit reads the span trees of traced suites. Within a workload
// seda runs the schedule, then the protection walk, then every scheme's
// DRAM loop at once, so the layers cover the scalesim and protect spans
// plus the longest of the concurrent dram spans; the rest of the
// workload span is uncovered.
func poolSplit(trees []spanTree, cores int) poolStats {
	ps := poolStats{workload: map[string]float64{}, dramWall: map[string]float64{}}
	for _, root := range trees {
		for _, suite := range root.Spans {
			if suite.Name != stageSuite {
				continue
			}
			ps.capacity += float64(cores) * suite.Ms / 1000
			longest := 0.0
			for _, wl := range suite.Spans {
				if wl.Name != stageWorkload {
					continue
				}
				d := wl.Ms / 1000
				ps.workload[suite.Detail+"."+wl.Detail] += d
				ps.workloads += d
				longest = max(longest, d)
				covered, dramLongest := 0.0, 0.0
				for _, c := range wl.Spans {
					switch c.Name {
					case stageScalesim, stageProtect:
						covered += c.Ms / 1000
					case stageDRAM:
						ps.dramWall[schemeKey(c.Detail)] += c.Ms / 1000
						dramLongest = max(dramLongest, c.Ms/1000)
					}
				}
				ps.uncovered += max(d-covered-dramLongest, 0)
			}
			ps.critical += longest
		}
	}
	return ps
}
