package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many fresh processes set up per measured run; the
// reported setup_s is their median. Each repeat is its own process
// because set-up includes the first fill of process-wide pools, which
// only a fresh process pays.
const setupRepeats = 3

// config is one run's command line.
type config struct {
	workload string
	root     string // checkout root; temporary files go under root/.bench_build
	seed     uint64
	seconds  float64
	trace    bool
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// workload is one benchmark workload. setup builds its inputs from the
// seed, starts what it needs and warms it up; measure runs for the
// configured seconds and checks every output.
type workload interface {
	setup(cfg config) error
	measure(cfg config) (*report, error)
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "figures":
		return &figures{}, nil
	case "serve-warm":
		return &serving{cold: false}, nil
	case "serve-cold":
		return &serving{cold: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, serve-warm or serve-cold)", name)
}

// report is what a measured run found.
type report struct {
	attempted, failed int
	values            map[string]float64
	info              map[string]any // printed on the summary line
	spans             []any          // traced runs: written out at the end, one JSON line each
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = make(map[string]float64)
	}
	r.values[name] = v
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer that does no work in a workload, or that the workload cannot
// observe from outside, reports 0.
func perLayer() []metricDef {
	defs := []metricDef{{"dram.busy_s", "s"}}
	for _, k := range schemeKeys() {
		defs = append(defs, metricDef{"dram.busy_s." + k, "s"})
	}
	defs = append(defs,
		metricDef{"dram.bursts", "count"},
		metricDef{"dram.ns_per_burst", "ns"},
		metricDef{"dram.row_hit_rate", "ratio"},
		metricDef{"dram.sim_cycles", "cycles"},
		metricDef{"memprot.busy_s", "s"},
		metricDef{"memprot.meta_bytes", "B"},
		metricDef{"authblock.optblk_hit_rate", "ratio"},
		metricDef{"scalesim.busy_s", "s"},
	)
	for _, p := range presetNames() {
		for _, w := range workloadNames() {
			defs = append(defs, metricDef{"seda.workload_s." + p + "." + w, "s"})
		}
	}
	return append(defs,
		metricDef{"seda.critical_path_s", "s"},
		metricDef{"seda.pool_idle_share", "ratio"},
		metricDef{"seda.uncovered_share", "ratio"},
		metricDef{"rescache.hit_rate", "ratio"},
		metricDef{"rescache.computes", "count"},
		metricDef{"rescache.coalesced", "count"},
		metricDef{"rescache.disk_hits", "count"},
		metricDef{"rescache.shed", "count"},
		metricDef{"cluster.self_ms_p50", "ms"},
		metricDef{"cluster.self_ms_p99", "ms"},
		metricDef{"cluster.attempts_per_req", "count"},
		metricDef{"serve.busy_ms_p50", "ms"},
		metricDef{"serve.busy_ms_p99", "ms"},
		metricDef{"serve.max_replica_share", "ratio"},
		metricDef{"serve.sweep_ms_p50", "ms"},
		metricDef{"serve.explore_ms_p50", "ms"},
		metricDef{"net.ms_p50", "ms"},
		metricDef{"runtime.alloc_mb_per_op", "MB"},
		metricDef{"runtime.gc_cycles_per_op", "count"},
		metricDef{"trace.overhead_share", "ratio"},
	)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	var setupOnly bool
	flag.StringVar(&cfg.workload, "workload", "", "figures, serve-warm or serve-cold")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&setupOnly, "setup-only", false, "set up once, print the seconds it took and exit (used for the setup_s repeats)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	cfg.root = root
	if _, err := os.Stat(filepath.Join(root, "seda", "testdata")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return err
	}

	if setupOnly {
		d, raw, err := pacedSetup(w, cfg)
		w.close()
		if err != nil {
			return err
		}
		fmt.Println(strconv.FormatFloat(d, 'g', -1, 64), strconv.FormatFloat(raw, 'g', -1, 64))
		return nil
	}

	var setups, rawSetups []float64
	if !cfg.trace {
		for i := 1; i < setupRepeats; i++ {
			d, raw, err := childSetup(cfg)
			if err != nil {
				return err
			}
			setups = append(setups, d)
			rawSetups = append(rawSetups, raw)
		}
	}
	d, raw, err := pacedSetup(w, cfg)
	setups = append(setups, d)
	rawSetups = append(rawSetups, raw)
	if err != nil {
		w.close()
		return fmt.Errorf("setup: %w", err)
	}
	rep, err := w.measure(cfg)
	w.close()
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}

	defs := perLayer()
	if cfg.trace {
		// A traced run's end-to-end figures carry the tracing cost; they
		// are informative only.
		for _, d := range endToEnd {
			if v, ok := rep.values[d.name]; ok {
				rep.info[d.name+"_traced"] = v
				delete(rep.values, d.name)
			}
		}
	} else {
		defs = endToEnd
		rep.set("setup_s", median(setups))
		rep.info["setup_s_raw_samples"] = rawSetups
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not report %s", cfg.workload, d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		delete(rep.values, d.name)
	}
	for name := range rep.values {
		return fmt.Errorf("workload %s reported unlisted metric %s", cfg.workload, name)
	}
	if len(rep.spans) > 0 {
		path, err := writeSpans(cfg, rep.spans)
		if err != nil {
			return err
		}
		rep.info["spans_file"] = path
	}

	rep.info["workload"] = cfg.workload
	rep.info["seed"] = cfg.seed
	rep.info["fail_share"] = share(float64(rep.failed), float64(rep.attempted))
	if err := printLine(map[string]any{"host": hostStamp(root)}); err != nil {
		return err
	}
	if err := printLine(map[string]any{"summary": rep.info}); err != nil {
		return err
	}
	return printLine(map[string]any{
		"correct":   rep.failed == 0 && rep.attempted > 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
}

func printLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// pacedSetup sets w up between two pace readings and returns the
// seconds it took at the reference pace and as measured.
func pacedSetup(w workload, cfg config) (float64, float64, error) {
	var d time.Duration
	var err error
	k := newPacer(readPace).slice(func() {
		start := time.Now()
		err = w.setup(cfg)
		d = time.Since(start)
	})
	return d.Seconds() * k, d.Seconds(), err
}

// childSetup runs one set-up in a fresh copy of this program and
// returns the seconds it reported, at the reference pace and as
// measured.
func childSetup(cfg config) (float64, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, fmt.Errorf("setup repeat: %w", err)
	}
	var d, raw float64
	if _, err := fmt.Sscan(string(out), &d, &raw); err != nil {
		return 0, 0, fmt.Errorf("setup repeat printed %q: %w", out, err)
	}
	return d, raw, nil
}

// writeSpans writes a traced run's spans under .bench_build, one file
// per workload, replacing the previous run's.
func writeSpans(cfg config, spans []any) (string, error) {
	dir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+cfg.workload+".jsonl")
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return "", err
	}
	rel, err := filepath.Rel(cfg.root, path)
	if err != nil {
		return path, nil
	}
	return rel, nil
}

// rssPeakMB returns the process's peak resident set so far (VmHWM) in
// MB, or the Go runtime's total obtained memory where /proc is
// unavailable. Each workload reads it after a fixed amount of measured
// work, before any checking of its own.
func rssPeakMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runtimeDelta accumulates Go runtime allocation and GC counts over
// the intervals between begin and end.
type runtimeDelta struct {
	alloc, gc uint64
	ms        runtime.MemStats
}

func (d *runtimeDelta) begin() {
	runtime.ReadMemStats(&d.ms)
	d.alloc -= d.ms.TotalAlloc
	d.gc -= uint64(d.ms.NumGC)
}

func (d *runtimeDelta) end() {
	runtime.ReadMemStats(&d.ms)
	d.alloc += d.ms.TotalAlloc
	d.gc += uint64(d.ms.NumGC)
}

func (d *runtimeDelta) allocMB() float64 { return float64(d.alloc) / (1 << 20) }
func (d *runtimeDelta) gcs() float64     { return float64(d.gc) }
