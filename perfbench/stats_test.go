package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
			continue
		}
		if got == 0 {
			continue
		}
		// With samples 1..n the nearest-rank percentile is its own rank,
		// so the number of samples beyond it is n minus that value.
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		if beyond := tc.n - int(percentile(xs, got)); beyond < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it, want >= 10", tc.n, got, beyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

// A stalled request holds the only slot, so the generator sends the
// next requests late. Their latency must count from when they were due,
// not from when they were sent, and the delay must show as lateness.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const stall = 60 * time.Millisecond
	offsets := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	ss := openLoop(context.Background(), offsets, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if len(ss) != len(offsets) {
		t.Fatalf("got %d samples, want %d", len(ss), len(offsets))
	}
	for i, s := range ss[1:] {
		i++
		if s.due != offsets[i] {
			t.Errorf("request %d due at %v, want %v", i, s.due, offsets[i])
		}
		if s.sent < stall {
			t.Errorf("request %d sent at %v, before the stalled request freed its slot at %v", i, s.sent, stall)
		}
		if want := stall - offsets[i]; s.lateness() < want {
			t.Errorf("request %d lateness %v, want >= %v", i, s.lateness(), want)
		}
		if s.latency() < s.lateness() || s.latency() != s.done-s.due {
			t.Errorf("request %d latency %v not measured from its due time (lateness %v)", i, s.latency(), s.lateness())
		}
	}
}

func TestLatenessGrowth(t *testing.T) {
	steady := make([]sample, 30)
	growing := make([]sample, 30)
	for i := range steady {
		due := time.Duration(i) * time.Millisecond
		steady[i] = sample{due: due, sent: due + time.Millisecond}
		growing[i] = sample{due: due, sent: due + time.Duration(i)*time.Millisecond}
	}
	if g := latenessGrowth(steady); g != 0 {
		t.Errorf("steady lateness grows by %v, want 0", g)
	}
	if g := latenessGrowth(growing); g < 15*time.Millisecond {
		t.Errorf("growing backlog shows growth %v, want >= 15ms", g)
	}
}

func TestScheduleSameForSameSeed(t *testing.T) {
	warm := func(seed uint64) string {
		phases, probe := warmPhases(newRNG(seed, 1))
		return digestEntries(warmCatalog(), append(phases, phase{calls: probe}))
	}
	cold := func(seed uint64) string { return digestEntries(coldRequests(newRNG(seed, 1)), nil) }
	for name, gen := range map[string]func(uint64) string{"serve-warm": warm, "serve-cold": cold} {
		if a, b := gen(7), gen(7); a != b {
			t.Errorf("%s: seed 7 gave schedules %s and %s", name, a, b)
		}
		if a, b := gen(7), gen(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule %s", name, a)
		}
	}
	a := poissonOffsets(newRNG(3, 1), 500, time.Second)
	b := poissonOffsets(newRNG(3, 1), 500, time.Second)
	if len(a) == 0 || len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Errorf("poisson offsets differ for one seed: %d vs %d arrivals", len(a), len(b))
	}
}

// Children that overlap each other (concurrent work under one parent)
// are counted once, and a child running past its parent's end is
// clipped to the parent.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms},
		{Name: "a.1", Parent: 1, Start: 10 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 20 * ms, 30 * ms, 30 * ms, 10 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestCPUSharesSplitCoresAmongOverlappingSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "suite", Parent: -1, Start: 0, End: 30 * ms},
		{Name: "x", Parent: 0, Start: 0, End: 20 * ms},
		{Name: "y", Parent: 0, Start: 10 * ms, End: 30 * ms},
	}
	leaf := func(s span) bool { return s.Name != "suite" }
	// One core: x alone for 10ms, then x and y share 10ms, then y alone.
	one := cpuShares(spans, leaf, 1)
	if one[0] != 0 || one[1] != 15*ms || one[2] != 15*ms {
		t.Errorf("one core: got %v, want [0 15ms 15ms]", one)
	}
	// Two cores: nothing waits, so each span's share is its duration.
	two := cpuShares(spans, leaf, 2)
	if two[1] != 20*ms || two[2] != 20*ms {
		t.Errorf("two cores: got %v, want [0 20ms 20ms]", two)
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

// The program's span tree of one suite: two workloads dispatched by the
// pool, each with its schedule, protection walk and concurrent DRAM
// loops. The layers cover scalesim + protect + the longest DRAM loop.
func TestPoolSplitFromProgramSpanTree(t *testing.T) {
	wl := func(name string, ms float64, kids ...spanTree) spanTree {
		return spanTree{Name: stageWorkload, Detail: name, Ms: ms, Spans: kids}
	}
	leaf := func(name, detail string, ms float64) spanTree { return spanTree{Name: name, Detail: detail, Ms: ms} }
	tree := spanTree{Name: "root", Spans: []spanTree{{Name: stageSuite, Detail: "edge", Ms: 100, Spans: []spanTree{
		wl("let", 60, leaf(stageScalesim, "", 5), leaf(stageProtect, "", 15),
			leaf(stageDRAM, "SGX-64B", 30), leaf(stageDRAM, "Baseline", 38)),
		wl("ncf", 40, leaf(stageScalesim, "", 10), leaf(stageProtect, "", 10), leaf(stageDRAM, "SeDA", 20)),
	}}}}
	ps := poolSplit([]spanTree{tree}, 2)
	near := func(what string, got, want float64) {
		if d := got - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	near("workload edge.let", ps.workload["edge.let"], 0.06)
	near("workloads", ps.workloads, 0.1)
	near("critical", ps.critical, 0.06)
	near("capacity", ps.capacity, 0.2)
	near("uncovered", ps.uncovered, 0.002)
	near("dram sgx64", ps.dramWall["sgx64"], 0.03)
	near("dram baseline", ps.dramWall["baseline"], 0.038)
	near("dram seda", ps.dramWall["seda"], 0.02)
}

func TestRecorderKeepsOnlyAskedStages(t *testing.T) {
	r := newRecorder(stageDRAM)
	r.onEnd(stageDRAM, 5*time.Millisecond)
	r.onEnd(stageDrain, time.Millisecond)
	got := r.take()
	if len(got) != 1 || got[0].Name != stageDRAM || got[0].dur() != 5*time.Millisecond || got[0].Parent != -1 {
		t.Fatalf("recorded %+v, want one 5ms %s span", got, stageDRAM)
	}
	if len(r.take()) != 0 {
		t.Error("take did not reset the recorder")
	}
}

// Each slice is scaled by the mean of the readings on its two sides, and
// the reading after one slice is the one before the next.
func TestPacerScalesBySurroundingReadings(t *testing.T) {
	readings := []float64{0.1, 0.3, 0.2}
	p := newPacer(func() float64 {
		r := readings[0]
		readings = readings[1:]
		return r
	})
	ran := 0
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if k := p.slice(func() { ran++ }); !near(k, refPaceS/0.2) {
		t.Errorf("first slice: factor %v, want %v", k, refPaceS/0.2)
	}
	if k := p.slice(func() { ran++ }); !near(k, refPaceS/0.25) {
		t.Errorf("second slice: factor %v, want %v", k, refPaceS/0.25)
	}
	if ran != 2 || len(p.readings) != 3 {
		t.Errorf("ran %d slices with %d readings, want 2 and 3", ran, len(p.readings))
	}
}

// A paced closed loop takes every request once, in order across slices,
// and gives each the factor of the slice it ran in.
func TestPacedClosedLoopTakesEachRequestOnce(t *testing.T) {
	p := newPacer(func() float64 { return refPaceS / 2 })
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	seen := make([]int, 7)
	n, rates, scale := pacedClosedLoop(p, 2, len(seen), time.Minute, func(i int) { seen[i]++ })
	if n != len(seen) || len(scale) != n {
		t.Fatalf("took %d requests with %d factors, want %d", n, len(scale), len(seen))
	}
	for i, c := range seen {
		if c != 1 || !near(scale[i], 2) {
			t.Errorf("request %d: sent %d times, factor %v; want once, 2", i, c, scale[i])
		}
	}
	if len(rates) != 1 || rates[0] <= 0 {
		t.Errorf("slice rates %v, want one positive rate", rates)
	}
}
