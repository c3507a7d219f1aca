package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples. The small tolerance keeps decimal percentiles such as 99.9
// from rounding up a whole rank.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
// xs need not be sorted; it is not modified. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank(p, len(s)), 1)-1]
}

// median returns the middle of xs, averaging the two middle values when
// the count is even. An empty slice yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// newRNG returns the deterministic generator for one stream of a run:
// the same seed and stream always give the same sequence.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// zipfPicker returns a generator of indices in [0, n) where index i is
// drawn with weight 1/(i+1)^s (s > 1), as popularity falls off with rank
// among independent users.
func zipfPicker(rng *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// poissonOffsets draws arrival times of a Poisson process of the given
// rate (per second) over dur, as offsets from the phase start.
func poissonOffsets(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return out
		}
		out = append(out, off)
	}
}

// scheduleDigest hashes a generated schedule, so a reported number can
// be traced to its exact inputs.
func scheduleDigest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// sample is one open-loop request: when it was due, when the generator
// actually sent it, and when it completed, all relative to the loop's
// start.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// latency is the request's time from its scheduled send, so a stall
// also charges the requests it delayed.
func (s sample) latency() time.Duration { return s.done - s.due }

// lateness is how far behind schedule the generator sent the request.
func (s sample) lateness() time.Duration { return s.sent - s.due }

// openLoop sends request i at its due offset regardless of how earlier
// requests fare, with at most maxInflight outstanding. When all slots
// are busy the generator waits, and the wait shows as lateness and in
// the latency of every request it delays. do reports whether request i
// succeeded. openLoop returns once every sent request has completed;
// requests not yet sent when ctx ends are dropped from the result.
func openLoop(ctx context.Context, offsets []time.Duration, maxInflight int, do func(i int) bool) []sample {
	out := make([]sample, len(offsets))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	n := 0
	for i, due := range offsets {
		if wait := due - time.Since(start); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		out[i] = sample{due: due, sent: time.Since(start)}
		n = i + 1
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok := do(i)
			out[i].done = time.Since(start)
			out[i].ok = ok
			<-sem
		}(i)
	}
	wg.Wait()
	return out[:n]
}

// closedLoop runs clients workers that each send a request, wait for
// it, and send the next, taking request indices in order from a shared
// counter, until n are taken or dur has passed. It returns how many
// were taken and the wall time until the last one completed.
func closedLoop(clients, n int, dur time.Duration, do func(i int)) (int, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), n), time.Since(start)
}

// latenessGrowth compares the generator's 90th-percentile lateness over
// the last third of a phase with that over the first third. A backlog
// that keeps growing shows as a large positive value.
func latenessGrowth(ss []sample) time.Duration {
	if len(ss) < 3 {
		return 0
	}
	third := len(ss) / 3
	p90 := func(part []sample) float64 {
		xs := make([]float64, len(part))
		for i, s := range part {
			xs[i] = float64(s.lateness())
		}
		return percentile(xs, 90)
	}
	return time.Duration(p90(ss[len(ss)-third:]) - p90(ss[:third]))
}

// span is one timed interval: a stage of the program's own tracer, or
// a handler call the benchmark timed from outside. Parent is the index
// of the enclosing span, or -1 when unknown.
type span struct {
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps in memory the spans a tracer reports as they end, for
// the stages it was asked to keep; they are written out once the run
// ends.
type recorder struct {
	epoch time.Time
	keep  map[string]bool
	mu    sync.Mutex
	spans []span
}

func newRecorder(stages ...string) *recorder {
	r := &recorder{epoch: time.Now(), keep: map[string]bool{}}
	for _, s := range stages {
		r.keep[s] = true
	}
	return r
}

// onEnd records a span of a kept stage that ends now after running for
// d. It has the signature of a tracer's end hook, which reports no
// parent, so the span's Parent is -1.
func (r *recorder) onEnd(stage string, d time.Duration) {
	if !r.keep[stage] {
		return
	}
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: stage, Parent: -1, Start: end - d, End: end})
	r.mu.Unlock()
}

// take returns the spans recorded since the last call.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// selfTimes returns, per span, its duration minus the part of its own
// interval covered by the union of its children. Overlapping children
// (concurrent work under one parent) are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return out
}

// cpuShares estimates the processor time of each leaf span (those for
// which leaf is true) when more spans run at once than there are cores:
// in every interval where k leaf spans are open, the interval's
// min(k, cores) core-seconds are split equally among the k. Summed
// wall time would count a span waiting for a core as busy. Spans that
// are not leaves get 0.
func cpuShares(spans []span, leaf func(span) bool, cores int) []time.Duration {
	type event struct {
		at   time.Duration
		open bool
		idx  int
	}
	var evs []event
	for i, s := range spans {
		if leaf(s) && s.End > s.Start {
			evs = append(evs, event{s.Start, true, i}, event{s.End, false, i})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return !evs[i].open && evs[j].open // close before open at one instant
	})
	out := make([]time.Duration, len(spans))
	active := map[int]bool{}
	var last time.Duration
	for _, e := range evs {
		if k := len(active); k > 0 && e.at > last {
			each := time.Duration(float64(e.at-last) * float64(min(k, cores)) / float64(k))
			for i := range active {
				out[i] += each
			}
		}
		last = e.at
		if e.open {
			active[e.idx] = true
		} else {
			delete(active, e.idx)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi time.Duration, ivs []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var clipped []iv
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			clipped = append(clipped, iv{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, c := range clipped {
		if c.a > curB {
			total += curB - curA
			curA, curB = c.a, c.b
			continue
		}
		curB = max(curB, c.b)
	}
	return total + curB - curA
}

// ms and secs convert durations for reporting.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
