package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// The hosts this benchmark runs on are shared: within a minute the same
// suite has taken 2.0 s and 3.7 s on one 2-vCPU machine, and the median
// of a 25-second run has moved by a third between runs minutes apart.
// No amount of averaging inside a run removes that, so every timing the
// benchmark bounds is taken in short slices, each between two readings
// of the host's pace — how long a fixed, benchmark-owned loop takes on
// every core right then — and is reported scaled to the reference pace:
//
//	reported = measured * refPaceS / pace
//
// where pace is the mean of the readings on the slice's two sides. A
// change to the program moves the measured time and not the pace; a
// slow spell of the host moves both, though not equally: when the
// figures suite ran 1.86 times slower, the pace read 1.48 times slower.
// The raw timings and the readings go on the summary line.

const (
	// paceIters is the pace loop's length on each core.
	paceIters = 30_000_000
	// refPaceS is the processor seconds one pace reading takes on the
	// reference host, a shared 2-vCPU "Intel Xeon Processor" with
	// go1.24.0: about the median of its readings, which ranged from 0.08
	// to 0.17 s as the host's speed changed.
	refPaceS = 0.16
)

// paceBuf is the pace loop's streaming buffer, 8 MB: four times a
// core's own (L2) cache on the reference host.
var paceBuf = make([]uint32, 2<<20)

// paceSink keeps the pace loop's result live.
var paceSink atomic.Uint64

// readPace runs the pace loop on every core and returns the mean
// processor seconds one loop took. Each loop runs on a locked thread
// and is timed by that thread's own CPU clock, so the program's other
// goroutines — a garbage collection still marking, idle connections —
// do not count as host slowness; where the thread clock is missing it
// falls back to wall time. The loop is shaped like a cycle simulator's
// inner loop: a pseudo-random access stream, a small table of open rows,
// and a read from the streaming buffer on each of the table's misses
// (seven in eight). It allocates nothing.
func readPace() float64 {
	n := runtime.GOMAXPROCS(0)
	done := make(chan float64, n)
	for g := 0; g < n; g++ {
		go func(x uint64) {
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start, wall := threadCPU(), time.Now()
			var open [1024]uint32
			var sum uint64
			k := 0
			for i := 0; i < paceIters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				bank, row := x&1023, uint32(x>>20)&7
				if open[bank] == row {
					sum += 3
					continue
				}
				open[bank] = row
				sum += uint64(paceBuf[k])
				k = (k + 16) & (len(paceBuf) - 1)
			}
			d := threadCPU() - start
			if start < 0 || d <= 0 {
				d = time.Since(wall)
			}
			paceSink.Add(sum)
			done <- d.Seconds()
		}(uint64(2*g + 7))
	}
	total := 0.0
	for g := 0; g < n; g++ {
		total += <-done
	}
	return total / float64(n)
}

// threadCPU is the calling thread's processor time, or -1 where the
// system does not report it.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return -1
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package
// does not name.
const rusageThread = 1

// pacer takes pace readings between slices of measured work.
type pacer struct {
	read     func() float64
	last     float64
	readings []float64
}

// newPacer takes the first reading, so the first slice has one before
// it.
func newPacer(read func() float64) *pacer {
	p := &pacer{read: read}
	p.last = p.take()
	return p
}

func (p *pacer) take() float64 {
	r := p.read()
	p.readings = append(p.readings, r)
	return r
}

// slice runs work, takes the reading after it, and returns the factor
// that scales a time measured during work to the reference pace. A rate
// measured during work is divided by it.
func (p *pacer) slice(work func()) float64 {
	before := p.last
	work()
	p.last = p.take()
	return refPaceS / ((before + p.last) / 2)
}

// paceSlice is how long a closed loop runs between pace readings.
const paceSlice = 2 * time.Second

// pacedClosedLoop runs closedLoop in slices of paceSlice until dur has
// passed or n requests are taken, with a pace reading between slices;
// do gets each request's index in [0, n). It returns how many requests
// were taken, each slice's completion rate at the reference pace, and
// for each request taken the factor of its slice.
func pacedClosedLoop(p *pacer, clients, n int, dur time.Duration, do func(i int)) (int, []float64, []float64) {
	deadline := time.Now().Add(dur)
	var rates, scale []float64
	for len(scale) < n && (len(scale) == 0 || time.Now().Before(deadline)) {
		first := len(scale)
		var taken int
		var wall time.Duration
		k := p.slice(func() {
			taken, wall = closedLoop(clients, n-first, max(min(paceSlice, time.Until(deadline)), time.Millisecond),
				func(i int) { do(first + i) })
		})
		if taken == 0 {
			break
		}
		for range taken {
			scale = append(scale, k)
		}
		rates = append(rates, float64(taken)/(wall.Seconds()*k))
	}
	return len(scale), rates, scale
}
