package dram

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// refRequest is one burst of the reference scheduler's queue: the
// address is decoded again at every look, as the original scheduler
// did.
type refRequest struct {
	issue uint64
	addr  uint64
}

// refChannel is one channel of the reference model.
type refChannel struct {
	banks    []bank
	busFree  uint64
	busy     uint64
	queue    []refRequest
	nextRef  uint64
	refCount uint64
}

// referenceRun drains the accesses iter yields with the window-scanning
// FR-FCFS scheduler that the span-queue drain replaced: a per-burst
// explode into plain queues, then per pick one O(window) scan that
// decodes every candidate's address. It is slow and obviously correct,
// so the optimized drain (span queues, candidate caches, same-row
// streaks) is checked against it instead of only against golden
// numbers.
func referenceRun(cfg Config, iter func(yield func(*trace.Access))) Stats {
	st := Stats{ChanCycles: make([]uint64, cfg.Channels)}
	chans := make([]refChannel, cfg.Channels)
	for i := range chans {
		chans[i].banks = make([]bank, cfg.BanksPerChan)
		for j := range chans[i].banks {
			chans[i].banks[j].openRow = -1
		}
		chans[i].nextRef = cfg.TRefi
	}
	burstBytes := uint64(cfg.BurstBytes)
	iter(func(a *trace.Access) {
		n := (uint64(a.Bytes) + burstBytes - 1) / burstBytes
		if n == 0 {
			n = 1
		}
		st.BytesMoved += n * burstBytes
		if a.Kind == trace.Write {
			st.Writes += n
		} else {
			st.Reads += n
		}
		for b := uint64(0); b < n; b++ {
			addr := a.Addr + b*burstBytes
			c := (addr / burstBytes) % uint64(cfg.Channels)
			chans[c].queue = append(chans[c].queue, refRequest{issue: a.Cycle, addr: addr})
		}
	})
	for ci := range chans {
		r := referenceDrain(cfg, &chans[ci])
		st.ChanCycles[ci] = r.busy
		st.MaxChanBusy = max(st.MaxChanBusy, r.busy)
		st.Cycles = max(st.Cycles, r.done)
		st.RowHits += r.rowHits
		st.RowMisses += r.rowMisses
		st.RowEmpty += r.rowEmpty
		st.Refreshes += r.refreshes
	}
	return st
}

// refMapAddr splits a byte address into channel, bank and row with the
// burst-interleaved mapping.
func refMapAddr(cfg Config, addr uint64) (ch, bk int, row int64) {
	burst := addr / uint64(cfg.BurstBytes)
	ch = int(burst % uint64(cfg.Channels))
	perChan := burst / uint64(cfg.Channels)
	burstsPerRow := uint64(cfg.RowBytes / cfg.BurstBytes)
	rowGlobal := perChan / burstsPerRow
	bk = int(rowGlobal % uint64(cfg.BanksPerChan))
	row = int64(rowGlobal / uint64(cfg.BanksPerChan))
	return ch, bk, row
}

// referenceDrain schedules one channel's queue. The reorder window
// slides over the queue: the selected request is swapped to the window
// head and the head advances.
func referenceDrain(cfg Config, ch *refChannel) chanResult {
	var res chanResult
	var now uint64
	var lastDone uint64
	q := ch.queue
	head := 0
	for head < len(q) {
		// Refresh stall if due.
		if cfg.TRefi > 0 && now >= ch.nextRef {
			for i := range ch.banks {
				ch.banks[i].openRow = -1
				if ch.banks[i].readyAt < now+cfg.TRfc {
					ch.banks[i].readyAt = now + cfg.TRfc
				}
			}
			now += cfg.TRfc
			ch.busy += cfg.TRfc
			ch.nextRef += cfg.TRefi
			ch.refCount++
			continue
		}

		// FR-FCFS: among the window, prefer the oldest row hit whose
		// issue time has arrived on a ready bank; otherwise the oldest
		// issued request; otherwise advance time.
		win := min(head+cfg.WindowSize, len(q))
		pick := -1
		for i := head; i < win; i++ {
			if q[i].issue > now {
				continue
			}
			_, bk, row := refMapAddr(cfg, q[i].addr)
			if ch.banks[bk].openRow == row && ch.banks[bk].readyAt <= now {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i := head; i < win; i++ {
				if q[i].issue <= now {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			// Nothing ready: jump to the earliest issue time in the window.
			jump := q[head].issue
			for i := head + 1; i < win; i++ {
				jump = min(jump, q[i].issue)
			}
			if jump <= now {
				jump = now + 1
			}
			now = jump
			continue
		}

		req := q[pick]
		q[pick] = q[head]
		head++

		_, bk, row := refMapAddr(cfg, req.addr)
		b := &ch.banks[bk]
		start := max(now, b.readyAt)
		var svc uint64
		switch {
		case b.openRow == row:
			res.rowHits++
			svc = cfg.TCL
		case b.openRow == -1:
			res.rowEmpty++
			svc = cfg.TRCD + cfg.TCL
			b.activeAt = start
		default:
			res.rowMisses++
			// Honor tRAS before precharging the open row.
			start = max(start, b.activeAt+cfg.TRAS)
			svc = cfg.TRP + cfg.TRCD + cfg.TCL
			b.activeAt = start + cfg.TRP
		}
		b.openRow = row

		// Data bus occupancy serializes bursts on the channel.
		doneAt := max(start+svc, ch.busFree) + cfg.TBurst
		ch.busFree = doneAt
		b.readyAt = start + svc
		ch.busy += cfg.TBurst
		lastDone = max(lastDone, doneAt)
		now = max(now, start) + cfg.TBurst
	}
	res.busy = ch.busy
	res.refreshes = ch.refCount
	res.done = max(lastDone, now)
	return res
}

// checkAgainstReference drains spine+deltas with the simulator and the
// reference and fails on any Stats difference.
func checkAgainstReference(t *testing.T, cfg Config, spine *trace.Trace, deltas *trace.Overlay) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("config %+v: %v", cfg, err)
	}
	got := s.RunOverlay(spine, deltas)
	want := referenceRun(cfg, func(yield func(*trace.Access)) {
		trace.ForEachMerged(spine, deltas, yield)
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("config %+v:\n drain     %+v\n reference %+v", cfg, got, want)
	}
}

// Timings of the two NPU presets as seda.NPUConfig.DRAMConfig derives
// them. Server has TCL > TBurst, so a same-row streak's bank is busy
// at every later pick and the head is taken through rule 2; edge has
// TCL <= TBurst, so the bank is ready again and the head wins rule 1.
func serverTimings(c Config) Config {
	c.TBurst, c.TCL, c.TRCD, c.TRP, c.TRAS, c.TRefi, c.TRfc = 12, 14, 14, 14, 32, 7800, 350
	return c
}

func edgeTimings(c Config) Config {
	c.TBurst, c.TCL, c.TRCD, c.TRP, c.TRAS, c.TRefi, c.TRfc = 70, 38, 38, 38, 88, 21450, 962
	return c
}

// streamTrace is a streaming tensor walk: long contiguous reads and
// writes several rows long, issued densely, with a metadata line read
// far away every few accesses, so same-row streaks meet competing
// candidates on other banks.
func streamTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Append(trace.Access{Cycle: uint64(i) * 40, Addr: 0x400_0000 + uint64(i)*4096, Bytes: 4096, Kind: trace.Kind(i % 2)})
		if i%3 == 0 {
			tr.Append(trace.Access{Cycle: uint64(i) * 40, Addr: 0x1_0000_0000 + uint64(i%97)*64, Bytes: 64, Kind: trace.Read})
		}
	}
	return tr
}

// pacedTrace is a contiguous walk of single-burst accesses whose
// issue pace changes every 50 accesses, now faster and now slower than
// the drain, so same-row streaks end on a head that has not issued
// yet. The pace 71 is the edge preset's TBurst+1 on one channel: each
// head issues one cycle after the previous pick's time.
func pacedTrace(n int) *trace.Trace {
	paces := []uint64{71, 13, 100, 100, 100, 71, 5, 30}
	tr := &trace.Trace{}
	var cycle uint64
	for i := 0; i < n; i++ {
		cycle += paces[i/50%len(paces)]
		tr.Append(trace.Access{Cycle: cycle, Addr: uint64(i) * 64, Bytes: 64, Kind: trace.Read})
	}
	return tr
}

// TestDrainMatchesReferencePresetTimings checks the drain against the
// reference at the server and edge timings, the two regimes of the
// same-row streak, over every test trace shape of the package and
// several geometries.
func TestDrainMatchesReferencePresetTimings(t *testing.T) {
	odd := goldenConfigs()["odd3x12"]
	wide := DDR4Like(2)
	wide.BanksPerChan = 80 // more than 64 banks: no candidate mask
	spine, ov := overlayPair(400)
	traces := []struct {
		name   string
		spine  *trace.Trace
		deltas *trace.Overlay
	}{
		{"conflict", conflictTrace(1500), nil},
		{"mixed", mixedTrace(1500), nil},
		{"stream", streamTrace(300), nil},
		{"paced", pacedTrace(3000), nil},
		{"overlay", spine, ov},
		{"seq", seqTrace(3000, 64, 64, trace.Read), nil},
	}
	for _, timings := range []struct {
		name string
		fn   func(Config) Config
	}{{"server", serverTimings}, {"edge", edgeTimings}} {
		for _, geo := range []struct {
			name string
			cfg  Config
		}{{"ddr4x4", DDR4Like(4)}, {"odd3x12", odd}, {"banks80", wide}} {
			cfg := timings.fn(geo.cfg)
			for _, tr := range traces {
				t.Run(timings.name+"/"+geo.name+"/"+tr.name, func(t *testing.T) {
					checkAgainstReference(t, cfg, tr.spine, tr.deltas)
				})
			}
		}
	}
}

// TestDrainMatchesReferencePrefixes compares every prefix of short
// traces. Stats expose timing only through totals such as Cycles, the
// finish time of the last burst, so a pick made a cycle early can
// resynchronize before the end of a long trace; over all prefixes,
// Cycles checks the finish time of every access.
func TestDrainMatchesReferencePrefixes(t *testing.T) {
	full := []*trace.Trace{pacedTrace(300), conflictTrace(120), streamTrace(40)}
	for _, cfg := range []Config{
		serverTimings(DDR4Like(1)), edgeTimings(DDR4Like(1)),
		serverTimings(DDR4Like(4)), edgeTimings(DDR4Like(4)),
	} {
		for _, tr := range full {
			for n := 1; n <= tr.Len(); n++ {
				checkAgainstReference(t, cfg, &trace.Trace{Accesses: tr.Accesses[:n]}, nil)
			}
		}
	}
}

// TestReferenceMatchesGolden anchors the reference itself: it is the
// scheduler the golden pick-order stats were recorded from.
func TestReferenceMatchesGolden(t *testing.T) {
	tr := conflictTrace(4000)
	for name, cfg := range goldenConfigs() {
		got := referenceRun(cfg, func(yield func(*trace.Access)) { trace.ForEachMerged(tr, nil, yield) })
		if want := goldenStats[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// FuzzDrainMatchesReference drains random traces with overlays through
// random geometries and timings and requires every Stats field,
// ChanCycles included, to match the reference scheduler. The inputs
// cover power-of-two and other geometries, more than 64 banks (no
// candidate mask), TCL <= TBurst and TCL > TBurst, refresh on and off,
// and issue times that arrive late.
func FuzzDrainMatchesReference(f *testing.F) {
	// Geometry arguments index these tables, so power-of-two geometries
	// (shift/mask decode) come up often next to the others (division
	// decode), and 65 or more banks leave the drain without candMask.
	chanChoices := []int{1, 2, 3, 4, 5, 8}
	bankChoices := []int{1, 2, 3, 4, 8, 12, 16, 32, 64, 65, 80}
	burstChoices := []int{16, 32, 48, 64, 128}
	rowChoices := []int{1, 2, 3, 4, 8, 16, 24, 32} // bursts per row

	// Seeds: the server and edge presets' timings, then an odd
	// geometry, more than 64 banks, and 48-byte bursts.
	f.Add(uint64(1), uint8(3), uint8(6), uint8(7), uint8(3), uint8(32), uint8(12), uint8(14), uint8(14), true, uint16(300))
	f.Add(uint64(2), uint8(3), uint8(6), uint8(7), uint8(3), uint8(32), uint8(70), uint8(38), uint8(38), true, uint16(300))
	f.Add(uint64(3), uint8(2), uint8(5), uint8(6), uint8(3), uint8(8), uint8(4), uint8(14), uint8(14), true, uint16(400))
	f.Add(uint64(4), uint8(1), uint8(10), uint8(7), uint8(3), uint8(16), uint8(12), uint8(14), uint8(14), false, uint16(400))
	f.Add(uint64(5), uint8(0), uint8(2), uint8(2), uint8(2), uint8(3), uint8(9), uint8(3), uint8(20), true, uint16(200))
	f.Fuzz(func(t *testing.T, seed uint64, chans, banks, burstsPerRow, burstBytes, window, tburst, tcl, trcd uint8, refresh bool, n uint16) {
		cfg := Config{
			Channels:     chanChoices[int(chans)%len(chanChoices)],
			BanksPerChan: bankChoices[int(banks)%len(bankChoices)],
			BurstBytes:   burstChoices[int(burstBytes)%len(burstChoices)],
			WindowSize:   1 + int(window)%48,
			TBurst:       max(1, uint64(tburst)),
			TCL:          max(1, uint64(tcl)),
			TRCD:         max(1, uint64(trcd)),
			TRP:          max(1, uint64(trcd)/2),
			TRAS:         uint64(tcl) + uint64(trcd),
		}
		cfg.RowBytes = cfg.BurstBytes * rowChoices[int(burstsPerRow)%len(rowChoices)]
		if refresh {
			cfg.TRfc = 1 + seed%300
			cfg.TRefi = cfg.TRfc + 1 + (seed>>9)%9000
		}
		spine, deltas := fuzzTraces(cfg, seed, 1+int(n)%400)
		checkAgainstReference(t, cfg, spine, deltas)
	})
}

// fuzzTraces builds a random spine and overlay from seed: streaming
// tensor runs that cross rows, scattered metadata lines, bank-conflict
// ping-pong, continuations of the previous access that issue later
// (same-row streams that outrun their issue times), and occasional
// issue times far in the future, all over a region a few rows per bank
// wide so rows recur.
func fuzzTraces(cfg Config, seed uint64, n int) (*trace.Trace, *trace.Overlay) {
	state := seed*0x9e3779b97f4a7c15 + 1
	rnd := func(m uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % m
	}
	rowSpan := uint64(cfg.Channels * cfg.RowBytes) // bytes per global row
	region := rowSpan * uint64(cfg.BanksPerChan) * 4
	spine := &trace.Trace{}
	ov := &trace.Overlay{}
	var cycle, next uint64
	for i := 0; i < n; i++ {
		cycle += rnd(3 * uint64(cfg.TBurst+1))
		issue := cycle
		if rnd(16) == 0 {
			issue += rnd(20000) // late issue
		}
		var a trace.Access
		switch rnd(5) {
		case 0, 1: // streaming run, possibly several rows long
			a = trace.Access{Addr: rnd(region), Bytes: uint32(1 + rnd(min(rowSpan*2, 8192)))}
		case 2: // continues the previous access, issued a little later
			a = trace.Access{Addr: next, Bytes: uint32(1 + rnd(512))}
		case 3: // two rows of one bank, alternating
			a = trace.Access{Addr: rnd(2) * rowSpan * uint64(cfg.BanksPerChan), Bytes: uint32(1 + rnd(256))}
		default:
			a = trace.Access{Addr: rnd(region), Bytes: uint32(rnd(2) * 64)}
		}
		a.Cycle = issue
		a.Kind = trace.Kind(rnd(2))
		spine.Append(a)
		next = a.Addr + uint64(a.Bytes)
		anchor := spine.Len() - int(rnd(2))
		for k := rnd(3); k > 0; k-- {
			ov.Append(anchor, trace.Access{
				Cycle: issue,
				Addr:  region + rnd(region/4+1),
				Bytes: uint32(16 + rnd(128)),
				Kind:  trace.Kind(rnd(2)),
				Class: trace.MACMeta,
			})
		}
	}
	return spine, ov
}
