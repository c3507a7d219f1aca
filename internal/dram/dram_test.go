package dram

import (
	"testing"

	"repro/internal/trace"
)

func newSim(t *testing.T, channels int) *Simulator {
	t.Helper()
	s, err := New(DDR4Like(channels))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func seqTrace(n int, stride uint64, bytes uint32, kind trace.Kind) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Append(trace.Access{Addr: uint64(i) * stride, Bytes: bytes, Kind: kind})
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Channels: 0, BanksPerChan: 8, RowBytes: 2048, BurstBytes: 64, TBurst: 4, WindowSize: 8},
		{Channels: 4, BanksPerChan: 8, RowBytes: 2048, BurstBytes: 64, TBurst: 0, WindowSize: 8},
		{Channels: 4, BanksPerChan: 8, RowBytes: 2048, BurstBytes: 64, TBurst: 4, WindowSize: 0},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("accepted invalid config %+v", cfg)
		}
	}
	if _, err := New(DDR4Like(4)); err != nil {
		t.Errorf("rejected DDR4Like: %v", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	s := newSim(t, 4)
	st := s.RunOverlay(&trace.Trace{}, nil)
	if st.Cycles != 0 || st.BytesMoved != 0 {
		t.Errorf("empty trace: %+v", st)
	}
}

func TestBytesConservation(t *testing.T) {
	s := newSim(t, 4)
	tr := seqTrace(100, 64, 64, trace.Read)
	st := s.RunOverlay(tr, nil)
	if st.BytesMoved != 100*64 {
		t.Errorf("bytes moved = %d, want %d", st.BytesMoved, 100*64)
	}
	if st.Reads != 100 || st.Writes != 0 {
		t.Errorf("reads/writes = %d/%d, want 100/0", st.Reads, st.Writes)
	}
}

func TestLargeAccessSplitsIntoBursts(t *testing.T) {
	s := newSim(t, 1)
	tr := &trace.Trace{}
	tr.Append(trace.Access{Addr: 0, Bytes: 512, Kind: trace.Write})
	st := s.RunOverlay(tr, nil)
	if st.Writes != 8 {
		t.Errorf("512B write -> %d bursts, want 8", st.Writes)
	}
	if st.BytesMoved != 512 {
		t.Errorf("bytes moved = %d, want 512", st.BytesMoved)
	}
}

func TestCyclesMonotoneInTraceLength(t *testing.T) {
	s := newSim(t, 4)
	var prev uint64
	for _, n := range []int{10, 100, 1000, 5000} {
		st := s.RunOverlay(seqTrace(n, 64, 64, trace.Read), nil)
		if st.Cycles < prev {
			t.Errorf("cycles decreased: n=%d cycles=%d prev=%d", n, st.Cycles, prev)
		}
		prev = st.Cycles
	}
}

func TestMoreChannelsFaster(t *testing.T) {
	tr := seqTrace(4000, 64, 64, trace.Read)
	s1 := newSim(t, 1)
	s4 := newSim(t, 4)
	c1 := s1.RunOverlay(tr, nil).Cycles
	c4 := s4.RunOverlay(tr, nil).Cycles
	if c4 >= c1 {
		t.Errorf("4-channel (%d cycles) not faster than 1-channel (%d)", c4, c1)
	}
	// Interleaved sequential traffic should scale close to linearly.
	if float64(c1)/float64(c4) < 2.0 {
		t.Errorf("channel scaling only %.2fx, want >= 2x", float64(c1)/float64(c4))
	}
}

func TestSequentialBeatsRandom(t *testing.T) {
	// Row-buffer locality: a sequential walk should finish faster and
	// with a higher row-hit rate than a bank-thrashing stride walk.
	seq := seqTrace(2000, 64, 64, trace.Read)
	s := newSim(t, 1)
	stSeq := s.RunOverlay(seq, nil)

	thrash := &trace.Trace{}
	rowStride := uint64(2048 * 16 * 7) // jump rows and banks every access
	for i := 0; i < 2000; i++ {
		thrash.Append(trace.Access{Addr: uint64(i) * rowStride, Bytes: 64, Kind: trace.Read})
	}
	s2 := newSim(t, 1)
	stThrash := s2.RunOverlay(thrash, nil)

	if stSeq.RowHitRate() <= stThrash.RowHitRate() {
		t.Errorf("sequential row-hit rate %.3f <= thrash %.3f",
			stSeq.RowHitRate(), stThrash.RowHitRate())
	}
	if stSeq.Cycles >= stThrash.Cycles {
		t.Errorf("sequential (%d cycles) not faster than thrash (%d)",
			stSeq.Cycles, stThrash.Cycles)
	}
}

func TestRowOutcomeAccounting(t *testing.T) {
	s := newSim(t, 1)
	st := s.RunOverlay(seqTrace(1000, 64, 64, trace.Read), nil)
	if st.RowHits+st.RowMisses+st.RowEmpty != st.Reads {
		t.Errorf("row outcomes %d+%d+%d != reads %d",
			st.RowHits, st.RowMisses, st.RowEmpty, st.Reads)
	}
	// A 64B-stride walk within 2048B rows should be mostly row hits.
	if st.RowHitRate() < 0.9 {
		t.Errorf("sequential row hit rate = %.3f, want > 0.9", st.RowHitRate())
	}
}

func TestRefreshHappens(t *testing.T) {
	cfg := DDR4Like(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Enough traffic to run past several tREFI intervals.
	st := s.RunOverlay(seqTrace(50000, 64, 64, trace.Read), nil)
	if st.Refreshes == 0 {
		t.Error("no refreshes over a long trace")
	}
	if st.Cycles < cfg.TRefi {
		t.Errorf("cycles %d below one refresh interval %d", st.Cycles, cfg.TRefi)
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DDR4Like(1)
	cfg.TRefi = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := s.RunOverlay(seqTrace(50000, 64, 64, trace.Read), nil)
	if st.Refreshes != 0 {
		t.Errorf("refreshes = %d with refresh disabled", st.Refreshes)
	}
}

func TestIssueCycleRespected(t *testing.T) {
	s := newSim(t, 1)
	tr := &trace.Trace{}
	const lateIssue = 1_000_000
	tr.Append(trace.Access{Cycle: lateIssue, Addr: 0, Bytes: 64, Kind: trace.Read})
	st := s.RunOverlay(tr, nil)
	if st.Cycles < lateIssue {
		t.Errorf("trace finished at %d, before its only request's issue time %d",
			st.Cycles, lateIssue)
	}
}

func TestChannelMappingCoversAllChannels(t *testing.T) {
	s := newSim(t, 4)
	st := s.RunOverlay(seqTrace(400, 64, 64, trace.Read), nil)
	for ci, busy := range st.ChanCycles {
		if busy == 0 {
			t.Errorf("channel %d never used by interleaved walk", ci)
		}
	}
}

func TestMixedReadWriteCounts(t *testing.T) {
	s := newSim(t, 2)
	tr := &trace.Trace{}
	for i := 0; i < 64; i++ {
		k := trace.Read
		if i%2 == 1 {
			k = trace.Write
		}
		tr.Append(trace.Access{Addr: uint64(i) * 64, Bytes: 64, Kind: k})
	}
	st := s.RunOverlay(tr, nil)
	if st.Reads != 32 || st.Writes != 32 {
		t.Errorf("reads/writes = %d/%d, want 32/32", st.Reads, st.Writes)
	}
}
