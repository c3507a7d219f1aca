package memprot

import (
	"testing"

	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/internal/trace"
)

func edgeNet(t *testing.T, name string) *scalesim.NetworkResult {
	t.Helper()
	cfg, err := scalesim.New(32, 32, 480*1024)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfg.SimulateNetwork(model.ByName(name))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func serverNet(t *testing.T, name string) *scalesim.NetworkResult {
	t.Helper()
	cfg, err := scalesim.New(256, 256, 24*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfg.SimulateNetwork(model.ByName(name))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// protectWith runs one scheme through the protection walk.
func protectWith(t testing.TB, s Scheme, net *scalesim.NetworkResult, opts Options) *Result {
	t.Helper()
	rs, err := ProtectAllArena([]Scheme{s}, net, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// protect runs one scheme under default options and materializes every
// layer's flat trace, for tests that inspect the accesses directly.
func protect(t testing.TB, s Scheme, net *scalesim.NetworkResult) *Result {
	t.Helper()
	r := protectWith(t, s, net, DefaultOptions())
	for i := range r.Layers {
		r.Layers[i].Materialize()
	}
	return r
}

func TestSchemeNames(t *testing.T) {
	cases := map[string]Scheme{
		"Baseline": SchemeBaseline,
		"SGX-64B":  SchemeSGX64,
		"SGX-512B": SchemeSGX512,
		"MGX-64B":  SchemeMGX64,
		"MGX-512B": SchemeMGX512,
		"SeDA":     SchemeSeDA,
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestSchemeValidate(t *testing.T) {
	bad := []Scheme{
		{Kind: SGX, Block: 0},
		{Kind: SGX, Block: 100},
		{Kind: MGX, Block: -64},
		{Kind: Kind(9)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v validated", s)
		}
	}
	for _, s := range AllSchemes() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestBaselinePassThrough(t *testing.T) {
	net := edgeNet(t, "rest")
	r := protect(t, SchemeBaseline, net)
	if r.TotalMetaBytes() != 0 {
		t.Errorf("baseline meta bytes = %d", r.TotalMetaBytes())
	}
	if r.TotalDataBytes() != net.TotalDataBytes() {
		t.Errorf("baseline data bytes %d != network %d",
			r.TotalDataBytes(), net.TotalDataBytes())
	}
	var accesses int
	for _, pl := range r.Layers {
		accesses += pl.Trace.Len()
	}
	var orig int
	for _, lr := range net.Layers {
		orig += lr.Trace.Len()
	}
	if accesses != orig {
		t.Errorf("baseline added/removed accesses: %d vs %d", accesses, orig)
	}
}

func TestDataBytesInvariantAcrossSchemes(t *testing.T) {
	net := edgeNet(t, "mob")
	want := net.TotalDataBytes()
	for _, s := range AllSchemes() {
		r := protect(t, s, net)
		if r.TotalDataBytes() != want {
			t.Errorf("%s: data bytes %d != baseline %d", s.Name(), r.TotalDataBytes(), want)
		}
	}
}

// The central ordering claim of Fig. 5: per workload,
// SGX-64B >= MGX-64B >= MGX-512B and SGX-64B >= SGX-512B, and SeDA is
// the cheapest protection.
func TestSchemeOverheadOrdering(t *testing.T) {
	for _, name := range model.Names() {
		net := edgeNet(t, name)
		oh := map[string]float64{}
		for _, s := range AllSchemes() {
			r := protect(t, s, net)
			oh[s.Name()] = r.TrafficOverheadRatio()
		}
		if oh["SGX-64B"] < oh["MGX-64B"] {
			t.Errorf("%s: SGX-64B %.4f < MGX-64B %.4f", name, oh["SGX-64B"], oh["MGX-64B"])
		}
		if oh["SGX-64B"] < oh["SGX-512B"] {
			t.Errorf("%s: SGX-64B %.4f < SGX-512B %.4f", name, oh["SGX-64B"], oh["SGX-512B"])
		}
		if oh["MGX-64B"] < oh["MGX-512B"] {
			t.Errorf("%s: MGX-64B %.4f < MGX-512B %.4f", name, oh["MGX-64B"], oh["MGX-512B"])
		}
		for _, other := range []string{"SGX-64B", "SGX-512B", "MGX-64B", "MGX-512B"} {
			if oh["SeDA"] > oh[other] {
				t.Errorf("%s: SeDA %.4f > %s %.4f", name, oh["SeDA"], other, oh[other])
			}
		}
		if oh["Baseline"] != 0 {
			t.Errorf("%s: baseline overhead %.4f != 0", name, oh["Baseline"])
		}
	}
}

func TestMGX64RawMACOverheadNear12Percent(t *testing.T) {
	// MGX-64B's overhead is 8B MAC per 64B block plus alignment
	// charges: slightly above 12.5%, never below ~12%, and bounded.
	for _, name := range []string{"alex", "rest", "yolo", "trf"} {
		r := protect(t, SchemeMGX64, edgeNet(t, name))
		oh := r.TrafficOverheadRatio()
		if oh < 0.115 || oh > 0.16 {
			t.Errorf("%s: MGX-64B overhead = %.4f, want ~0.125", name, oh)
		}
	}
}

func TestSeDANearZeroOverhead(t *testing.T) {
	for _, name := range model.Names() {
		r := protect(t, SchemeSeDA, edgeNet(t, name))
		oh := r.TrafficOverheadRatio()
		if oh > 0.01 {
			t.Errorf("%s: SeDA overhead = %.4f, want < 1%%", name, oh)
		}
		if oh < 0 {
			t.Errorf("%s: negative overhead %.4f", name, oh)
		}
	}
}

func TestSeDAPicksOptBlkPerLayer(t *testing.T) {
	r := protect(t, SchemeSeDA, edgeNet(t, "rest"))
	for _, pl := range r.Layers {
		if pl.Overhead.OptBlk < 64 {
			t.Errorf("layer %d: optBlk = %d", pl.LayerID, pl.Overhead.OptBlk)
		}
	}
}

func TestSGXEmitsAllMetadataClasses(t *testing.T) {
	r := protect(t, SchemeSGX64, edgeNet(t, "alex"))
	var mac, vn, tree uint64
	for _, pl := range r.Layers {
		mac += pl.Overhead.MACBytes
		vn += pl.Overhead.VNBytes
		tree += pl.Overhead.TreeBytes
	}
	if mac == 0 || vn == 0 || tree == 0 {
		t.Errorf("SGX metadata mac/vn/tree = %d/%d/%d, all must be > 0", mac, vn, tree)
	}
}

func TestMGXNoVNOrTreeTraffic(t *testing.T) {
	r := protect(t, SchemeMGX64, edgeNet(t, "alex"))
	for _, pl := range r.Layers {
		if pl.Overhead.VNBytes != 0 || pl.Overhead.TreeBytes != 0 {
			t.Fatalf("MGX layer %d has VN/tree traffic %d/%d",
				pl.LayerID, pl.Overhead.VNBytes, pl.Overhead.TreeBytes)
		}
		for _, a := range pl.Trace.Accesses {
			if a.Class == trace.VNMeta || a.Class == trace.TreeMeta {
				t.Fatalf("MGX trace contains %s access", a.Class)
			}
		}
	}
}

func TestCoarserBlocksLessMACTraffic(t *testing.T) {
	net := edgeNet(t, "rest")
	r64 := protect(t, SchemeMGX64, net)
	r512 := protect(t, SchemeMGX512, net)
	var m64, m512 uint64
	for i := range r64.Layers {
		m64 += r64.Layers[i].Overhead.MACBytes
		m512 += r512.Layers[i].Overhead.MACBytes
	}
	if m512 >= m64 {
		t.Errorf("512B MAC traffic %d >= 64B %d", m512, m64)
	}
	// Roughly 8x fewer blocks -> roughly 8x less MAC traffic.
	if ratio := float64(m64) / float64(m512); ratio < 6 || ratio > 10 {
		t.Errorf("MAC traffic ratio 64B/512B = %.2f, want ~8", ratio)
	}
}

func TestCoarserBlocksMoreOverFetch(t *testing.T) {
	net := edgeNet(t, "goo")
	r64 := protect(t, SchemeMGX64, net)
	r512 := protect(t, SchemeMGX512, net)
	var o64, o512 uint64
	for i := range r64.Layers {
		o64 += r64.Layers[i].Overhead.OverFetchBytes
		o512 += r512.Layers[i].Overhead.OverFetchBytes
	}
	if o512 < o64 {
		t.Errorf("512B over-fetch %d < 64B %d", o512, o64)
	}
}

func TestTraceStatsMatchOverheadCounters(t *testing.T) {
	net := edgeNet(t, "ds2")
	for _, s := range AllSchemes() {
		r := protect(t, s, net)
		for _, pl := range r.Layers {
			st := pl.Trace.ComputeStats()
			if st.BytesByClass[trace.Data] != pl.Overhead.DataBytes {
				t.Errorf("%s layer %d: trace data %d != counter %d",
					s.Name(), pl.LayerID, st.BytesByClass[trace.Data], pl.Overhead.DataBytes)
			}
			if st.MetaBytes() != pl.Overhead.MetaBytes() {
				t.Errorf("%s layer %d: trace meta %d != counter %d",
					s.Name(), pl.LayerID, st.MetaBytes(), pl.Overhead.MetaBytes())
			}
		}
	}
}

func TestSGXCacheFiltersRepeatedAccess(t *testing.T) {
	// Server SRAM keeps tensors resident so each metadata line is
	// touched few times; edge re-streams weights, and the caches
	// should filter some of the repeats. Either way, SGX MAC traffic
	// must not exceed the uncached worst case (8B per block touched
	// per access, line-rounded).
	net := serverNet(t, "rest")
	r := protect(t, SchemeSGX64, net)
	rm := protect(t, SchemeMGX64, net)
	var sgxMAC, mgxMAC uint64
	for i := range r.Layers {
		sgxMAC += r.Layers[i].Overhead.MACBytes
		mgxMAC += rm.Layers[i].Overhead.MACBytes
	}
	// MGX is the uncached per-access cost; SGX's cached cost may add
	// at most writeback traffic on top (2x bound).
	if sgxMAC > 2*mgxMAC+uint64(DefaultOptions().MACCacheBytes) {
		t.Errorf("SGX MAC traffic %d far above uncached bound %d", sgxMAC, mgxMAC)
	}
}

func TestFeatureRows(t *testing.T) {
	f := SchemeSGX64.FeatureRow()
	if f.OffChipMetadata != "MAC,VN,IT" || f.TilingAware || f.EncryptionScalable {
		t.Errorf("SGX features wrong: %+v", f)
	}
	f = SchemeMGX512.FeatureRow()
	if f.OffChipMetadata != "MAC" || f.IntegrityGranularity != "512B" {
		t.Errorf("MGX features wrong: %+v", f)
	}
	f = SchemeSeDA.FeatureRow()
	if !f.TilingAware || !f.EncryptionScalable {
		t.Errorf("SeDA features wrong: %+v", f)
	}
}

func TestMetadataAddressesDisjointFromData(t *testing.T) {
	net := edgeNet(t, "alex")
	for _, s := range []Scheme{SchemeSGX64, SchemeMGX512, SchemeSeDA} {
		r := protect(t, s, net)
		for _, pl := range r.Layers {
			for _, a := range pl.Trace.Accesses {
				isMeta := a.Class == trace.MACMeta || a.Class == trace.VNMeta || a.Class == trace.TreeMeta
				if isMeta && a.Addr < MACBase {
					t.Fatalf("%s: metadata access at data address %#x", s.Name(), a.Addr)
				}
				if a.Class == trace.Data && a.Addr >= MACBase {
					t.Fatalf("%s: data access at metadata address %#x", s.Name(), a.Addr)
				}
			}
		}
	}
}

func TestProtectRejectsInvalidScheme(t *testing.T) {
	net := edgeNet(t, "let")
	if _, err := ProtectAllArena([]Scheme{{Kind: SGX, Block: 7}}, net, DefaultOptions(), nil); err == nil {
		t.Error("invalid scheme accepted")
	}
}
