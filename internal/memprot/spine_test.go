package memprot

import (
	"reflect"
	"testing"

	"repro/internal/scalesim"
	"repro/internal/trace"
)

// TestProtectAllSharesOneSpine pins the tentpole property: every
// scheme's every layer aliases the scalesim trace as its spine — the
// data stream is built once per workload and never copied per scheme.
func TestProtectAllSharesOneSpine(t *testing.T) {
	net := edgeNet(t, "let")
	prots, err := ProtectAllArena(AllSchemes(), net, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prots) != len(AllSchemes()) {
		t.Fatalf("got %d results for %d schemes", len(prots), len(AllSchemes()))
	}
	for _, r := range prots {
		if len(r.Layers) != len(net.Layers) {
			t.Fatalf("%s: %d layers, want %d", r.Scheme.Name(), len(r.Layers), len(net.Layers))
		}
		for i := range r.Layers {
			if r.Layers[i].Spine != net.Layers[i].Trace {
				t.Fatalf("%s layer %d: spine is a copy, not the scalesim trace",
					r.Scheme.Name(), i)
			}
			if r.Layers[i].Trace != nil {
				t.Fatalf("%s layer %d: ProtectAllArena materialized a flat trace", r.Scheme.Name(), i)
			}
		}
	}
}

// TestProtectAllLeavesSpineUntouched: scheme emitters must treat the
// shared spine as immutable.
func TestProtectAllLeavesSpineUntouched(t *testing.T) {
	net := edgeNet(t, "let")
	before := make([][]trace.Access, len(net.Layers))
	for i := range net.Layers {
		before[i] = append([]trace.Access(nil), net.Layers[i].Trace.Accesses...)
	}
	if _, err := ProtectAllArena(AllSchemes(), net, DefaultOptions(), nil); err != nil {
		t.Fatal(err)
	}
	for i := range net.Layers {
		if !reflect.DeepEqual(before[i], net.Layers[i].Trace.Accesses) {
			t.Fatalf("layer %d: spine mutated by ProtectAllArena", i)
		}
	}
}

// TestProtectAllMatchesIndependentRuns: fanning one walk out to six
// emitters gives byte-identical overlays to six independent walks
// (scheme state never leaks across emitters).
func TestProtectAllMatchesIndependentRuns(t *testing.T) {
	net := edgeNet(t, "sent")
	all, err := ProtectAllArena(AllSchemes(), net, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range AllSchemes() {
		solo, err := ProtectAllArena([]Scheme{s}, net, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range all[k].Layers {
			if !reflect.DeepEqual(all[k].Layers[i].Deltas, solo[0].Layers[i].Deltas) {
				t.Fatalf("%s layer %d: overlay differs between fan-out and solo runs", s.Name(), i)
			}
		}
	}
}

// TestDrainAddressesPerCacheRegion is the regression test for the
// drain-address bug: the MAC cache's end-of-inference flush must be
// charged inside the MAC metadata region and the VN cache's inside the
// VN region (both used to land on the same line below VNBase, so VN
// drain traffic was attributed to MAC-region addresses and both
// flushes collapsed onto one DRAM line).
func TestDrainAddressesPerCacheRegion(t *testing.T) {
	for _, s := range []Scheme{SchemeSGX64, SchemeSGX512} {
		net := edgeNet(t, "let")
		prots, err := ProtectAllArena([]Scheme{s}, net, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		last := &prots[0].Layers[len(prots[0].Layers)-1]
		if prots[0].DrainWrites == 0 {
			t.Fatalf("%s: no drain writes recorded", s.Name())
		}
		var macDrain, vnDrain int
		for j := last.Deltas.Len() - prots[0].DrainWrites; j < last.Deltas.Len(); j++ {
			a := last.Deltas.Accesses[j]
			if int(last.Deltas.Anchors[j]) != last.Spine.Len() {
				t.Fatalf("%s: drain access anchored mid-spine at %d", s.Name(), last.Deltas.Anchors[j])
			}
			if a.Kind != trace.Write {
				t.Fatalf("%s: drain emitted a %s", s.Name(), a.Kind)
			}
			switch a.Class {
			case trace.MACMeta:
				macDrain++
				if a.Addr < MACBase || a.Addr >= VNBase {
					t.Errorf("%s: MAC drain at %#x outside MAC region [%#x,%#x)",
						s.Name(), a.Addr, MACBase, VNBase)
				}
			case trace.VNMeta:
				vnDrain++
				if a.Addr < VNBase || a.Addr >= TreeBase {
					t.Errorf("%s: VN drain at %#x outside VN region [%#x,%#x)",
						s.Name(), a.Addr, VNBase, TreeBase)
				}
			default:
				t.Errorf("%s: unexpected drain class %s", s.Name(), a.Class)
			}
		}
		if macDrain != 1 || vnDrain != 1 {
			t.Errorf("%s: drain writes mac=%d vn=%d, want 1 and 1 (ofmap writes leave both caches dirty)",
				s.Name(), macDrain, vnDrain)
		}
	}
}

// TestMetadataRegionsNeverOverlap is the property test for the
// metadata-addressing fix: for every protection-block granularity, the
// MAC/VN address ranges that distinct data regions (the two activation
// banks and the weights) map to must be pairwise disjoint, and every
// metadata class must stay inside its own region. The overlay anchors
// identify each metadata access's triggering data access, which is
// what makes the per-source attribution possible.
func TestMetadataRegionsNeverOverlap(t *testing.T) {
	for _, s := range []Scheme{SchemeSGX64, SchemeSGX512, SchemeMGX64, SchemeMGX512} {
		for _, wl := range []string{"alex", "sent"} {
			net := edgeNet(t, wl)
			prots, err := ProtectAllArena([]Scheme{s}, net, DefaultOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			// Per data region, the footprint of MAC and VN lines its
			// accesses touched.
			mac := map[uint64]*mdInterval{}
			vn := map[uint64]*mdInterval{}
			for li := range prots[0].Layers {
				pl := &prots[0].Layers[li]
				nd := pl.Deltas.Len()
				if li == len(prots[0].Layers)-1 {
					nd -= prots[0].DrainWrites // drain aggregates, covered elsewhere
				}
				for j := 0; j < nd; j++ {
					a := pl.Deltas.Accesses[j]
					anchor := int(pl.Deltas.Anchors[j])
					src := pl.Spine.Accesses[anchor-1]
					region := regionBase(src.Addr)
					lo := a.Addr
					hi := a.Addr + uint64(a.Bytes) - 1
					switch a.Class {
					case trace.MACMeta:
						if lo < MACBase || hi >= VNBase {
							t.Fatalf("%s/%s: MAC access [%#x,%#x] outside MAC region", s.Name(), wl, lo, hi)
						}
						grow(mac, region, lo, hi)
					case trace.VNMeta:
						if lo < VNBase || hi >= TreeBase {
							t.Fatalf("%s/%s: VN access [%#x,%#x] outside VN region", s.Name(), wl, lo, hi)
						}
						grow(vn, region, lo, hi)
					case trace.TreeMeta:
						if lo < TreeBase || hi >= LayerMACBase {
							t.Fatalf("%s/%s: tree access [%#x,%#x] outside tree region", s.Name(), wl, lo, hi)
						}
					}
				}
			}
			for _, class := range []map[uint64]*mdInterval{mac, vn} {
				regions := make([]uint64, 0, len(class))
				for r := range class {
					regions = append(regions, r)
				}
				for i := 0; i < len(regions); i++ {
					for j := i + 1; j < len(regions); j++ {
						a, b := class[regions[i]], class[regions[j]]
						if a.lo <= b.hi && b.lo <= a.hi {
							t.Fatalf("%s/%s: metadata of regions %#x and %#x overlap: [%#x,%#x] vs [%#x,%#x]",
								s.Name(), wl, regions[i], regions[j], a.lo, a.hi, b.lo, b.hi)
						}
					}
				}
			}
		}
	}
}

// mdInterval is an inclusive metadata address range.
type mdInterval struct{ lo, hi uint64 }

func grow(m map[uint64]*mdInterval, region, lo, hi uint64) {
	if r, ok := m[region]; ok {
		if lo < r.lo {
			r.lo = lo
		}
		if hi > r.hi {
			r.hi = hi
		}
		return
	}
	m[region] = &mdInterval{lo, hi}
}

// TestMetadataRegionsDisjointAtFullSpan stresses the worst case the
// real workloads cannot reach: a data region exercised out to the full
// inter-region spacing. If the metadata offset scaling were wrong for
// any granularity (e.g. the old hardcoded 64 B divisor), the last
// blocks of one region's MAC/VN range would collide with the start of
// the next region's.
func TestMetadataRegionsDisjointAtFullSpan(t *testing.T) {
	span := scalesim.ActBBase - scalesim.ActABase // region spacing
	mk := func(base uint64) trace.Access {
		return trace.Access{Addr: base + span - 64, Bytes: 64, Kind: trace.Write, Class: trace.Data}
	}
	tr := &trace.Trace{}
	for _, base := range []uint64{scalesim.ActABase, scalesim.ActBBase, scalesim.WeightsBase} {
		tr.Append(trace.Access{Addr: base, Bytes: 64, Kind: trace.Write, Class: trace.Data})
		tr.Append(mk(base))
	}
	net := &scalesim.NetworkResult{Layers: []scalesim.LayerResult{{LayerID: 0, Trace: tr}}}

	for _, s := range []Scheme{SchemeSGX64, SchemeSGX512, SchemeMGX64, SchemeMGX512} {
		prots, err := ProtectAllArena([]Scheme{s}, net, DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		pl := &prots[0].Layers[0]
		macR := map[uint64]*mdInterval{}
		vnR := map[uint64]*mdInterval{}
		nd := pl.Deltas.Len() - prots[0].DrainWrites
		for j := 0; j < nd; j++ {
			a := pl.Deltas.Accesses[j]
			anchor := int(pl.Deltas.Anchors[j])
			region := regionBase(pl.Spine.Accesses[anchor-1].Addr)
			var m map[uint64]*mdInterval
			switch a.Class {
			case trace.MACMeta:
				m = macR
			case trace.VNMeta:
				m = vnR
			default:
				continue
			}
			grow(m, region, a.Addr, a.Addr+uint64(a.Bytes)-1)
		}
		bases := []uint64{scalesim.ActABase, scalesim.ActBBase, scalesim.WeightsBase}
		for _, m := range []map[uint64]*mdInterval{macR, vnR} {
			if len(m) == 0 {
				continue
			}
			for i := 0; i < len(bases); i++ {
				for j := i + 1; j < len(bases); j++ {
					a, ok1 := m[bases[i]]
					b, ok2 := m[bases[j]]
					if !ok1 || !ok2 {
						continue
					}
					if a.lo <= b.hi && b.lo <= a.hi {
						t.Fatalf("%s: full-span metadata of %#x and %#x overlap: [%#x,%#x] vs [%#x,%#x]",
							s.Name(), bases[i], bases[j], a.lo, a.hi, b.lo, b.hi)
					}
				}
			}
		}
	}
}

// TestProtectAllRejectsInvalidScheme mirrors the single-scheme guard.
func TestProtectAllRejectsInvalidScheme(t *testing.T) {
	net := edgeNet(t, "let")
	if _, err := ProtectAllArena([]Scheme{SchemeSGX64, {Kind: MGX, Block: 7}}, net, DefaultOptions(), nil); err == nil {
		t.Error("invalid scheme accepted")
	}
}
