package memprot

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/authblock"
	"repro/internal/model"
	"repro/internal/scalesim"
	"repro/internal/trace"
)

// optBlkGolden pins SeDA's chosen per-layer blocks for every workload
// on both NPU geometries: the first 8 bytes (hex) of a SHA-256 over
// the comma-joined per-layer OptBlk sequence. Generated from the
// legacy per-candidate scan before the RunSet rewrite and verified
// bit-identical against it — any search change that moves a single
// layer's block on a single workload fails here.
var optBlkGolden = map[string]string{
	"server/let":  "f5cdddceb622f9ec",
	"server/alex": "95abecd247367c7d",
	"server/mob":  "b11fe51f042cc9ed",
	"server/rest": "f9407694484ff18c",
	"server/goo":  "05f042a5c2cb4a05",
	"server/dlrm": "fe6c593f4a2da32e",
	"server/algo": "252cd3bcb80fb73e",
	"server/ds2":  "341096e724e522cc",
	"server/fast": "0e797f7cff1ef140",
	"server/ncf":  "3592a606cb624909",
	"server/sent": "9ce774ddfcb2e0af",
	"server/trf":  "deae4005b2511ad9",
	"server/yolo": "5e19cc75e0cfac0b",
	"edge/let":    "f5cdddceb622f9ec",
	"edge/alex":   "b14fffcea2263428",
	"edge/mob":    "19df20cb0c97fb4e",
	"edge/rest":   "d60ef4adfb2d580d",
	"edge/goo":    "ca2f160d77965ec7",
	"edge/dlrm":   "37ccf67f4548cd7f",
	"edge/algo":   "3713c4f14dea492f",
	"edge/ds2":    "9dd2747fa065824e",
	"edge/fast":   "a7537f7c9518bf93",
	"edge/ncf":    "3592a606cb624909",
	"edge/sent":   "9ce774ddfcb2e0af",
	"edge/trf":    "ae43c0e40efd99d0",
	"edge/yolo":   "58f496a48455c101",
}

var goldenGeometries = []struct {
	name       string
	rows, cols int
	sram       int
}{
	{"server", 256, 256, 24 << 20},
	{"edge", 32, 32, 480 << 10},
}

func optBlkDigest(res *Result) string {
	h := sha256.New()
	for i := range res.Layers {
		fmt.Fprintf(h, "%d,", res.Layers[i].Overhead.OptBlk)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestSeDAOptBlkGolden pins the chosen block per workload across the
// full suite on both NPU geometries, and checks the fixed-granularity
// schemes record no searched block (their granularity is the scheme
// constant, not a search product).
func TestSeDAOptBlkGolden(t *testing.T) {
	for _, g := range goldenGeometries {
		cfg, err := scalesim.New(g.rows, g.cols, g.sram)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range model.All() {
			sim, err := cfg.SimulateNetwork(n)
			if err != nil {
				t.Fatal(err)
			}
			res := protectWith(t, SchemeSeDA, sim, DefaultOptions())
			key := g.name + "/" + n.Name
			if got, want := optBlkDigest(res), optBlkGolden[key]; got != want {
				t.Errorf("%s: optBlk digest %s, want %s (a layer's searched block moved)",
					key, got, want)
			}
			for _, s := range []Scheme{SchemeSGX64, SchemeMGX512, SchemeBaseline} {
				fres := protectWith(t, s, sim, DefaultOptions())
				for i := range fres.Layers {
					if fres.Layers[i].Overhead.OptBlk != 0 {
						t.Fatalf("%s/%s layer %d: fixed scheme recorded OptBlk %d",
							key, s.Name(), i, fres.Layers[i].Overhead.OptBlk)
					}
				}
			}
			if testing.Short() {
				return // one workload exercises the plumbing
			}
		}
	}
}

// TestOptBlkCacheSharesAcrossNPUs checks the cross-evaluation search
// sharing: a repeat evaluation answers every search from the cache,
// results are unchanged by cache state, and a workload whose tiling
// coincides on both NPU geometries (LeNet fits both SRAMs identically
// — its golden digests match above) shares searches between them.
func TestOptBlkCacheSharesAcrossNPUs(t *testing.T) {
	opts := DefaultOptions()
	opts.OptBlkCache = NewOptBlkCache()

	sims := map[string]*scalesim.NetworkResult{}
	for _, g := range goldenGeometries {
		cfg, err := scalesim.New(g.rows, g.cols, g.sram)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cfg.SimulateNetwork(model.ByName("let"))
		if err != nil {
			t.Fatal(err)
		}
		sims[g.name] = sim
	}

	cold := protectWith(t, SchemeSeDA, sims["server"], opts)
	if opts.OptBlkCache.Hits() != 0 && opts.OptBlkCache.Entries() == 0 {
		t.Fatal("cold run should populate, not hit")
	}
	entries := opts.OptBlkCache.Entries()
	if entries == 0 {
		t.Fatal("cold run cached nothing")
	}

	// Edge evaluation of the same workload: LeNet's tilings coincide,
	// so every search must come from the server run's entries.
	edge := protectWith(t, SchemeSeDA, sims["edge"], opts)
	if opts.OptBlkCache.Entries() != entries {
		t.Errorf("edge run added %d entries; tilings coincide, want 0",
			opts.OptBlkCache.Entries()-entries)
	}
	if opts.OptBlkCache.Hits() == 0 {
		t.Error("edge run hit the shared cache 0 times")
	}

	// Cached results must be bit-identical to uncached ones.
	fresh := protectWith(t, SchemeSeDA, sims["edge"], DefaultOptions())
	for i := range fresh.Layers {
		if fresh.Layers[i].Overhead.OptBlk != edge.Layers[i].Overhead.OptBlk {
			t.Errorf("layer %d: cached optBlk %d != fresh %d",
				i, edge.Layers[i].Overhead.OptBlk, fresh.Layers[i].Overhead.OptBlk)
		}
	}
	if d := optBlkDigest(cold); d != optBlkGolden["server/let"] {
		t.Errorf("server/let digest with cache = %s, want %s", d, optBlkGolden["server/let"])
	}
}

// TestOptBlkCacheKeyIncludesWeights: the same geometry under different
// weight scenarios must occupy distinct cache slots, and each slot
// must answer with its own scenario's block.
func TestOptBlkCacheKeyIncludesWeights(t *testing.T) {
	c := NewOptBlkCache()
	set := authblock.NewRunSet([]trace.Access{
		{Addr: 0, Bytes: 768, Kind: trace.Read},
		{Addr: 768, Bytes: 768, Kind: trace.Read},
	})
	d := c.search(&set, authblock.DefaultWeights())
	o := c.search(&set, authblock.OnChipMACWeights())
	if c.Entries() != 2 {
		t.Errorf("cache entries = %d, want 2 (weights in key)", c.Entries())
	}
	if want := set.SearchWeighted(authblock.DefaultWeights()).Best.Block; d != uint64(want) {
		t.Errorf("default-weight cached block %d, want %d", d, want)
	}
	if want := set.SearchWeighted(authblock.OnChipMACWeights()).Best.Block; o != uint64(want) {
		t.Errorf("on-chip-MAC cached block %d, want %d", o, want)
	}
}
