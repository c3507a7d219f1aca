// Package memprot implements the memory-protection schemes the paper
// evaluates (§IV-A, Table III) as trace transformers: each scheme
// takes the accelerator's data-access trace and produces the augmented
// trace containing the security-metadata accesses the protection unit
// must make, plus per-layer overhead accounting.
//
// Schemes:
//
//   - Baseline — unprotected accelerator; the trace passes through.
//   - SGX-64B / SGX-512B — AES-CTR confidentiality with off-chip
//     version numbers (56-bit, cached in a 16 KB VN cache), per-block
//     64-bit MACs (cached in an 8 KB MAC cache), and a Bonsai-Merkle-
//     style integrity tree over the VN space whose interior nodes are
//     fetched through the VN cache. The root stays on-chip.
//   - MGX-64B / MGX-512B — application-specific on-chip VN generation
//     (no VN or tree traffic), per-block MACs fetched uncached.
//   - SeDA — bandwidth-aware encryption plus multi-level integrity:
//     per-layer optBlk from the authblock search (tile-aligned, so no
//     over-fetch or RMW), optBlk MACs aggregated on-chip into layer
//     MACs, which are stored off-chip "to ensure fairness" (§IV-A) and
//     cost one metadata line read+write per layer, plus the on-chip
//     model MAC for weights.
//
// All schemes charge over-fetch (reads rounded up to protection-block
// boundaries) and read-modify-write (partial block writes fetch the
// uncovered remainder so the block MAC can be recomputed) where the
// block grid, anchored at each tensor region's base, misaligns with
// the schedule's runs.
package memprot

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/scalesim"
	"repro/internal/trace"
)

// Kind enumerates the protection scheme families.
type Kind uint8

const (
	Baseline Kind = iota
	SGX
	MGX
	SeDA
)

// Scheme identifies a concrete scheme configuration.
type Scheme struct {
	Kind Kind
	// Block is the protection-block granularity in bytes (64 or 512
	// in the paper). Ignored for Baseline; SeDA picks per-layer
	// optBlk via the authblock search instead.
	Block int
}

// Standard scheme list in the paper's figure order.
var (
	SchemeBaseline = Scheme{Kind: Baseline}
	SchemeSGX64    = Scheme{Kind: SGX, Block: 64}
	SchemeMGX64    = Scheme{Kind: MGX, Block: 64}
	SchemeSGX512   = Scheme{Kind: SGX, Block: 512}
	SchemeMGX512   = Scheme{Kind: MGX, Block: 512}
	SchemeSeDA     = Scheme{Kind: SeDA}
)

// AllSchemes returns the six configurations of Fig. 5/6 in plot order.
func AllSchemes() []Scheme {
	return []Scheme{
		SchemeSGX64, SchemeMGX64, SchemeSGX512, SchemeMGX512,
		SchemeSeDA, SchemeBaseline,
	}
}

// Name returns the scheme's display name as used in the figures.
func (s Scheme) Name() string {
	switch s.Kind {
	case Baseline:
		return "Baseline"
	case SGX:
		return fmt.Sprintf("SGX-%dB", s.Block)
	case MGX:
		return fmt.Sprintf("MGX-%dB", s.Block)
	case SeDA:
		return "SeDA"
	}
	return fmt.Sprintf("scheme(%d)", s.Kind)
}

// Validate checks the configuration.
func (s Scheme) Validate() error {
	switch s.Kind {
	case Baseline, SeDA:
		return nil
	case SGX, MGX:
		if s.Block <= 0 || s.Block%64 != 0 {
			return fmt.Errorf("memprot: %s block %d must be a positive multiple of 64",
				s.Name(), s.Block)
		}
		return nil
	}
	return fmt.Errorf("memprot: unknown scheme kind %d", s.Kind)
}

// Features reproduces the scheme's Table III row.
type Features struct {
	EncryptionGranularity string
	IntegrityGranularity  string
	OffChipMetadata       string
	TilingAware           bool
	EncryptionScalable    bool
}

// FeatureRow returns the Table III feature summary for the scheme.
func (s Scheme) FeatureRow() Features {
	switch s.Kind {
	case SGX:
		return Features{
			EncryptionGranularity: "16B",
			IntegrityGranularity:  fmt.Sprintf("%dB", s.Block),
			OffChipMetadata:       "MAC,VN,IT",
			TilingAware:           false,
			EncryptionScalable:    false,
		}
	case MGX:
		return Features{
			EncryptionGranularity: "16B",
			IntegrityGranularity:  fmt.Sprintf("%dB", s.Block),
			OffChipMetadata:       "MAC",
			TilingAware:           false,
			EncryptionScalable:    false,
		}
	case SeDA:
		return Features{
			EncryptionGranularity: "bandwidth-aware",
			IntegrityGranularity:  "multi-level",
			OffChipMetadata:       "minimal to no cost",
			TilingAware:           true,
			EncryptionScalable:    true,
		}
	default:
		return Features{
			EncryptionGranularity: "none",
			IntegrityGranularity:  "none",
			OffChipMetadata:       "none",
		}
	}
}

// Options configures the protection unit's on-chip metadata caches
// (paper §IV-A: 16 KB VN cache, 8 KB MAC cache, LRU, write-back,
// write-allocate) and how the schemes' overlay streams are encoded.
type Options struct {
	VNCacheBytes  int
	MACCacheBytes int
	CacheLine     int
	CacheWays     int

	// CoalesceOverlays merges adjacent same-cycle, same-kind metadata
	// emissions that are contiguous in the address space (e.g. an SGX
	// multi-line MAC or VN fill) into one multi-line overlay entry.
	// The DRAM burst explode of a coalesced overlay is bit-identical
	// to the raw stream (see trace.Overlay.AppendCoalesce and the
	// coalescing invariant in DESIGN.md), so every figure is
	// unchanged; only the entry count — and with it overlay memory and
	// per-entry explode overhead — drops. Raw mode exists for trace
	// dumps (seda-trace -raw) and the equivalence tests.
	CoalesceOverlays bool

	// OptBlkCache, when non-nil, memoizes SeDA's per-layer authblock
	// searches by run-set geometry, sharing them across every
	// evaluation in the process whose tilings coincide (server and
	// edge NPUs of one sweep, repeated sweeps). Hits are bit-identical
	// to fresh searches; nil keeps every search local.
	OptBlkCache *OptBlkCache
}

// DefaultOptions returns the paper's cache configuration, with
// overlay coalescing enabled. perfbench pins this signature.
func DefaultOptions() Options {
	return Options{
		VNCacheBytes:     16 * 1024,
		MACCacheBytes:    8 * 1024,
		CacheLine:        64,
		CacheWays:        8,
		CoalesceOverlays: true,
	}
}

// Metadata address-space layout: disjoint from the data regions in
// scalesim.
const (
	MACBase      uint64 = 0x1_0000_0000
	VNBase       uint64 = 0x1_4000_0000
	TreeBase     uint64 = 0x1_8000_0000
	TreeLevelGap uint64 = 0x0400_0000 // 64 MB of node space per level
	LayerMACBase uint64 = 0x2_0000_0000

	macEntryBytes = 8 // 64-bit MAC
	vnEntryBytes  = 8 // 56-bit VN stored in an 8B slot
)

// TreeLevels is the number of interior integrity-tree levels walked
// above the VN lines. With an 8-ary tree over the VN lines of a 4 GB
// protected space at 64 B blocks (~8 M counter lines), eight levels
// reach a single root, which is held on-chip and never fetched.
const TreeLevels = 8

// LayerOverhead itemizes one layer's protection cost in bytes.
type LayerOverhead struct {
	DataBytes      uint64 // baseline tensor traffic
	MACBytes       uint64
	VNBytes        uint64
	TreeBytes      uint64
	OverFetchBytes uint64 // misaligned-read over-fetch + write RMW
	OptBlk         int    // SeDA's chosen block (0 for other schemes)
}

// MetaBytes sums all non-data overhead.
func (o LayerOverhead) MetaBytes() uint64 {
	return o.MACBytes + o.VNBytes + o.TreeBytes + o.OverFetchBytes
}

// ProtectedLayer is a layer's augmented trace plus accounting. The
// augmented trace is represented as two streams: the Spine — the
// scheme-independent data-access stream, aliased read-only from the
// scalesim layer and shared by every scheme evaluated off the same
// simulation — and the Deltas overlay holding only what this scheme
// added, anchored into the spine. dram.RunOverlay consumes the two
// streams directly; Materialize flattens them for consumers that want
// one slice.
type ProtectedLayer struct {
	LayerID int

	// Spine is the shared data-access stream. Never mutate it: it is
	// aliased by the scalesim result and by other schemes' layers.
	Spine *trace.Trace

	// Deltas is this scheme's metadata/over-fetch overlay.
	Deltas *trace.Overlay

	// Trace is the flattened spine+deltas merge, nil until Materialize
	// builds it.
	Trace *trace.Trace

	Overhead LayerOverhead
}

// Materialize returns the layer's flat augmented trace, building it
// from the spine and overlay on first use.
func (pl *ProtectedLayer) Materialize() *trace.Trace {
	if pl.Trace == nil {
		pl.Trace = pl.Deltas.Materialize(pl.Spine)
	}
	return pl.Trace
}

// Result is a protected network run.
type Result struct {
	Scheme Scheme
	Layers []ProtectedLayer

	// DrainWrites is how many trailing overlay accesses of the final
	// layer were emitted by the end-of-inference metadata-cache drain
	// (SGX only; zero for the other schemes).
	DrainWrites int
}

// TotalDataBytes sums baseline traffic across layers.
func (r *Result) TotalDataBytes() uint64 {
	var s uint64
	for i := range r.Layers {
		s += r.Layers[i].Overhead.DataBytes
	}
	return s
}

// TotalMetaBytes sums protection overhead across layers.
func (r *Result) TotalMetaBytes() uint64 {
	var s uint64
	for i := range r.Layers {
		s += r.Layers[i].Overhead.MetaBytes()
	}
	return s
}

// TrafficOverheadRatio returns (data+meta)/data − 1, the normalized
// memory-traffic overhead of Fig. 5.
func (r *Result) TrafficOverheadRatio() float64 {
	d := r.TotalDataBytes()
	if d == 0 {
		return 0
	}
	return float64(r.TotalMetaBytes()) / float64(d)
}

// regionBase returns the base address of the tensor region containing
// addr, used to anchor each region's protection-block grid.
func regionBase(addr uint64) uint64 {
	switch {
	case addr >= scalesim.WeightsBase:
		return scalesim.WeightsBase
	case addr >= scalesim.ActBBase:
		return scalesim.ActBBase
	default:
		return scalesim.ActABase
	}
}

// newMetaCache builds a metadata cache or panics on a misconfigured
// geometry (Options are internal and validated here).
func newMetaCache(size, line, ways int) *cache.Cache {
	c, err := cache.New(cache.Config{SizeBytes: size, LineBytes: line, Ways: ways})
	if err != nil {
		panic("memprot: bad metadata cache geometry: " + err.Error())
	}
	return c
}
