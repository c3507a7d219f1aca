package memprot

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/authblock"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/scalesim"
	"repro/internal/tiling"
	"repro/internal/trace"
)

// Arena recycles overlay storage across ProtectAllArena evaluations. On a
// multi-workload sweep the per-scheme overlays are consumed (by the
// DRAM model) and discarded once per workload; drawing them from an
// arena lets the next workload refill the previous one's backing
// arrays instead of growing fresh ones, which removes the overlay —
// the dominant allocation of the protection phase — from the
// steady-state profile.
//
// The free list is FIFO and ProtectAllArena both acquires and releases
// overlays in layer-major (layer, scheme) order, so on repeated
// evaluations each slot tends to get back a buffer grown to its own
// previous size — an
// SGX layer's 100k-entry array is not wasted on a Baseline layer that
// needs none. The arena holds strong references (unlike sync.Pool), so
// a GC mid-sweep cannot empty it. Safe for concurrent use.
//
// Callers that pass an Arena to ProtectAllArena own the release
// discipline: call Release once the results are no longer referenced.
type Arena struct {
	mu   sync.Mutex
	free []*trace.Overlay
	head int // free[head:] are available
}

// NewArena builds an empty overlay arena. perfbench pins this
// signature.
func NewArena() *Arena { return &Arena{} }

// get returns an empty overlay, recycled FIFO if one is available.
func (a *Arena) get() *trace.Overlay {
	if a == nil {
		return &trace.Overlay{}
	}
	a.mu.Lock()
	if a.head < len(a.free) {
		ov := a.free[a.head]
		a.free[a.head] = nil
		a.head++
		a.mu.Unlock()
		ov.Reset()
		return ov
	}
	a.mu.Unlock()
	return &trace.Overlay{}
}

// Release returns every overlay in the results to the arena. The
// results (and anything aliasing their Deltas) must not be used
// afterwards.
func (a *Arena) Release(rs []*Result) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.head > 0 {
		// Compact the consumed prefix so the queue's backing array
		// stays bounded by the peak live inventory even when
		// concurrent workloads keep it partially stocked.
		n := copy(a.free, a.free[a.head:])
		for i := n; i < len(a.free); i++ {
			a.free[i] = nil
		}
		a.free = a.free[:n]
		a.head = 0
	}
	// Push in layer-major (layer, scheme) order — the same order
	// ProtectAllArena acquires in — so each slot's buffer comes back
	// around to an equivalent slot next evaluation.
	layers := 0
	for _, r := range rs {
		if r != nil && len(r.Layers) > layers {
			layers = len(r.Layers)
		}
	}
	for i := 0; i < layers; i++ {
		for _, r := range rs {
			if r == nil || i >= len(r.Layers) {
				continue
			}
			if ov := r.Layers[i].Deltas; ov != nil {
				r.Layers[i].Deltas = nil
				a.free = append(a.free, ov)
			}
		}
	}
	a.mu.Unlock()
}

// ProtectAllArena evaluates a set of schemes over one simulated
// network around a shared, immutable data spine: each layer's trace is
// walked exactly once, with every access fanned out to all scheme
// emitters. Schemes never copy the data stream — each ProtectedLayer's
// Spine field aliases the scalesim layer trace, and the scheme
// contributes only its metadata/over-fetch overlay, anchored into the
// spine. The DRAM model consumes the two streams directly
// (dram.RunOverlay); ProtectedLayer.Materialize flattens them for
// consumers that want one slice. Overlay storage is drawn from arena,
// which may be nil (see Arena for the recycling contract). perfbench
// pins this signature.
func ProtectAllArena(schemes []Scheme, net *scalesim.NetworkResult, opts Options, arena *Arena) ([]*Result, error) {
	return ProtectAllArenaCtx(context.Background(), schemes, net, opts, arena)
}

// ProtectAllArenaCtx is ProtectAllArena under a context, checked once
// per network layer — the protection walk is layer-streaming, so that
// is the natural all-or-nothing boundary. On cancellation the partial
// results are released back to the arena (nothing escapes to the
// caller, who must not Release on error) and ctx.Err() is returned.
func ProtectAllArenaCtx(ctx context.Context, schemes []Scheme, net *scalesim.NetworkResult, opts Options, arena *Arena) ([]*Result, error) {
	ctx, span := obs.Start(ctx, obs.StageProtect)
	defer span.End()
	ps := make([]*protector, len(schemes))
	results := make([]*Result, len(schemes))
	for k, s := range schemes {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		ps[k] = newProtector(s, opts)
		if s.Kind == SeDA {
			asp := obs.StartChild(ctx, obs.StageAuthblock)
			ps[k].precomputeSeDABlocks(net)
			asp.End()
		}
		results[k] = &Result{
			Scheme: s,
			Layers: make([]ProtectedLayer, len(net.Layers)),
		}
	}
	done := ctx.Done()
	for i := range net.Layers {
		if done != nil {
			select {
			case <-done:
				arena.Release(results)
				return nil, ctx.Err()
			default:
			}
		}
		lsp := obs.StartChild(ctx, obs.StageProtectLayer)
		lr := &net.Layers[i]
		for k := range ps {
			results[k].Layers[i] = ProtectedLayer{
				LayerID: lr.LayerID,
				Spine:   lr.Trace,
				Deltas:  arena.get(),
			}
			ps[k].beginLayer(lr, &results[k].Layers[i])
		}
		for j := range lr.Trace.Accesses {
			a := &lr.Trace.Accesses[j]
			for k := range ps {
				ps[k].access(j, a)
			}
		}
		for k := range ps {
			ps[k].endLayer()
		}
		lsp.End()
	}
	for k := range ps {
		ps[k].drain(results[k])
	}
	return results, nil
}

// OptBlkCache memoizes SeDA authblock searches by run-set geometry,
// so evaluations whose tilings coincide — the same layer shapes on
// NPUs whose schedules agree, or repeated sweeps in one process —
// share one search instead of re-scoring every candidate. The key is
// the RunSet fingerprint (rebased offsets, lengths, directions,
// multiplicities) plus the weight scenario; the cached value is the
// chosen block, a pure function of the key, so hits are bit-identical
// to fresh searches. Safe for concurrent use; bounded, with inserts
// dropped once full (a sweep's working set is a few thousand entries).
type OptBlkCache struct {
	mu     sync.Mutex
	m      map[optBlkKey]uint64
	hits   uint64
	misses uint64
}

type optBlkKey struct {
	fp [32]byte
	w  authblock.Weights
}

// optBlkCacheMax bounds the cache; ~3k entries cover a full
// two-NPU, 13-workload sweep.
const optBlkCacheMax = 1 << 16

// NewOptBlkCache builds an empty search cache. perfbench pins this
// signature.
func NewOptBlkCache() *OptBlkCache {
	return &OptBlkCache{m: make(map[optBlkKey]uint64)}
}

// Entries returns how many searches are memoized.
func (c *OptBlkCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Hits returns how many searches were answered from the cache.
func (c *OptBlkCache) Hits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns how many searches had to be computed.
func (c *OptBlkCache) Misses() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// search returns the optBlk for a run set under the given weights,
// memoized when the cache is non-nil.
func (c *OptBlkCache) search(rs *authblock.RunSet, w authblock.Weights) uint64 {
	if c == nil {
		return uint64(rs.SearchWeighted(w).Best.Block)
	}
	k := optBlkKey{fp: rs.Fingerprint(), w: w}
	c.mu.Lock()
	if b, ok := c.m[k]; ok {
		c.hits++
		c.mu.Unlock()
		return b
	}
	c.misses++
	c.mu.Unlock()
	b := uint64(rs.SearchWeighted(w).Best.Block)
	c.mu.Lock()
	if len(c.m) < optBlkCacheMax {
		c.m[k] = b
	}
	c.mu.Unlock()
	return b
}

// precomputeSeDABlocks chooses every layer's per-tensor optBlk with
// the inter-layer awareness of Fig. 3(b): the activation tensor
// between layer i and layer i+1 is written with layer i's ofmap
// pattern and read with layer i+1's ifmap pattern, so one block grid
// must serve both. The search therefore runs over the *union* of the
// producer's writes and the consumer's reads; weights are searched per
// layer. All searches use the on-chip-MAC weights (alignment only).
//
// The search input comes from a single walk of each layer's spine:
// authblock.CollectLayer summarizes the per-tensor runs once, the
// producer/consumer union merges two summaries instead of re-scanning
// either trace, and each candidate is scored incrementally against the
// summary (see authblock.RunSet). With Options.OptBlkCache set, the
// searches themselves are shared across every evaluation in the
// process whose run geometry coincides — in particular the server and
// edge NPU evaluations of one sweep wherever their tilings agree.
func (p *protector) precomputeSeDABlocks(net *scalesim.NetworkResult) {
	n := len(net.Layers)
	p.sedaBlocks = make([]map[trace.Tensor]uint64, n)
	p.sedaBases = make([]map[trace.Tensor]uint64, n)
	for i := range net.Layers {
		p.sedaBlocks[i] = make(map[trace.Tensor]uint64)
		p.sedaBases[i] = make(map[trace.Tensor]uint64)
	}
	w := authblock.OnChipMACWeights()
	cache := p.opts.OptBlkCache

	// One spine walk per layer feeds every search below.
	runs := make([]authblock.LayerRuns, n)
	for i := range net.Layers {
		runs[i] = authblock.CollectLayer(net.Layers[i].Trace)
	}

	for i := range net.Layers {
		// Weights: intra-layer only.
		if wrs := &runs[i].Weights; !wrs.Empty() {
			p.sedaBlocks[i][trace.Weights] = cache.search(wrs, w)
			p.sedaBases[i][trace.Weights] = wrs.Base
		}

		// Activation tensor between layer i (producer) and i+1
		// (consumer): shared grid over the union of both patterns.
		var next *authblock.RunSet
		if i+1 < n {
			next = &runs[i+1].IFMap
		} else {
			next = &authblock.RunSet{}
		}
		union := authblock.Union(&runs[i].OFMap, next)
		if !union.Empty() {
			blk := cache.search(&union, w)
			p.sedaBlocks[i][trace.OFMap] = blk
			p.sedaBases[i][trace.OFMap] = union.Base
			if i+1 < n {
				p.sedaBlocks[i+1][trace.IFMap] = blk
				p.sedaBases[i+1][trace.IFMap] = union.Base
			}
		}
		// Layer 0's ifmap has no producer: intra-layer search.
		if i == 0 {
			if irs := &runs[0].IFMap; !irs.Empty() {
				p.sedaBlocks[0][trace.IFMap] = cache.search(irs, w)
				p.sedaBases[0][trace.IFMap] = irs.Base
			}
		}
	}
}

// drain writes back the dirty metadata remaining in the SGX caches at
// the end of the inference, charging the traffic (and overlay
// accesses) to the final layer. Other schemes hold no cached metadata.
// Each cache's flush is charged at the top line of its own metadata
// region — the MAC cache in [MACBase, VNBase), the VN cache in
// [VNBase, TreeBase) — so per-class traffic lands in the right region
// and maps to the channels that region's lines actually use.
func (p *protector) drain(res *Result) {
	if p.scheme.Kind != SGX || len(res.Layers) == 0 {
		return
	}
	last := &res.Layers[len(res.Layers)-1]
	line := uint64(p.opts.CacheLine)
	anchor := last.Spine.Len()
	var lastCycle uint64
	if n := last.Spine.Len(); n > 0 {
		lastCycle = last.Spine.Accesses[n-1].Cycle
	}
	for _, c := range []struct {
		cache *cache.Cache
		class trace.Class
		addr  uint64
		bytes *uint64
	}{
		{p.macc, trace.MACMeta, VNBase - line, &last.Overhead.MACBytes},
		{p.vnc, trace.VNMeta, TreeBase - line, &last.Overhead.VNBytes},
	} {
		wb := c.cache.Flush()
		if wb == 0 {
			continue
		}
		// The drained lines' individual addresses are immaterial for
		// timing (back-to-back metadata writes); emit one aggregate
		// write per cache, addressed inside that cache's region.
		last.Deltas.Append(anchor, trace.Access{
			Cycle:  lastCycle,
			Addr:   c.addr,
			Bytes:  uint32(wb * line),
			Kind:   trace.Write,
			Class:  c.class,
			Tensor: trace.Metadata,
			Layer:  uint16(last.LayerID),
		})
		res.DrainWrites++
		*c.bytes += wb * line
	}
}

// protector holds per-network scheme state (metadata caches persist
// across layers within one inference) plus the streaming cursor for
// the layer currently being walked. ProtectAllArenaCtx drives it: beginLayer,
// then access for every spine index in order, then endLayer.
type protector struct {
	scheme Scheme
	opts   Options
	vnc    *cache.Cache // VN + integrity-tree cache (SGX)
	macc   *cache.Cache // MAC cache (SGX)

	// SeDA's precomputed per-layer, per-tensor block grids (block
	// size and grid anchor), chosen with inter-layer awareness.
	sedaBlocks []map[trace.Tensor]uint64
	sedaBases  []map[trace.Tensor]uint64

	// Streaming state for the current layer.
	pl     *ProtectedLayer
	lr     *scalesim.LayerResult
	anchor int // overlay anchor for metadata of the access in flight

	// SeDA per-layer cursor.
	sedaBlk    map[trace.Tensor]uint64
	sedaBase   map[trace.Tensor]uint64
	sedaFirst  bool
	sedaLMAddr uint64
}

func newProtector(s Scheme, opts Options) *protector {
	p := &protector{scheme: s, opts: opts}
	if s.Kind == SGX {
		p.vnc = newMetaCache(opts.VNCacheBytes, opts.CacheLine, opts.CacheWays)
		p.macc = newMetaCache(opts.MACCacheBytes, opts.CacheLine, opts.CacheWays)
	}
	return p
}

// beginLayer points the emitter at a new layer's output slot.
func (p *protector) beginLayer(lr *scalesim.LayerResult, pl *ProtectedLayer) {
	p.pl = pl
	p.lr = lr
	switch p.scheme.Kind {
	case Baseline:
		// The spine is the whole trace; the analytical count matches
		// the per-access sum (TestDataBytesInvariantAcrossSchemes).
		pl.Overhead.DataBytes = lr.DataBytes()
	case SeDA:
		p.sedaBlk = p.sedaBlocks[lr.LayerID]
		p.sedaBase = p.sedaBases[lr.LayerID]
		if b, ok := p.sedaBlk[trace.IFMap]; ok {
			pl.Overhead.OptBlk = int(b)
		} else {
			pl.Overhead.OptBlk = authblock.MinBlock
		}
		p.sedaFirst = true
		p.sedaLMAddr = LayerMACBase + uint64(lr.LayerID)*uint64(p.opts.CacheLine)
	}
}

// access fans one spine access (spine index j) into the scheme's
// overlay emitter.
func (p *protector) access(j int, a *trace.Access) {
	p.anchor = j + 1 // metadata trails its triggering access
	switch p.scheme.Kind {
	case Baseline:
		// Pure pass-through: the spine carries everything.
	case SGX:
		p.sgxAccess(a)
	case MGX:
		p.mgxAccess(a)
	case SeDA:
		p.sedaAccess(j, a)
	default:
		panic(fmt.Sprintf("memprot: unhandled scheme %v", p.scheme.Kind))
	}
}

// endLayer closes out per-layer metadata (SeDA's layer-MAC store).
func (p *protector) endLayer() {
	if p.scheme.Kind == SeDA && !p.sedaFirst {
		// Store the updated layer MAC for the ofmap just produced,
		// issued at the layer's final access.
		n := p.lr.Trace.Len()
		p.anchor = n
		p.emitMeta(p.lr.Trace.Accesses[n-1], p.sedaLMAddr, uint32(p.opts.CacheLine), trace.Write, trace.MACMeta)
		p.pl.Overhead.MACBytes += uint64(p.opts.CacheLine)
	}
	p.pl, p.lr = nil, nil
}

// metaRegionOffset maps a data-region base to its slice of a metadata
// region: one entry of entryBytes per protection block. Scaling by the
// scheme's block keeps distinct tensors' metadata ranges disjoint at
// every granularity (a fixed >>6 would be wrong for 512 B blocks,
// skewing channel mapping and region attribution).
func metaRegionOffset(base, block, entryBytes uint64) uint64 {
	return (base / block) * entryBytes
}

// sgxAccess models the full SGX-style protection unit for one data
// access: per-block MACs through the MAC cache, per-block VNs through
// the VN cache, and a tree walk above every VN-line miss, also through
// the VN cache.
func (p *protector) sgxAccess(a *trace.Access) {
	pl := p.pl
	block := uint64(p.scheme.Block)
	line := uint64(p.opts.CacheLine)
	blocksPerMACLine := line / macEntryBytes
	blocksPerVNLine := line / vnEntryBytes

	pl.Overhead.DataBytes += uint64(a.Bytes)

	base := regionBase(a.Addr)
	rel := a.Addr - base
	n := uint64(a.Bytes)
	b0 := rel / block
	b1 := (rel + n - 1) / block
	write := a.Kind == trace.Write

	// MAC lines covering blocks [b0, b1], through the MAC cache.
	macRegion := MACBase + metaRegionOffset(base, block, macEntryBytes)
	for ml := b0 / blocksPerMACLine; ml <= b1/blocksPerMACLine; ml++ {
		macAddr := macRegion + ml*line
		r := p.macc.Access(macAddr, write)
		if r.Fill {
			p.emitMeta(*a, macAddr, uint32(line), trace.Read, trace.MACMeta)
			pl.Overhead.MACBytes += line
		}
		if r.Writeback {
			p.emitMeta(*a, macAddr, uint32(line), trace.Write, trace.MACMeta)
			pl.Overhead.MACBytes += line
		}
	}

	// VN lines plus the integrity-tree walk above each miss.
	vnRegion := VNBase + metaRegionOffset(base, block, vnEntryBytes)
	for vl := b0 / blocksPerVNLine; vl <= b1/blocksPerVNLine; vl++ {
		vnAddr := vnRegion + vl*line
		r := p.vnc.Access(vnAddr, write)
		if r.Fill {
			p.emitMeta(*a, vnAddr, uint32(line), trace.Read, trace.VNMeta)
			pl.Overhead.VNBytes += line
			// Tree leaves are indexed by global VN line so nodes
			// from different tensor regions never collide.
			p.walkTree(*a, (vnAddr-VNBase)/line, write)
		}
		if r.Writeback {
			p.emitMeta(*a, vnAddr, uint32(line), trace.Write, trace.VNMeta)
			pl.Overhead.VNBytes += line
		}
	}

	// Whole-block granularity: over-fetch on reads, RMW on writes.
	p.chargeAlignment(*a, base, block)
}

// walkTree climbs the integrity tree above VN line vl, fetching each
// level through the VN cache until a cached (already-verified)
// ancestor is found. The root is on-chip and never fetched.
func (p *protector) walkTree(a trace.Access, vl uint64, write bool) {
	line := uint64(p.opts.CacheLine)
	idx := vl
	for lvl := 1; lvl <= TreeLevels; lvl++ {
		idx /= 8 // 8-ary tree
		nodeAddr := TreeBase + uint64(lvl-1)*TreeLevelGap + idx*line
		r := p.vnc.Access(nodeAddr, write)
		if !r.Fill {
			return // verified ancestor cached: walk stops
		}
		p.emitMeta(a, nodeAddr, uint32(line), trace.Read, trace.TreeMeta)
		p.pl.Overhead.TreeBytes += line
		if r.Writeback {
			p.emitMeta(a, nodeAddr, uint32(line), trace.Write, trace.TreeMeta)
			p.pl.Overhead.TreeBytes += line
		}
	}
}

// mgxAccess models MGX for one data access: version numbers are
// generated on-chip from DNN state (zero traffic), MACs are fetched
// uncached at 8 B per protection block, contiguously for a contiguous
// run.
func (p *protector) mgxAccess(a *trace.Access) {
	pl := p.pl
	block := uint64(p.scheme.Block)
	pl.Overhead.DataBytes += uint64(a.Bytes)

	base := regionBase(a.Addr)
	rel := a.Addr - base
	n := uint64(a.Bytes)
	blocks := tiling.BlocksTouched(rel, n, block)
	macBytes := blocks * macEntryBytes
	macAddr := MACBase + metaRegionOffset(base, block, macEntryBytes) + (rel/block)*macEntryBytes
	kind := trace.Read
	if a.Kind == trace.Write {
		kind = trace.Write
	}
	p.emitMeta(*a, macAddr, uint32(macBytes), kind, trace.MACMeta)
	pl.Overhead.MACBytes += macBytes

	p.chargeAlignment(*a, base, block)
}

// sedaAccess models SeDA's multi-level integrity verification for one
// data access: the authblock search picked a tile-aligned optBlk per
// layer, optBlk MACs are computed and XOR-aggregated on-chip, and only
// the layer MAC lives off-chip (one metadata line read at the layer's
// first access and one write at its last, emitted by endLayer).
// Version numbers are on-chip (MGX-style) and encryption is
// bandwidth-aware (no traffic impact).
func (p *protector) sedaAccess(j int, a *trace.Access) {
	pl := p.pl
	if p.sedaFirst {
		// Load the layer MAC line for the ifmap being consumed,
		// ahead of the first data access.
		p.anchor = j
		p.emitMeta(*a, p.sedaLMAddr, uint32(p.opts.CacheLine), trace.Read, trace.MACMeta)
		pl.Overhead.MACBytes += uint64(p.opts.CacheLine)
		p.sedaFirst = false
		p.anchor = j + 1
	}
	pl.Overhead.DataBytes += uint64(a.Bytes)

	// Residual misalignment with the searched optBlk (zero when a
	// tile-aligned divisor exists, which is the common case).
	blk, ok := p.sedaBlk[a.Tensor]
	if !ok {
		blk = authblock.MinBlock
	}
	p.chargeAlignment(*a, p.sedaBase[a.Tensor], blk)
}

// chargeAlignment adds over-fetch (reads) or RMW read-back (writes)
// for runs misaligned with the protection-block grid anchored at base.
func (p *protector) chargeAlignment(a trace.Access, base, block uint64) {
	rel := a.Addr - base
	n := uint64(a.Bytes)
	var extra uint64
	if a.Kind == trace.Read {
		extra = tiling.ReadOverFetch(rel, n, block)
	} else {
		extra = tiling.WriteRMWBytes(rel, n, block)
	}
	if extra == 0 {
		return
	}
	addr := base + tiling.RoundDown(rel, block)
	p.emitMeta(a, addr, uint32(extra), trace.Read, trace.OverFetch)
	p.pl.Overhead.OverFetchBytes += extra
}

// emitMeta appends a metadata access to the current layer's overlay at
// the current anchor, inheriting the triggering access's issue cycle
// and layer/tile tags. With coalescing enabled (the default), an
// emission that continues the previous one — same anchor, cycle, kind
// and class, contiguous address — folds into it instead of appending,
// so e.g. the line fills of a multi-line SGX MAC/VN walk become one
// multi-line entry with an identical burst explode.
func (p *protector) emitMeta(src trace.Access, addr uint64, bytes uint32, kind trace.Kind, class trace.Class) {
	a := trace.Access{
		Cycle:  src.Cycle,
		Addr:   addr,
		Bytes:  bytes,
		Kind:   kind,
		Class:  class,
		Tensor: trace.Metadata,
		Layer:  src.Layer,
		Tile:   src.Tile,
	}
	if p.opts.CoalesceOverlays {
		p.pl.Deltas.AppendCoalesce(p.anchor, a)
	} else {
		p.pl.Deltas.Append(p.anchor, a)
	}
}
