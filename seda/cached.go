package seda

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/model"
	"repro/internal/rescache"
)

// Cached evaluation wrappers. The cache is consulted per (NPU,
// network) — one rescache entry per ConfigFingerprint — so a partial
// sweep that already evaluated some workloads reuses exactly those
// rows, and concurrent identical requests (e.g. two seda-serve clients
// asking for the same figure) coalesce onto one pipeline evaluation
// via the cache's singleflight layer.
//
// Entries store the rows' canonical JSON. JSON round-trips every field
// exactly (floats via shortest-form encoding), so rows served from the
// cache are indistinguishable from freshly computed ones and re-serialize
// to byte-identical output — see TestCachedRowsByteIdentical.

// RunSuiteCachedCtx is RunSuiteOptsCtx with the per-network cache c in
// front: each (NPU, network) pair is looked up independently, so a
// sweep only evaluates the workloads the cache has not seen. A nil
// cache evaluates every workload fresh. The context governs each
// workload's wait on the cache, not the evaluation itself: the pipeline
// runs under the cache's detached compute context, so a caller that
// cancels detaches immediately while an evaluation other callers still
// await keeps running — see rescache.GetOrComputeCtx.
func RunSuiteCachedCtx(ctx context.Context, c *rescache.Cache, npu NPUConfig, nets []*model.Network, opts SuiteOptions) (*SuiteResult, error) {
	return runSuite(ctx, c, npu, nets, opts)
}

// runNetworkCached evaluates every scheme on one network, serving from
// (and filling) c. A nil cache degrades to runNetwork.
func runNetworkCached(ctx context.Context, c *rescache.Cache, npu NPUConfig, net *model.Network, opts SuiteOptions) ([]RunResult, error) {
	if c == nil {
		return runNetwork(ctx, npu, net, opts)
	}
	if err := npu.Validate(); err != nil {
		return nil, err
	}
	key := ConfigFingerprint(npu, net)
	compute := func(cctx context.Context) ([]byte, error) {
		fresh, err := runNetwork(cctx, npu, net, opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(fresh)
	}
	// A blob that fails to decode into the expected shape can only come
	// from a damaged disk entry (freshly computed blobs are our own
	// marshaling of a full scheme set): evict it and recompute once, so
	// the cache self-heals instead of pinning the corruption in memory.
	for attempt := 0; ; attempt++ {
		blob, _, err := c.GetOrComputeCtx(ctx, key, compute)
		if err != nil {
			return nil, err
		}
		var decoded []RunResult
		derr := json.Unmarshal(blob, &decoded)
		if derr == nil && len(decoded) != len(Schemes()) {
			derr = fmt.Errorf("%d rows, want %d", len(decoded), len(Schemes()))
		}
		if derr != nil {
			if attempt == 0 {
				c.Evict(key)
				continue
			}
			return nil, fmt.Errorf("seda: corrupt cache entry %s: %w", key, derr)
		}
		return decoded, nil
	}
}
