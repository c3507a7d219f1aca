// Package seda is the public API of the SeDA reproduction: it wires
// the systolic-array simulator, the memory-protection schemes and the
// DRAM timing model into the evaluation pipeline of the paper's §IV
// and exposes the two NPU configurations of Table II — plus, beyond
// the paper, a fully parametric platform space: every compute and
// DRAM-geometry knob of NPUConfig can be set explicitly, validated,
// evaluated and cached exactly like the named presets.
//
// Typical use:
//
//	npu, err := seda.NPUByName("server")
//	net := model.ByName("rest")
//	suite, err := seda.RunSuiteOpts(npu, []*model.Network{net}, seda.DefaultSuiteOptions())
//	// suite.Rows[net.Name] holds normalized traffic and performance per scheme.
//
// Every evaluation is a suite over one or more workloads:
// RunSuiteOptsCtx evaluates fresh, RunSuiteCachedCtx through a result
// cache, and RunSuite and RunSuiteOpts are their context-free
// shorthands. SuiteOptions.Workers is the one concurrency knob; it
// bounds both the workload pool and each workload's scheme pool.
package seda

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dram"
	"repro/internal/memprot"
	"repro/internal/scalesim"
)

// NPUConfig describes an accelerator platform. The first block is
// Table II's compute/memory headline; the second block opens the DRAM
// geometry the paper kept fixed (a DDR4-like part) to design-space
// exploration. Every DRAM-geometry knob treats zero as "the DDR4-like
// default", so configurations written before the knobs existed — and
// the two Table II presets — keep byte-identical derived timing.
type NPUConfig struct {
	Name       string
	ArrayRows  int
	ArrayCols  int
	SRAMBytes  int
	FreqHz     float64
	BandwidthB float64 // aggregate DRAM bandwidth in bytes/s
	Channels   int

	// DRAM geometry knobs (0 = DDR4-like default, see dram.DDR4Like).
	// They feed the derived dram.Config returned by DRAMConfig, which
	// is what the cache fingerprint covers — so two NPUConfigs whose
	// knobs derive the same memory system share cached results.
	BanksPerChan int // banks per channel (default 16)
	RowBytes     int // row-buffer size per bank (default 2048)
	BurstBytes   int // bytes per burst (default 64; BL8 x 64-bit bus)
	WindowSize   int // FR-FCFS reorder window per channel (default 32)
}

// ServerNPU returns the Google TPU v1-like configuration:
// 256×256 PEs, 24 MB SRAM, 1 GHz, 20 GB/s over four 64-bit channels.
// The DRAM geometry knobs carry the DDR4-like defaults explicitly.
func ServerNPU() NPUConfig {
	return NPUConfig{
		Name:         "server",
		ArrayRows:    256,
		ArrayCols:    256,
		SRAMBytes:    24 * 1024 * 1024,
		FreqHz:       1e9,
		BandwidthB:   20e9,
		Channels:     4,
		BanksPerChan: 16,
		RowBytes:     2048,
		BurstBytes:   64,
		WindowSize:   32,
	}
}

// EdgeNPU returns the Samsung Exynos 990-like configuration:
// 32×32 PEs, 480 KB SRAM, 2.75 GHz, 10 GB/s over four channels.
func EdgeNPU() NPUConfig {
	return NPUConfig{
		Name:         "edge",
		ArrayRows:    32,
		ArrayCols:    32,
		SRAMBytes:    480 * 1024,
		FreqHz:       2.75e9,
		BandwidthB:   10e9,
		Channels:     4,
		BanksPerChan: 16,
		RowBytes:     2048,
		BurstBytes:   64,
		WindowSize:   32,
	}
}

// NPUPresets returns the named platform presets (Table II) in display
// order.
func NPUPresets() []NPUConfig { return []NPUConfig{ServerNPU(), EdgeNPU()} }

// NPUNames returns the preset names in display order.
func NPUNames() []string {
	presets := NPUPresets()
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.Name
	}
	return names
}

// NPUByName resolves a platform preset case-insensitively ("Server"
// and "server" are the same platform). A failed lookup's error lists
// the valid names, mirroring model.ByName's convention.
func NPUByName(name string) (NPUConfig, error) {
	for _, p := range NPUPresets() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return NPUConfig{}, fmt.Errorf("seda: unknown npu %q (known: %s)",
		name, strings.Join(NPUNames(), ", "))
}

// Validate checks the configuration, including the DRAM geometry the
// span-queue scheduler will be handed: a geometry the drain cannot
// address (a row smaller than a burst, a row that is not a whole
// number of bursts) is rejected here, with the offending NPUConfig
// field named, instead of surfacing as a bare dram.Config error deep
// inside an evaluation.
func (c NPUConfig) Validate() error {
	if c.ArrayRows <= 0 || c.ArrayCols <= 0 || c.SRAMBytes <= 0 {
		return fmt.Errorf("seda: non-positive compute config %+v", c)
	}
	if c.FreqHz <= 0 || c.BandwidthB <= 0 || c.Channels <= 0 {
		return fmt.Errorf("seda: non-positive memory config %+v", c)
	}
	// NaN passes the compares above; it and infinite rates derive no
	// meaningful cycle counts.
	if math.IsNaN(c.FreqHz) || math.IsNaN(c.BandwidthB) || math.IsInf(c.FreqHz, 0) || math.IsInf(c.BandwidthB, 0) {
		return fmt.Errorf("seda: non-finite memory rate in %+v", c)
	}
	if c.BanksPerChan < 0 || c.RowBytes < 0 || c.BurstBytes < 0 || c.WindowSize < 0 {
		return fmt.Errorf("seda: negative DRAM geometry in %+v (use 0 for the DDR4-like default)", c)
	}
	d := c.DRAMConfig()
	if d.RowBytes < d.BurstBytes {
		return fmt.Errorf("seda: NPUConfig.RowBytes %d < NPUConfig.BurstBytes %d: a DRAM row must hold at least one burst", d.RowBytes, d.BurstBytes)
	}
	if d.RowBytes%d.BurstBytes != 0 {
		return fmt.Errorf("seda: NPUConfig.RowBytes %d is not a multiple of NPUConfig.BurstBytes %d: the span-queue drain addresses rows in whole bursts", d.RowBytes, d.BurstBytes)
	}
	// Backstop: any remaining derived-model constraint — including
	// timings so large (extreme FreqHz/BandwidthB ratios) that the
	// drain's cycle clock would wrap — surfaces here rather than when
	// the first trace is drained.
	if err := d.Validate(); err != nil {
		return fmt.Errorf("seda: NPUConfig %q derives an invalid DRAM config: %w", c.Name, err)
	}
	return nil
}

// arrayConfig builds the systolic-array simulator configuration.
func (c NPUConfig) arrayConfig() (*scalesim.Config, error) {
	return scalesim.New(c.ArrayRows, c.ArrayCols, c.SRAMBytes)
}

// DRAMConfig derives the DRAM timing model in accelerator cycles: the
// geometry knobs override the DDR4-like template where set, burst time
// comes from the per-channel share of the aggregate bandwidth, and the
// DDR latencies (expressed in nanoseconds by the template) are scaled
// by the accelerator clock. This derived config is part of the cache
// fingerprint (see ConfigFingerprint), so every knob that reaches the
// timing model is content-addressed.
func (c NPUConfig) DRAMConfig() dram.Config {
	cfg := dram.DDR4Like(c.Channels)
	if c.BanksPerChan > 0 {
		cfg.BanksPerChan = c.BanksPerChan
	}
	if c.RowBytes > 0 {
		cfg.RowBytes = c.RowBytes
	}
	if c.BurstBytes > 0 {
		cfg.BurstBytes = c.BurstBytes
	}
	if c.WindowSize > 0 {
		cfg.WindowSize = c.WindowSize
	}
	perChan := c.BandwidthB / float64(c.Channels)
	scale := c.FreqHz / 1e9 // template latencies are in ns

	cfg.TBurst = cycles(float64(cfg.BurstBytes) / perChan * c.FreqHz)
	cfg.TCL = cycles(float64(cfg.TCL) * scale)
	cfg.TRCD = cycles(float64(cfg.TRCD) * scale)
	cfg.TRP = cycles(float64(cfg.TRP) * scale)
	cfg.TRAS = cycles(float64(cfg.TRAS) * scale)
	cfg.TRefi = cycles(float64(cfg.TRefi) * scale)
	cfg.TRfc = cycles(float64(cfg.TRfc) * scale)
	return cfg
}

// cycles truncates a derived duration to whole cycles, at least 1.
// Durations beyond the uint64 range saturate rather than take Go's
// implementation-defined float conversion, so dram.Config.Validate
// rejects them the same way on every platform.
func cycles(v float64) uint64 {
	if v >= math.MaxUint64 {
		return math.MaxUint64
	}
	if c := uint64(v); c > 0 {
		return c
	}
	return 1
}

// Schemes returns the six protection configurations of Fig. 5/6 in
// plot order.
func Schemes() []memprot.Scheme { return memprot.AllSchemes() }
