package seda

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/model"
)

func TestNPUByName(t *testing.T) {
	for _, q := range []string{"server", "SERVER", "Edge", "edge"} {
		npu, err := NPUByName(q)
		if err != nil {
			t.Fatalf("NPUByName(%q): %v", q, err)
		}
		if !strings.EqualFold(npu.Name, q) {
			t.Fatalf("NPUByName(%q) = %q", q, npu.Name)
		}
	}
	_, err := NPUByName("tpu-v9")
	if err == nil {
		t.Fatal("NPUByName should fail for unknown names")
	}
	for _, name := range NPUNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list preset %q", err, name)
		}
	}
}

func TestNPUPresetsValidate(t *testing.T) {
	for _, p := range NPUPresets() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

// TestDerivedDRAMConfigGolden pins the exact dram.Config both Table II
// presets derive. The parametrization refactor (geometry knobs on
// NPUConfig, DDR4-like defaults for zero values) must not move a
// single field — these literals were captured from the pre-refactor
// dramConfig and any drift here moves Fig. 5/6.
func TestDerivedDRAMConfigGolden(t *testing.T) {
	want := map[string]dram.Config{
		"server": {
			Channels: 4, BanksPerChan: 16, RowBytes: 2048, BurstBytes: 64,
			TBurst: 12, TCL: 14, TRCD: 14, TRP: 14, TRAS: 32,
			TRefi: 7800, TRfc: 350, WindowSize: 32,
		},
		"edge": {
			Channels: 4, BanksPerChan: 16, RowBytes: 2048, BurstBytes: 64,
			TBurst: 70, TCL: 38, TRCD: 38, TRP: 38, TRAS: 88,
			TRefi: 21450, TRfc: 962, WindowSize: 32,
		},
	}
	for _, p := range NPUPresets() {
		got := p.DRAMConfig()
		if got != want[p.Name] {
			t.Errorf("%s derived config moved:\n got %+v\nwant %+v", p.Name, got, want[p.Name])
		}
		// Zeroed knobs (a pre-refactor config literal) must derive the
		// identical memory system via the DDR4-like defaults.
		legacy := p
		legacy.BanksPerChan, legacy.RowBytes, legacy.BurstBytes, legacy.WindowSize = 0, 0, 0, 0
		if legacy.DRAMConfig() != got {
			t.Errorf("%s: zero knobs derive %+v, explicit defaults derive %+v", p.Name, legacy.DRAMConfig(), got)
		}
	}
}

func TestValidateRejectsBadDRAMGeometry(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*NPUConfig)
		errWant string
	}{
		{"row below burst", func(c *NPUConfig) { c.RowBytes = 32 }, "RowBytes 32 < NPUConfig.BurstBytes 64"},
		{"row below default burst via knob", func(c *NPUConfig) { c.BurstBytes = 4096 }, "RowBytes 2048 < NPUConfig.BurstBytes 4096"},
		{"row not burst multiple", func(c *NPUConfig) { c.RowBytes = 96 }, "not a multiple"},
		{"negative banks", func(c *NPUConfig) { c.BanksPerChan = -1 }, "negative DRAM geometry"},
		{"negative window", func(c *NPUConfig) { c.WindowSize = -8 }, "negative DRAM geometry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			npu := EdgeNPU()
			tc.mutate(&npu)
			err := npu.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", npu)
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("err = %q, want it to contain %q", err, tc.errWant)
			}
			// The invalid geometry must be unreachable from the pipeline
			// entry points, not just flagged by a standalone Validate.
			if _, rerr := RunSuiteOpts(npu, []*model.Network{model.ByName("let")}, DefaultSuiteOptions()); rerr == nil {
				t.Fatal("RunSuiteOpts accepted an invalid geometry")
			}
		})
	}
}

// TestValidateRejectsDegenerateRates: memory rates the DRAM model
// cannot time must fail Validate, the guard every evaluation and every
// explored grid point passes. NaN slips past "<= 0" compares; NaN,
// infinite and extreme finite rates derive timings that wrap the
// drain's uint64 clock; and a clock slow enough that refresh takes the
// whole refresh interval leaves the drain refreshing forever.
func TestValidateRejectsDegenerateRates(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*NPUConfig)
		errWant string
	}{
		{"NaN freq", func(c *NPUConfig) { c.FreqHz = math.NaN() }, "non-finite"},
		{"NaN bandwidth", func(c *NPUConfig) { c.BandwidthB = math.NaN() }, "non-finite"},
		{"infinite freq", func(c *NPUConfig) { c.FreqHz = math.Inf(1) }, "non-finite"},
		{"infinite bandwidth", func(c *NPUConfig) { c.BandwidthB = math.Inf(1) }, "non-finite"},
		{"huge freq", func(c *NPUConfig) { c.FreqHz = 1e300 }, "exceeds"},
		{"tiny bandwidth", func(c *NPUConfig) { c.BandwidthB = 1e-300 }, "exceeds"},
		{"freq too slow to refresh", func(c *NPUConfig) { c.FreqHz = 1e3 }, "refresh"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			npu := EdgeNPU()
			tc.mutate(&npu)
			err := npu.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v (derived DRAM config %+v)", npu, npu.DRAMConfig())
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("err = %q, want it to contain %q", err, tc.errWant)
			}
		})
	}
}

// npuKnobs lists one mutator per NPUConfig field that feeds the
// evaluation, paired with the field name. TestFingerprintKnobSensitivity
// walks it so a future field added without a fingerprint line fails
// loudly here (after extending this table).
var npuKnobs = []struct {
	field  string
	mutate func(*NPUConfig)
}{
	{"Name", func(c *NPUConfig) { c.Name = c.Name + "x" }},
	{"ArrayRows", func(c *NPUConfig) { c.ArrayRows *= 2 }},
	{"ArrayCols", func(c *NPUConfig) { c.ArrayCols *= 2 }},
	{"SRAMBytes", func(c *NPUConfig) { c.SRAMBytes *= 2 }},
	{"FreqHz", func(c *NPUConfig) { c.FreqHz = math.Nextafter(c.FreqHz, 2*c.FreqHz) }},
	{"BandwidthB", func(c *NPUConfig) { c.BandwidthB = math.Nextafter(c.BandwidthB, 2*c.BandwidthB) }},
	{"Channels", func(c *NPUConfig) { c.Channels *= 2 }},
	{"BanksPerChan", func(c *NPUConfig) { c.BanksPerChan = 2 * c.DRAMConfig().BanksPerChan }},
	{"RowBytes", func(c *NPUConfig) { c.RowBytes = 2 * c.DRAMConfig().RowBytes }},
	{"BurstBytes", func(c *NPUConfig) { c.BurstBytes = 2 * c.DRAMConfig().BurstBytes }},
	{"WindowSize", func(c *NPUConfig) { c.WindowSize = 2 * c.DRAMConfig().WindowSize }},
}

// TestFingerprintKnobSensitivity flips every NPUConfig knob — the
// Table II fields and each new DRAM-geometry knob — and requires the
// fingerprint to move. FreqHz/BandwidthB flip by one ULP: the
// hex-float encoding must distinguish values no decimal print would.
func TestFingerprintKnobSensitivity(t *testing.T) {
	net := model.ByName("let")
	for _, preset := range NPUPresets() {
		base := ConfigFingerprint(preset, net)
		for _, knob := range npuKnobs {
			npu := preset
			knob.mutate(&npu)
			if got := ConfigFingerprint(npu, net); got == base {
				t.Errorf("%s: flipping %s did not change the fingerprint", preset.Name, knob.field)
			}
		}
	}
}

// TestFingerprintDefaultKnobsAlias pins the content-addressing rule:
// a DRAM knob left at zero and the same knob set to its DDR4-like
// default derive the same memory system, so they must share one
// fingerprint (and thus one cache entry).
func TestFingerprintDefaultKnobsAlias(t *testing.T) {
	net := model.ByName("let")
	for _, preset := range NPUPresets() {
		legacy := preset
		legacy.BanksPerChan, legacy.RowBytes, legacy.BurstBytes, legacy.WindowSize = 0, 0, 0, 0
		if ConfigFingerprint(legacy, net) != ConfigFingerprint(preset, net) {
			t.Errorf("%s: zero knobs and explicit defaults fingerprint apart", preset.Name)
		}
	}
}

// TestHexFloatRoundTrip pins the encoding property the fingerprint's
// exactness claim rests on: FormatFloat(x, 'x', -1, 64) parses back to
// the identical float64 for awkward values (subnormals, ULP
// neighbours, non-terminating decimals).
func TestHexFloatRoundTrip(t *testing.T) {
	values := []float64{
		1e9, 2.75e9, 20e9,
		math.Nextafter(1e9, 2e9),
		math.Nextafter(2.75e9, 0),
		1.0 / 3.0,
		math.SmallestNonzeroFloat64,
		math.MaxFloat64,
	}
	for _, v := range values {
		s := strconv.FormatFloat(v, 'x', -1, 64)
		back, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("ParseFloat(%q): %v", s, err)
		}
		if back != v {
			t.Errorf("hex round-trip moved %v (% x) to %v", v, v, back)
		}
	}
}
