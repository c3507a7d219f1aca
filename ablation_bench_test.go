package repro

// Ablation benchmarks for the design choices DESIGN.md calls out:
// dataflow mapping, metadata-cache sizing, and protection-block
// granularity. These are not paper figures; they quantify the knobs
// around SeDA's operating point.

import (
	"fmt"
	"testing"

	"repro/internal/authblock"
	"repro/internal/dram"
	"repro/internal/memprot"
	"repro/internal/model"
	"repro/internal/scalesim"
)

// BenchmarkAblationDataflow compares the three systolic dataflow
// mappings' compute cycles on ResNet-18 for both NPU array sizes.
func BenchmarkAblationDataflow(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		rows, cols int
		sram       int
	}{
		{"server", 256, 256, 24 << 20},
		{"edge", 32, 32, 480 << 10},
	} {
		c, err := scalesim.New(cfg.rows, cfg.cols, cfg.sram)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := c.SimulateNetwork(model.ByName("rest"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				totals := map[scalesim.Dataflow]uint64{}
				for li := range sim.Layers {
					for df, cyc := range c.ComputeCyclesByDataflow(&sim.Layers[li]) {
						totals[df] += cyc
					}
				}
				b.ReportMetric(float64(totals[scalesim.WeightStationary]), "ws-cycles")
				b.ReportMetric(float64(totals[scalesim.OutputStationary]), "os-cycles")
				b.ReportMetric(float64(totals[scalesim.InputStationary]), "is-cycles")
			}
		})
	}
}

// BenchmarkAblationMetadataCaches sweeps the SGX VN/MAC cache sizes
// and reports the traffic overhead at each point — the sensitivity
// behind the paper's choice of 16 KB + 8 KB.
func BenchmarkAblationMetadataCaches(b *testing.B) {
	c, err := scalesim.New(32, 32, 480<<10)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := c.SimulateNetwork(model.ByName("rest"))
	if err != nil {
		b.Fatal(err)
	}
	for _, kb := range []int{4, 8, 16, 32, 64} {
		kb := kb
		b.Run(fmt.Sprintf("vn%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := memprot.DefaultOptions()
				opts.VNCacheBytes = kb * 1024
				opts.MACCacheBytes = kb * 512 // keep the paper's 2:1 ratio
				res, err := memprot.ProtectAllArena([]memprot.Scheme{memprot.SchemeSGX64}, sim, opts, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res[0].TrafficOverheadRatio()*100, "sgx64-traffic-%")
			}
		})
	}
}

// BenchmarkAblationBlockGranularity sweeps fixed protection-block
// sizes through the MGX cost structure and contrasts them with
// SeDA's searched optBlk — the trade-off Table I describes.
func BenchmarkAblationBlockGranularity(b *testing.B) {
	c, err := scalesim.New(32, 32, 480<<10)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := c.SimulateNetwork(model.ByName("goo"))
	if err != nil {
		b.Fatal(err)
	}
	for _, blk := range []int{64, 128, 256, 512, 1024, 2048} {
		blk := blk
		b.Run(fmt.Sprintf("mgx%dB", blk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := memprot.ProtectAllArena([]memprot.Scheme{{Kind: memprot.MGX, Block: blk}}, sim,
					memprot.DefaultOptions(), nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res[0].TrafficOverheadRatio()*100, "traffic-%")
			}
		})
	}
	b.Run("seda-optblk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := memprot.ProtectAllArena([]memprot.Scheme{memprot.SchemeSeDA}, sim, memprot.DefaultOptions(), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res[0].TrafficOverheadRatio()*100, "traffic-%")
		}
	})
	_ = authblock.MinBlock
}

// BenchmarkDRAMSimulator measures the DDR timing model's throughput
// in simulated bursts per second.
func BenchmarkDRAMSimulator(b *testing.B) {
	c, err := scalesim.New(32, 32, 480<<10)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := c.SimulateNetwork(model.ByName("alex"))
	if err != nil {
		b.Fatal(err)
	}
	dsim, err := dram.New(dram.DDR4Like(4))
	if err != nil {
		b.Fatal(err)
	}
	tr := sim.Layers[1].Trace
	var bytes uint64
	for _, a := range tr.Accesses {
		bytes += uint64(a.Bytes)
	}
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsim.RunOverlay(tr, nil)
	}
}
