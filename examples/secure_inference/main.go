// Secure inference: evaluate the cost of protecting ResNet-18 on the
// edge NPU under every memory-protection scheme the paper compares
// (Fig. 5/6, single-workload slice), using the full simulation
// pipeline: systolic-array schedule -> protection-scheme trace
// transformation -> DRAM timing.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/memprot"
	"repro/internal/model"
	"repro/seda"
)

func main() {
	npu := seda.EdgeNPU()
	net := model.ByName("rest")

	suite, err := seda.RunSuiteOpts(npu, []*model.Network{net}, seda.DefaultSuiteOptions())
	if err != nil {
		log.Fatal(err)
	}
	rows := suite.Rows[net.Name]

	fmt.Printf("%s on the %s NPU (%dx%d PEs, %d KB SRAM, %.0f GB/s)\n\n",
		net.Full, npu.Name, npu.ArrayRows, npu.ArrayCols,
		npu.SRAMBytes/1024, npu.BandwidthB/1e9)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\ttraffic overhead\tslowdown\tverdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%+.2f%%\t%+.2f%%\t%s\n",
			r.Scheme.Name(),
			r.TrafficOverhead()*100,
			r.PerfOverhead()*100,
			describe(r))
	}
	w.Flush() //nolint:errcheck

	sgx, _ := seda.SchemeRow(rows, memprot.SchemeSGX64)
	sd, _ := seda.SchemeRow(rows, memprot.SchemeSeDA)
	fmt.Printf("\nSwitching this deployment from SGX-64B to SeDA recovers %.2f%% of performance.\n",
		(sgx.PerfOverhead()-sd.PerfOverhead())*100)
}

func describe(r seda.RunResult) string {
	switch {
	case r.Scheme.Kind == memprot.Baseline:
		return "unprotected reference"
	case r.PerfOverhead() < 0.01:
		return "near-zero overhead"
	case r.PerfOverhead() < 0.06:
		return "moderate overhead"
	default:
		return "heavy overhead"
	}
}
