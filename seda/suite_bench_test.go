package seda

import (
	"testing"

	"repro/internal/model"
)

// BenchmarkRunSuite measures the full evaluation pipeline (13
// workloads x 6 schemes: scalesim schedule -> protection scheme ->
// DRAM timing) on both NPUs in two modes: workers1 runs the whole
// pipeline serially on one goroutine; default is the GOMAXPROCS-bounded
// workload and scheme pools. Before/after numbers for the perf
// trajectory live in BENCH_PIPELINE.json.
//
// Run with:
//
//	go test -run xxx -bench BenchmarkRunSuite -benchtime 1x ./seda
func BenchmarkRunSuite(b *testing.B) {
	for _, npu := range []NPUConfig{ServerNPU(), EdgeNPU()} {
		for _, mode := range []struct {
			name string
			opts SuiteOptions
		}{
			{"workers1", SuiteOptions{Workers: 1}},
			{"default", DefaultSuiteOptions()},
		} {
			b.Run(npu.Name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunSuiteOpts(npu, model.All(), mode.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
