package seda

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
)

// TestSuiteWorkerPoolSharedArenas runs a two-worker suite over two
// small workloads with no testing.Short() skip, so the `-race -short`
// CI job exercises concurrent workload evaluations sharing the
// process-wide memprot overlay arena and dram queue arena — the paths
// an unsynchronized arena would corrupt. Results must still match the
// sequential reference.
func TestSuiteWorkerPoolSharedArenas(t *testing.T) {
	nets := []*model.Network{model.ByName("let"), model.ByName("ncf")}
	npu := EdgeNPU()
	par, err := RunSuiteOpts(npu, nets, SuiteOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunSuiteOpts(npu, nets, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Rows, seq.Rows) {
		t.Error("worker-pool rows differ from sequential reference")
	}
}

// TestSuiteDeterminismAcrossGOMAXPROCS re-checks the parallel-equals-
// sequential contract under real parallelism settings: the PR 1
// determinism tests only ever ran at the container's GOMAXPROCS, so a
// scheduling-order dependence that needs >1 P to surface would have
// slipped through. Each setting must reproduce the sequential
// single-goroutine reference byte for byte.
func TestSuiteDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	nets := []*model.Network{model.ByName("let"), model.ByName("ncf")}
	npu := EdgeNPU()

	ref, err := RunSuiteOpts(npu, nets, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(orig)
			got, err := RunSuiteOpts(npu, nets, DefaultSuiteOptions())
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range ref.Rows {
				if !reflect.DeepEqual(got.Rows[name], want) {
					t.Errorf("%s: rows at GOMAXPROCS=%d differ from sequential reference",
						name, procs)
				}
			}
		})
	}
}
