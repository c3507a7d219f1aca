package seda

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// TestSuiteDeterminism asserts that the fully parallel pipeline
// (workload worker pool + concurrent schemes + concurrent DRAM channel
// drain) produces byte-identical RunResult rows to the forced
// single-goroutine run. This is the contract that lets every consumer
// default to the parallel path.
func TestSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	nets := []*model.Network{
		model.ByName("let"), model.ByName("ncf"), model.ByName("sent"),
	}
	npu := EdgeNPU()

	par, err := RunSuiteOpts(npu, nets, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunSuiteOpts(npu, nets, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	if len(par.Rows) != len(seq.Rows) {
		t.Fatalf("row sets differ: %d vs %d workloads", len(par.Rows), len(seq.Rows))
	}
	for name, seqRows := range seq.Rows {
		parRows, ok := par.Rows[name]
		if !ok {
			t.Fatalf("parallel run missing workload %s", name)
		}
		if !reflect.DeepEqual(parRows, seqRows) {
			t.Errorf("%s: parallel rows differ from sequential:\npar: %+v\nseq: %+v",
				name, parRows, seqRows)
		}
	}

	// Re-running the parallel pipeline must also be self-consistent.
	par2, err := RunSuiteOpts(npu, nets, SuiteOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Rows, par2.Rows) {
		t.Error("two parallel runs disagree")
	}
}

// TestRunNetworkOptsSequentialMatches covers the one-workload suite
// seda-sim runs: its scheme pool alone must not change the rows.
func TestRunNetworkOptsSequentialMatches(t *testing.T) {
	npu := EdgeNPU()
	net := model.ByName("let")
	par := runOne(t, npu, net, DefaultSuiteOptions())
	seq := runOne(t, npu, net, SuiteOptions{Workers: 1})
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("parallel rows differ from sequential:\npar: %+v\nseq: %+v", par, seq)
	}
}
