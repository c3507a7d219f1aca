package seda

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestRunResultJSONRoundTrip(t *testing.T) {
	rows := runOne(t, EdgeNPU(), model.ByName("let"), DefaultSuiteOptions())
	blob, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []RunResult
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, back, rows)

	// Re-marshaling the round-tripped rows is byte-identical — the
	// property the result cache's byte-level storage relies on.
	blob2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("JSON round-trip not byte-stable")
	}
}

func TestRunResultJSONFieldOrder(t *testing.T) {
	blob, err := json.Marshal(RunResult{NPU: "edge", Network: "let"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"npu", "network", "scheme", "data_bytes", "meta_bytes",
		"norm_traffic", "exec_cycles", "norm_perf", "compute_cycles",
	}
	prev := -1
	for _, field := range want {
		i := bytes.Index(blob, []byte(`"`+field+`"`))
		if i < 0 {
			t.Fatalf("field %q missing in %s", field, blob)
		}
		if i < prev {
			t.Fatalf("field %q out of order in %s", field, blob)
		}
		prev = i
	}
}

func TestRunResultUnmarshalUnknownScheme(t *testing.T) {
	var r RunResult
	err := json.Unmarshal([]byte(`{"scheme":"SGX-4096B"}`), &r)
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("err = %v, want unknown scheme", err)
	}
}

func TestSchemeByName(t *testing.T) {
	for _, q := range []string{"SeDA", "seda", "SGX-64B", "sgx-64b", "Baseline"} {
		if _, err := SchemeByName(q); err != nil {
			t.Errorf("SchemeByName(%q): %v", q, err)
		}
	}
	if _, err := SchemeByName("nope"); err == nil {
		t.Error("SchemeByName should fail for unknown names")
	}
}

func TestWriteJSONDeterministicAndWellFormed(t *testing.T) {
	suite, err := RunSuiteOpts(EdgeNPU(), []*model.Network{
		model.ByName("let"), model.ByName("ncf"),
	}, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := suite.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := suite.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSON not deterministic")
	}

	var doc struct {
		NPU             string   `json:"npu"`
		PipelineVersion string   `json:"pipeline_version"`
		Schemes         []string `json:"schemes"`
		Workloads       []string `json:"workloads"`
		Rows            []struct {
			Workload string      `json:"workload"`
			Results  []RunResult `json:"results"`
		} `json:"rows"`
		AvgNormTraffic []float64 `json:"avg_norm_traffic"`
		AvgNormPerf    []float64 `json:"avg_norm_perf"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output not parseable: %v", err)
	}
	if doc.NPU != "edge" || doc.PipelineVersion != PipelineVersion {
		t.Fatalf("header wrong: %+v", doc)
	}
	if len(doc.Workloads) != 2 || doc.Workloads[0] != "let" {
		t.Fatalf("workloads = %v, want figure order [let ncf]", doc.Workloads)
	}
	if len(doc.Rows) != 2 || len(doc.Rows[0].Results) != len(Schemes()) {
		t.Fatalf("rows malformed: %d rows", len(doc.Rows))
	}
	if len(doc.AvgNormTraffic) != len(Schemes()) || len(doc.AvgNormPerf) != len(Schemes()) {
		t.Fatal("avg arrays not aligned with schemes")
	}
	// Baseline (last scheme) is 1.0 by construction.
	if doc.AvgNormTraffic[len(doc.AvgNormTraffic)-1] != 1.0 {
		t.Fatalf("baseline avg traffic = %v, want 1.0", doc.AvgNormTraffic)
	}
}

func TestWriteSuitesJSONArray(t *testing.T) {
	suite, err := RunSuiteOpts(EdgeNPU(), []*model.Network{model.ByName("let")}, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSuitesJSON(&buf, suite, suite); err != nil {
		t.Fatal(err)
	}
	var arr []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("not a JSON array: %v", err)
	}
	if len(arr) != 2 {
		t.Fatalf("len = %d, want 2", len(arr))
	}
}
