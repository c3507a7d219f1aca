package seda

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
)

func smallSuite(t *testing.T) *SuiteResult {
	t.Helper()
	s, err := RunSuiteOpts(EdgeNPU(), []*model.Network{
		model.ByName("let"), model.ByName("ncf"),
	}, DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrafficCSVWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	s := smallSuite(t)
	var buf bytes.Buffer
	if err := s.WriteTrafficCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("export not parseable CSV: %v", err)
	}
	// header + 2 workloads + avg
	if len(recs) != 4 {
		t.Fatalf("rows = %d, want 4", len(recs))
	}
	if recs[0][0] != "workload" || len(recs[0]) != 7 {
		t.Errorf("header wrong: %v", recs[0])
	}
	if recs[3][0] != "avg" {
		t.Errorf("last row %v, want avg", recs[3])
	}
	// Baseline column (last) must be exactly 1.0000 everywhere.
	for _, rec := range recs[1:] {
		v, err := strconv.ParseFloat(rec[len(rec)-1], 64)
		if err != nil || v != 1.0 {
			t.Errorf("baseline column = %q in row %v", rec[len(rec)-1], rec)
		}
	}
}

func TestPerfCSVValuesAtMostOne(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second DRAM simulation")
	}
	s := smallSuite(t)
	var buf bytes.Buffer
	if err := s.WritePerfCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[1:] {
		for _, cell := range rec[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("non-numeric cell %q", cell)
			}
			if v <= 0 || v > 1.0001 {
				t.Errorf("normalized perf %v outside (0,1]", v)
			}
		}
	}
}
