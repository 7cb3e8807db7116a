package tpcc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteBenchReportRoundTrip writes a report the way the write experiment
// does and validates the artifact bytes verbatim, as downstream tooling will.
func TestWriteBenchReportRoundTrip(t *testing.T) {
	rep := NewWriteBenchReport(
		[]WriteTpsPoint{
			{Threads: 1, Warehouses: 16, SyncDelayUS: 2000, Committed: 400, Throughput: 200},
			{Threads: 8, Warehouses: 16, SyncDelayUS: 2000, Committed: 480, Throughput: 240},
		},
		[]WriteLoadArm{
			{Path: "bulk", Warehouses: 64, SyncDelayUS: 200, Rows: 83154, DurationMs: 900, RowsPerSecond: 92000},
		},
	)
	path := filepath.Join(t.TempDir(), "BENCH_write.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateWriteBenchReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Throughput) != 2 || len(got.Load) != 1 {
		t.Fatalf("round trip lost points: %+v", got)
	}
	if got.Load[0].SyncDelayUS != 200 || got.Throughput[0].Warehouses != 16 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

// TestWriteBenchReportRejects: the validator must refuse artifacts missing
// the invariants the acceptance tooling keys on.
func TestWriteBenchReportRejects(t *testing.T) {
	noLoad := NewWriteBenchReport([]WriteTpsPoint{{Threads: 8, Throughput: 100}}, nil)
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := noLoad.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateWriteBenchReport(b); err == nil || !strings.Contains(err.Error(), "no load measurement") {
		t.Fatalf("report without a load measurement validated: %v", err)
	}
	if _, err := ValidateWriteBenchReport([]byte(`{"schema":"wrong"}`)); err == nil {
		t.Fatal("wrong-schema report validated")
	}
}
