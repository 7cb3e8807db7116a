package tpcc

import (
	"encoding/json"
	"fmt"
	"os"
)

// WriteBenchSchema identifies the BENCH_write.json layout. Bump only with a
// new suffix; downstream tooling keys on this string.
const WriteBenchSchema = "alwaysencrypted/write-bench/v2"

// WriteBenchReport is the write-path experiment artifact: committed TPC-C
// throughput across thread counts and the world-load rate, both on a
// modelled log device.
type WriteBenchReport struct {
	Schema     string          `json:"schema"`
	Throughput []WriteTpsPoint `json:"throughput"`
	Load       []WriteLoadArm  `json:"load"`
}

// WriteTpsPoint is one thread-count measurement.
type WriteTpsPoint struct {
	Threads     int     `json:"threads"`
	Warehouses  int     `json:"warehouses"`
	SyncDelayUS int64   `json:"sync_delay_us"`
	Committed   int     `json:"committed"`
	Throughput  float64 `json:"throughput_tps"`
}

// WriteLoadArm is one world-load measurement.
type WriteLoadArm struct {
	Path          string  `json:"path"` // "bulk"
	Warehouses    int     `json:"warehouses"`
	SyncDelayUS   int64   `json:"sync_delay_us"`
	Rows          int64   `json:"rows"`
	DurationMs    float64 `json:"duration_ms"`
	RowsPerSecond float64 `json:"rows_per_second"`
}

// NewWriteBenchReport wraps the measurements in the versioned envelope.
func NewWriteBenchReport(tps []WriteTpsPoint, load []WriteLoadArm) *WriteBenchReport {
	return &WriteBenchReport{Schema: WriteBenchSchema, Throughput: tps, Load: load}
}

// WriteFile serializes the report to path (the BENCH_write.json artifact).
func (rep *WriteBenchReport) WriteFile(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ValidateWriteBenchReport checks the invariants downstream tooling relies
// on. It parses from bytes so tests can validate the written artifact
// verbatim.
func ValidateWriteBenchReport(b []byte) (*WriteBenchReport, error) {
	var rep WriteBenchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("tpcc: write-bench report: %w", err)
	}
	if rep.Schema != WriteBenchSchema {
		return nil, fmt.Errorf("tpcc: write-bench report schema %q, want %q", rep.Schema, WriteBenchSchema)
	}
	if len(rep.Throughput) == 0 {
		return nil, fmt.Errorf("tpcc: write-bench report has no throughput points")
	}
	for i, p := range rep.Throughput {
		if p.Threads <= 0 || p.Throughput < 0 {
			return nil, fmt.Errorf("tpcc: write-bench point %d: %+v", i, p)
		}
	}
	if len(rep.Load) == 0 {
		return nil, fmt.Errorf("tpcc: write-bench report has no load measurement")
	}
	for i, arm := range rep.Load {
		if arm.Rows <= 0 || arm.RowsPerSecond <= 0 {
			return nil, fmt.Errorf("tpcc: write-bench load arm %d: %+v", i, arm)
		}
	}
	return &rep, nil
}
