package tpcc

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchSchema identifies the BENCH_tpcc.json layout. Bump only with a new
// suffix; downstream tooling keys on this string.
const BenchSchema = "alwaysencrypted/tpcc-bench/v1"

// BenchReport is the stable serialized form of a set of benchmark runs.
type BenchReport struct {
	Schema string     `json:"schema"`
	Runs   []BenchRun `json:"runs"`
}

// BenchRun flattens one Result for the report. Latencies are reported in
// microseconds: the histograms record nanoseconds at ~3% relative error, so
// microseconds lose nothing while staying readable.
type BenchRun struct {
	Mode           string  `json:"mode"`
	Threads        int     `json:"threads"`
	EnclaveThreads int     `json:"enclave_threads"`
	SyncEnclave    bool    `json:"sync_enclave"`
	DurationMS     int64   `json:"duration_ms"`
	Committed      int     `json:"committed"`
	Aborted        int     `json:"aborted"`
	Throughput     float64 `json:"throughput_tps"`

	TxStats map[string]TxStat `json:"tx"`

	Enclave EnclaveStat `json:"enclave"`
	Pool    PoolStat    `json:"pool"`
}

// TxStat is one transaction type's committed count and latency profile.
type TxStat struct {
	Count  int   `json:"count"`
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	P99US  int64 `json:"p99_us"`
	MeanUS int64 `json:"mean_us"`
	MaxUS  int64 `json:"max_us"`
}

// EnclaveStat is the boundary-traffic section (§4.6, Fig. 5).
type EnclaveStat struct {
	Evals          uint64 `json:"evals"`
	Crossings      uint64 `json:"crossings"`
	QueueTasks     uint64 `json:"queue_tasks"`
	QueueParks     uint64 `json:"queue_parks"`
	QueueSpinHits  uint64 `json:"queue_spin_hits"`
	QueueWaitP50US int64  `json:"queue_wait_p50_us"`
	QueueWaitP99US int64  `json:"queue_wait_p99_us"`
	EvalCallP50US  int64  `json:"eval_call_p50_us"`
	EvalCallP99US  int64  `json:"eval_call_p99_us"`
}

// PoolStat is the buffer pool section.
type PoolStat struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func usec(ns int64) int64 { return ns / 1000 }

// ToBenchRun converts a Result into its report form.
func (r *Result) ToBenchRun() BenchRun {
	run := BenchRun{
		Mode:           r.Config.Mode.String(),
		Threads:        r.Config.Threads,
		EnclaveThreads: r.Config.EnclaveThreads,
		SyncEnclave:    r.Config.SyncEnclave,
		DurationMS:     r.Duration.Milliseconds(),
		Committed:      r.Committed,
		Aborted:        r.Aborted,
		Throughput:     r.Throughput,
		TxStats:        make(map[string]TxStat, len(TxTypeNames)),
		Enclave: EnclaveStat{
			Evals:          r.EnclaveEvals,
			Crossings:      r.Crossings,
			QueueTasks:     r.QueueTasks,
			QueueParks:     r.QueueParks,
			QueueSpinHits:  r.QueueSpinHits,
			QueueWaitP50US: usec(r.QueueWait.P50),
			QueueWaitP99US: usec(r.QueueWait.P99),
			EvalCallP50US:  usec(r.EvalCall.P50),
			EvalCallP99US:  usec(r.EvalCall.P99),
		},
		Pool: PoolStat{Hits: r.PoolHits, Misses: r.PoolMisses, Evictions: r.PoolEvictions},
	}
	for i, name := range TxTypeNames {
		lat := r.Latencies[i]
		run.TxStats[name] = TxStat{
			Count:  r.ByType[i],
			P50US:  usec(lat.P50),
			P95US:  usec(lat.P95),
			P99US:  usec(lat.P99),
			MeanUS: usec(lat.Mean),
			MaxUS:  usec(lat.Max),
		}
	}
	return run
}

// NewBenchReport wraps results in the versioned envelope.
func NewBenchReport(results ...*Result) *BenchReport {
	rep := &BenchReport{Schema: BenchSchema}
	for _, r := range results {
		rep.Runs = append(rep.Runs, r.ToBenchRun())
	}
	return rep
}

// WriteFile serializes the report to path (the BENCH_tpcc.json artifact).
func (rep *BenchReport) WriteFile(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ValidateBenchReport checks the invariants downstream tooling relies on.
// It parses from bytes so tests can validate the written artifact verbatim.
func ValidateBenchReport(b []byte) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("tpcc: bench report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("tpcc: bench report schema %q, want %q", rep.Schema, BenchSchema)
	}
	if len(rep.Runs) == 0 {
		return nil, fmt.Errorf("tpcc: bench report has no runs")
	}
	for i, run := range rep.Runs {
		if run.Mode == "" {
			return nil, fmt.Errorf("tpcc: run %d: empty mode", i)
		}
		for _, name := range TxTypeNames {
			st, ok := run.TxStats[name]
			if !ok {
				return nil, fmt.Errorf("tpcc: run %d: missing tx section %q", i, name)
			}
			if st.Count > 0 && (st.P50US > st.P95US || st.P95US > st.P99US || st.P99US > st.MaxUS) {
				return nil, fmt.Errorf("tpcc: run %d %s: non-monotone percentiles %+v", i, name, st)
			}
		}
	}
	return &rep, nil
}
