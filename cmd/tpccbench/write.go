package main

import (
	"fmt"
	"os"
	"time"

	"alwaysencrypted/internal/tpcc"
)

// runWrite measures the write path and writes the schema-versioned
// BENCH_write.json:
//
//   - committed TPC-C throughput at 1/8/16 client threads (every commit goes
//     through the WAL's group-commit protocol: a leader coalesces concurrent
//     commit records into one batched append+flush round);
//   - world-load rate at the given warehouse count through the driver's bulk
//     insert.
//
// Both run with the WAL's simulated stable-media flush: with the free
// in-memory log, the per-round cost that commit batching and bulk loading
// amortize does not exist. The two sub-experiments model different devices —
// syncDelay (throughput) is a remote cloud log volume, slow enough relative
// to one transaction's CPU work that the commit round is the bottleneck;
// loadSyncDelay (load) is a fast local NVMe. The one-flush-per-commit and
// row-at-a-time baselines these were once compared against are on record in
// CHANGES.md (PR 10).
func runWrite(scale tpcc.Scale, d, warmup time.Duration, syncDelay, loadSyncDelay time.Duration, loadWarehouses int, out string) {
	fmt.Println("=== Write path: commit throughput by thread count, bulk load rate ===")
	fmt.Printf("(simulated log flush: %v throughput, %v load)\n", syncDelay, loadSyncDelay)

	threadCounts := []int{1, 8, 16}
	// TPC-C contends on one warehouse row per Payment: with threads >
	// warehouses, data contention swamps the commit path under study. Keep
	// W at least as wide as the widest client count.
	tpsScale := scale
	if tpsScale.Warehouses < threadCounts[len(threadCounts)-1] {
		tpsScale.Warehouses = threadCounts[len(threadCounts)-1]
	}
	w := newWriteWorld(tpsScale, syncDelay)
	if err := w.Load(); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	var tps []tpcc.WriteTpsPoint
	for _, n := range threadCounts {
		thr := measureOn(w, tpcc.ModePlaintext, n, d, warmup)
		tps = append(tps, tpcc.WriteTpsPoint{
			Threads: n, Warehouses: tpsScale.Warehouses, SyncDelayUS: syncDelay.Microseconds(),
			Committed: int(thr * d.Seconds()), Throughput: thr,
		})
		fmt.Printf("threads=%-3d %10.2f tx/s\n", n, thr)
	}
	w.Close()

	loadScale := scale
	loadScale.Warehouses = loadWarehouses
	w = newWriteWorld(loadScale, loadSyncDelay)
	start := time.Now()
	if err := w.Load(); err != nil {
		fmt.Fprintln(os.Stderr, "bulk load:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	rows := w.RowsLoaded()
	w.Close()
	load := []tpcc.WriteLoadArm{{
		Path: "bulk", Warehouses: loadWarehouses,
		SyncDelayUS: loadSyncDelay.Microseconds(), Rows: rows,
		DurationMs:    float64(elapsed.Nanoseconds()) / 1e6,
		RowsPerSecond: float64(rows) / elapsed.Seconds(),
	}}
	fmt.Printf("load bulk W=%-3d %8d rows in %6.2fs (%8.0f rows/s)\n",
		loadWarehouses, rows, elapsed.Seconds(), float64(rows)/elapsed.Seconds())

	if err := tpcc.NewWriteBenchReport(tps, load).WriteFile(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (schema %s)\n", out, tpcc.WriteBenchSchema)
}

func newWriteWorld(scale tpcc.Scale, syncDelay time.Duration) *tpcc.World {
	w, err := tpcc.NewWorld(tpcc.WorldOptions{
		Mode: tpcc.ModePlaintext, Scale: scale, EnclaveThreads: 1, CTR: true, LogSyncDelay: syncDelay,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return w
}
