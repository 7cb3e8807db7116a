// Command tpccbench regenerates the paper's evaluation (§5): Figure 8
// (normalized TPC-C throughput vs client threads for SQL-PT, SQL-PT-AEConn
// and SQL-AE), Figure 9 (enclave vs deterministic encryption at full load),
// and the Figure 5 leakage table.
//
// Usage:
//
//	tpccbench -experiment fig8 [-duration 3s] [-warehouses 2]
//	tpccbench -experiment fig9 [-threads 16]
//	tpccbench -experiment fig5
//	tpccbench -experiment bench [-out BENCH_tpcc.json]
//	tpccbench -experiment repl [-repl-out BENCH_repl.json]
//	tpccbench -experiment batch [-batch-out BENCH_batch.json] [-batch-tx 150]
//	tpccbench -experiment trace [-trace-out BENCH_trace.json] [-trace-sample 0.01]
//	tpccbench -experiment pool [-pool-out BENCH_pool.json]
//	tpccbench -experiment write [-write-out BENCH_write.json] [-write-warehouses 64] [-write-sync 200µs]
//	tpccbench -experiment all
//
// The bench experiment is the `make bench` artifact: one plaintext and one
// enclave run, serialized with per-transaction-type latency percentiles and
// enclave boundary traffic in the stable tpcc.BenchSchema JSON layout.
//
// The batch experiment is the §4.6 ablation: it sweeps the engine's
// rows-per-batch knob (1/16/64/256) over the SQL-AE-RND-STOCK configuration
// and reports enclave crossings per NewOrder/Stock-Level transaction.
//
// The pool experiment measures the production client subsystem: how much of
// the Fig. 8 per-connection setup cost (describe round trips + attestation)
// the connection pool amortizes, and how a read-mostly workload scales as
// LSN-bounded reads are routed to 0/1/2 read replicas.
//
// The write experiment is the write-path ablation: committed TPC-C
// throughput at 1/8/16 threads with WAL group commit on vs off, and the
// world-load rate on the bulk-insert fast path vs row-at-a-time.
//
// Absolute numbers depend on the machine; the shape — who wins and by
// roughly what factor — is the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"alwaysencrypted/internal/leakage"
	"alwaysencrypted/internal/tpcc"
)

func main() {
	experiment := flag.String("experiment", "all", "fig8, fig9, fig5 or all")
	duration := flag.Duration("duration", 3*time.Second, "measurement window per configuration")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "warmup before measuring")
	warehouses := flag.Int("warehouses", 2, "TPC-C warehouse count (scaled)")
	threads := flag.Int("threads", 16, "client threads for fig9 (the paper's full-load point)")
	out := flag.String("out", "BENCH_tpcc.json", "output path for the bench experiment")
	replOut := flag.String("repl-out", "BENCH_repl.json", "output path for the repl experiment")
	batchOut := flag.String("batch-out", "BENCH_batch.json", "output path for the batch experiment")
	batchTx := flag.Int("batch-tx", 150, "transactions per phase for the batch experiment")
	traceOut := flag.String("trace-out", "BENCH_trace.json", "output path for the trace experiment")
	traceSample := flag.Float64("trace-sample", 0.01, "head-sampling rate for the trace overhead arm")
	poolOut := flag.String("pool-out", "BENCH_pool.json", "output path for the pool experiment")
	writeOut := flag.String("write-out", "BENCH_write.json", "output path for the write experiment")
	writeWarehouses := flag.Int("write-warehouses", 64, "warehouse count for the write experiment's load measurement")
	writeSync := flag.Duration("write-sync", 2*time.Millisecond, "simulated log-flush latency for the write experiment's throughput points (a remote cloud log volume)")
	writeLoadSync := flag.Duration("write-load-sync", 200*time.Microsecond, "simulated log-flush latency for the write experiment's load measurement (a local NVMe device)")
	flag.IntVar(&reps, "reps", 3, "repetitions per data point (median is reported)")
	flag.Parse()

	scale := tpcc.DefaultScale()
	scale.Warehouses = *warehouses

	switch *experiment {
	case "fig8":
		runFigure8(scale, *duration, *warmup)
	case "fig9":
		runFigure9(scale, *duration, *warmup, *threads)
	case "fig5":
		runFigure5()
	case "bench":
		runBench(scale, *duration, *warmup, *out)
	case "repl":
		runRepl(scale, *duration, *warmup, *replOut)
	case "batch":
		runBatch(scale, *batchTx, *batchOut)
	case "trace":
		runTrace(scale, *duration, *warmup, *traceSample, *traceOut)
	case "pool":
		runPool(*duration, *poolOut)
	case "write":
		runWrite(scale, *duration, *warmup, *writeSync, *writeLoadSync, *writeWarehouses, *writeOut)
	case "all":
		runFigure8(scale, *duration, *warmup)
		fmt.Println()
		runFigure9(scale, *duration, *warmup, *threads)
		fmt.Println()
		runFigure5()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// newWorld builds and loads a deployment for one configuration.
func newWorld(mode tpcc.Mode, scale tpcc.Scale, enclaveThreads int) *tpcc.World {
	w, err := tpcc.NewWorld(tpcc.WorldOptions{
		Mode: mode, Scale: scale, EnclaveThreads: enclaveThreads, CTR: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v: %v\n", mode, err)
		os.Exit(1)
	}
	if err := w.Load(); err != nil {
		fmt.Fprintf(os.Stderr, "%v load: %v\n", mode, err)
		os.Exit(1)
	}
	return w
}

var reps = 3

// measureOn runs the workload reps times and reports the median throughput —
// single-run numbers are too noisy on small shared machines.
func measureOn(w *tpcc.World, mode tpcc.Mode, threads int, d, warmup time.Duration) float64 {
	samples := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		runtime.GC()
		res, err := tpcc.RunOnWorld(w, tpcc.BenchConfig{
			Mode: mode, Scale: w.Scale, Threads: threads, Duration: d, Warmup: warmup,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v @%d threads: %v\n", mode, threads, err)
			os.Exit(1)
		}
		samples = append(samples, res.Throughput)
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

func runFigure8(scale tpcc.Scale, d, warmup time.Duration) {
	fmt.Println("=== Figure 8: normalized TPC-C throughput vs client driver threads ===")
	fmt.Printf("(scaled: W=%d, %d customers/district; paper: W=800 on a 20-core VM)\n\n",
		scale.Warehouses, scale.CustomersPerDistrict)
	threadCounts := []int{1, 2, 4, 8, 16}
	modes := []tpcc.Mode{tpcc.ModePlaintext, tpcc.ModePlaintextAEConn, tpcc.ModeRND}
	// One long-lived world per mode, reused across thread counts (as the
	// paper reuses one database while varying driver threads).
	results := make(map[tpcc.Mode][]float64)
	for _, mode := range modes {
		w := newWorld(mode, scale, 4)
		for _, n := range threadCounts {
			results[mode] = append(results[mode], measureOn(w, mode, n, d, warmup))
		}
		w.Close()
	}
	fmt.Printf("%-8s %12s %16s %12s   (normalized to SQL-PT at max threads)\n",
		"threads", "SQL-PT", "SQL-PT-AEConn", "SQL-AE")
	base := results[tpcc.ModePlaintext][len(threadCounts)-1]
	for i, n := range threadCounts {
		pt, aeconn, ae := results[tpcc.ModePlaintext][i], results[tpcc.ModePlaintextAEConn][i], results[tpcc.ModeRND][i]
		fmt.Printf("%-8d %12.2f %16.2f %12.2f   (%.2f / %.2f / %.2f)\n",
			n, pt, aeconn, ae, pt/base, aeconn/base, ae/base)
	}
	last := len(threadCounts) - 1
	fmt.Printf("\nAt max load: SQL-PT-AEConn = %.0f%% of SQL-PT (paper: 64%%), SQL-AE = %.0f%% (paper: ~50%%)\n",
		100*results[tpcc.ModePlaintextAEConn][last]/results[tpcc.ModePlaintext][last],
		100*results[tpcc.ModeRND][last]/results[tpcc.ModePlaintext][last])
}

func runFigure9(scale tpcc.Scale, d, warmup time.Duration, threads int) {
	fmt.Println("=== Figure 9: enclave (RND) vs deterministic encryption at full load ===")
	fmt.Printf("(%d client threads)\n\n", threads)
	configs := []struct {
		label   string
		mode    tpcc.Mode
		enclave int
	}{
		{"SQL-PT-AEConn", tpcc.ModePlaintextAEConn, 4},
		{"SQL-AE-DET", tpcc.ModeDET, 4},
		{"SQL-AE-RND-4", tpcc.ModeRND, 4},
		{"SQL-AE-RND-1", tpcc.ModeRND, 1},
	}
	results := make([]float64, len(configs))
	for i, c := range configs {
		w := newWorld(c.mode, scale, c.enclave)
		results[i] = measureOn(w, c.mode, threads, d, warmup)
		w.Close()
	}
	base := results[0]
	for i, c := range configs {
		fmt.Printf("%-16s %12.2f tx/s   (%.2f normalized)\n", c.label, results[i], results[i]/base)
	}
	det, rnd4 := results[1], results[2]
	fmt.Printf("\nSQL-AE-RND-4 is %.1f%% slower than SQL-AE-DET (paper: 12.3%%)\n",
		100*(det-rnd4)/det)
}

// runBench produces the BENCH_tpcc.json artifact: a plaintext baseline and
// an enclave (RND) run with full latency and boundary-traffic sections.
func runBench(scale tpcc.Scale, d, warmup time.Duration, out string) {
	configs := []struct {
		mode    tpcc.Mode
		enclave int
	}{
		{tpcc.ModePlaintext, 4},
		{tpcc.ModeRND, 4},
	}
	var results []*tpcc.Result
	for _, c := range configs {
		w := newWorld(c.mode, scale, c.enclave)
		res, err := tpcc.RunOnWorld(w, tpcc.BenchConfig{
			Mode: c.mode, Scale: w.Scale, Threads: 8,
			EnclaveThreads: c.enclave, Duration: d, Warmup: warmup,
		})
		w.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v: %v\n", c.mode, err)
			os.Exit(1)
		}
		results = append(results, res)
		fmt.Printf("%-14s %10.2f tx/s, %d committed, %d crossings, %d enclave evals\n",
			c.mode, res.Throughput, res.Committed, res.Crossings, res.EnclaveEvals)
	}
	if err := tpcc.NewBenchReport(results...).WriteFile(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (schema %s)\n", out, tpcc.BenchSchema)
}

func runFigure5() {
	fmt.Println("=== Figure 5: operation leakage to a strong adversary ===")
	rows, err := leakage.Figure5()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(leakage.RenderFigure5(rows))
}
