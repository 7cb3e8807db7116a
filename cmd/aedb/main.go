// Command aedb runs a standalone Always Encrypted server: enclave, HGS,
// engine and the TDS wire protocol on a TCP listener. It periodically prints
// the enclave's crash-dump view (counters only — enclave memory is stripped,
// §3.3) and the engine's operation counters. With -metrics it additionally
// serves the full obs registry snapshot as JSON on a second HTTP listener
// (GET /metrics).
//
// Because trust anchors (HGS signing key, enclave author ID) live in memory,
// aedb is intended for same-machine experimentation; the in-process tools
// (aesql, tpccbench, examples/) bundle client and server together.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"alwaysencrypted/internal/core"
	"alwaysencrypted/internal/obs/trace"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:14330", "TCP listen address")
	enclaveThreads := flag.Int("enclave-threads", 4, "enclave worker threads (§4.6)")
	noCTR := flag.Bool("no-ctr", false, "disable constant-time recovery (§4.5)")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
	metricsAddr := flag.String("metrics", "", "serve the metrics snapshot as JSON on this address (e.g. 127.0.0.1:14331; empty = off)")
	replListen := flag.String("repl-listen", "", "serve the WAL-shipping replication endpoint on this address (e.g. 127.0.0.1:14340; empty = off)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary's replication endpoint (see -repl-listen on the primary)")
	promote := flag.Bool("promote", false, "with -replica-of: promote to primary automatically when the replication stream is lost")
	traceAddr := flag.String("trace-listen", "", "enable per-statement tracing and serve sampled traces as JSON on this address (GET /traces; e.g. 127.0.0.1:14332; empty = off)")
	traceSample := flag.Float64("trace-sample", 0.01, "head-sampling probability in [0,1] (with -trace-listen)")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "always keep statements at least this slow, regardless of sampling (0 = off)")
	traceCap := flag.Int("trace-capacity", trace.DefaultCapacity, "completed-trace ring capacity; overflow drops oldest")
	flag.Parse()

	var tracePolicy *trace.Policy
	if *traceAddr != "" {
		tracePolicy = &trace.Policy{SampleRate: *traceSample, SlowThreshold: *traceSlow, Capacity: *traceCap}
	}

	if *replicaOf != "" {
		runReplica(*listen, *replicaOf, *enclaveThreads, *promote, *statsEvery, *metricsAddr, *traceAddr, tracePolicy)
		return
	}

	srv, err := core.StartServer(core.ServerConfig{
		Listen:         *listen,
		EnclaveThreads: *enclaveThreads,
		DisableCTR:     *noCTR,
		ReplListen:     *replListen,
		Trace:          tracePolicy,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "aedb:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("aedb: serving on %s (enclave threads=%d, CTR=%v)\n", srv.Addr(), *enclaveThreads, !*noCTR)
	if srv.ReplAddr() != "" {
		fmt.Printf("aedb: replication endpoint on %s\n", srv.ReplAddr())
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Obs())
		ms := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := ms.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "aedb: metrics:", err)
			}
		}()
		defer ms.Close()
		fmt.Printf("aedb: metrics on http://%s/metrics\n", *metricsAddr)
	}

	if *traceAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/traces", trace.Handler(srv.Traces()))
		ts := &http.Server{Addr: *traceAddr, Handler: mux}
		go func() {
			if err := ts.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "aedb: traces:", err)
			}
		}()
		defer ts.Close()
		fmt.Printf("aedb: traces on http://%s/traces (sample=%.2f slow=%s); inspect with aetrace\n",
			*traceAddr, *traceSample, *traceSlow)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	var tick <-chan time.Time
	if *statsEvery > 0 {
		t := time.NewTicker(*statsEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-stop:
			fmt.Println("\naedb: shutting down")
			return
		case <-tick:
			st := srv.Enclave.Dump()
			scans, seeks, execs := srv.Engine.Stats()
			fmt.Printf("aedb: execs=%d scans=%d seeks=%d | enclave sessions=%d ceks=%d evals=%d queue=%d sleeps=%d\n",
				execs, scans, seeks, st.Sessions, st.InstalledCEKs, st.Evaluations, st.QueueTasks, st.WorkerSleeps)
		}
	}
}
