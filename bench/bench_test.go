package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func loadDecl(t *testing.T) *benchmarkFile {
	t.Helper()
	decl, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// TestBenchmarkFileMatchesImplementation: BENCHMARK.json passes the driver's
// limits (loadBenchmarkFile checks charset, counts, bounds and setup_s) and
// names exactly the workloads this package implements.
func TestBenchmarkFileMatchesImplementation(t *testing.T) {
	decl := loadDecl(t)
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the package implements %d", len(decl.Workloads), len(specs))
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Fatalf("paths = %v, want [bench]", decl.Paths)
	}
}

// TestSmokeEveryWorkload runs every workload end to end and traced at a tiny
// scale — correctness gate, replay and durability check included — and fails
// if the names or units a run emits differ from the ones BENCHMARK.json
// declares. It asserts nothing about the values: at this scale they mean
// nothing.
func TestSmokeEveryWorkload(t *testing.T) {
	decl := loadDecl(t)
	replica, err := newReplicaHost()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(replica.close)
	rungs, err := runLadder(1000, replica)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{spec: sp, size: sp.smoke, seed: 42, seconds: 2, setups: 1, replica: replica}
			rep, err := runEndToEnd(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != cfg.perClient(cfg.measuredOps())*numClients() {
				t.Fatalf("end-to-end run: correct=%v attempted=%d failed=%d %v", rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
			}
			if err := checkMetrics(decl.EndToEnd, rep.Metrics); err != nil {
				t.Fatal(err)
			}
			for name, m := range rep.Metrics {
				if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end metric %s = %v; the driver needs every one positive and finite", name, m.Value)
				}
			}

			traced, err := runTraced(cfg, rungs)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMetrics(decl.PerLayer, traced.Metrics); err != nil {
				t.Fatal(err)
			}
			if traced.Attribution.ServerTraces == 0 {
				t.Fatal("the traced pass joined no server trace")
			}
			if !sp.pooled && len(traced.Attribution.ByType) == 0 {
				t.Fatal("no per-transaction-type attribution on a TPC-C workload")
			}
			// The driver's line must survive a JSON round trip with exactly
			// its four keys.
			raw, err := json.Marshal(newDriverLine(traced))
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(raw, &keys); err != nil || len(keys) != 4 {
				t.Fatalf("driver line has keys %v (err %v), want correct, attempted, failed, metrics", keys, err)
			}
		})
	}
}

// TestQuartileSpread pins the spread to what the driver computes with
// statistics.quantiles(values, n=4): for 1..10 the quartiles are 2.75 and
// 8.25 and the median 5.5.
func TestQuartileSpread(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

// TestCompareVerdicts: a regression beyond the bound is flagged, a change
// inside it is not, a noisy pair is unresolved, and the A/A mode flags a
// difference in either direction.
func TestCompareVerdicts(t *testing.T) {
	decl := loadDecl(t)
	mk := func(throughput []float64) *envelope {
		env := &envelope{Schema: envelopeSchema, Workloads: map[string]*workloadResult{}}
		for _, w := range decl.Workloads {
			var runs []*report
			for _, tp := range throughput {
				m := map[string]metric{}
				for _, d := range decl.EndToEnd {
					m[d.Name] = metric{Value: 1, Unit: d.Unit}
				}
				m["throughput_ops_s"] = metric{Value: tp, Unit: "1/s"}
				runs = append(runs, &report{Metrics: m})
			}
			env.Workloads[w.Name] = &workloadResult{Summary: summarize(decl.EndToEnd, runs)}
		}
		return env
	}
	verdict := func(a, b *envelope, symmetric bool) string {
		rows, err := compareEnvelopes(decl, a, b, symmetric)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Metric == "throughput_ops_s" {
				return r.Verdict
			}
		}
		t.Fatal("no throughput row")
		return ""
	}
	steady := []float64{100, 101, 99, 100, 100}
	if v := verdict(mk(steady), mk([]float64{50, 51, 49, 50, 50}), false); v != verdictRegressed {
		t.Errorf("50%% slower: %s", v)
	}
	if v := verdict(mk(steady), mk([]float64{97, 98, 96, 97, 97}), false); v != verdictOK {
		t.Errorf("3%% slower: %s", v)
	}
	if v := verdict(mk(steady), mk([]float64{60, 100, 140, 80, 120}), false); v != verdictUnresolved {
		t.Errorf("noisy candidate: %s", v)
	}
	if v := verdict(mk(steady), mk([]float64{150, 151, 149, 150, 150}), false); v != verdictOK {
		t.Errorf("50%% faster, one-sided: %s", v)
	}
	if v := verdict(mk(steady), mk([]float64{150, 151, 149, 150, 150}), true); v != verdictDiffers {
		t.Errorf("50%% faster, A/A: %s", v)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	os.RemoveAll(".bench_build") // scratch directories of the smoke runs
	os.Exit(code)
}
