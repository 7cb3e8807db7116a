// Command bench is the repository's benchmark: four workloads, eleven
// end-to-end metrics, a traced per-layer attribution and an isolated
// per-layer ladder, under the names BENCHMARK.json declares. See README.md
// in this directory.
//
//	go run ./bench                               every workload, end to end and traced, one JSON envelope
//	go run ./bench -runs 5 -out result.json      five seeds per workload, medians and spreads in the envelope
//	go run ./bench -workload enc_range -trace 1  one run of one workload; last stdout line is the result
//	go run ./bench -ladder                       the per-layer ladder alone
//	go run ./bench -compare a.json b.json        apply BENCHMARK.json's bounds to two envelopes
//	go run ./bench -selfcheck                    run the suite twice and compare the two (A/A)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
)

// driverLine is the one-line result the benchmark driver parses: exactly
// these keys, and a value and a unit per metric.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newDriverLine(rep *report) driverLine {
	l := driverLine{rep.Correct, rep.Attempted, rep.Failed, make(map[string]driverValue, len(rep.Metrics))}
	for name, m := range rep.Metrics {
		l.Metrics[name] = driverValue{m.Value, m.Unit}
	}
	return l
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	traced    int
	out       string
	runs      int
	ladder    bool
	compare   bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload once and print its result as the last line of stdout")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "nominal length of the measured phase (default: BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.traced, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics (traced attribution and ladder)")
	flag.StringVar(&o.out, "out", "", "also write the full JSON report (one workload) or envelope (suite) to this file")
	flag.IntVar(&o.runs, "runs", 1, "suite: end-to-end runs per workload, on consecutive seeds")
	flag.BoolVar(&o.ladder, "ladder", false, "run the per-layer ladder alone")
	flag.BoolVar(&o.compare, "compare", false, "compare two envelopes: -compare a.json b.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice on this tree and fail if the two disagree beyond the bounds")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	decl, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	if o.seconds == 0 {
		o.seconds = decl.RunSeconds
	}
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two envelope files")
		}
		return compareFiles(decl, flag.Arg(0), flag.Arg(1))
	case o.selfcheck:
		return runSelfcheck(decl, o.seed, o.seconds, o.runs)
	case o.ladder:
		replica, err := newReplicaHost()
		if err != nil {
			return err
		}
		defer replica.close()
		m, err := runLadder(1, replica)
		if err != nil {
			return err
		}
		printMetrics(os.Stdout, m)
		return nil
	case o.workload != "":
		return runOne(decl, o)
	default:
		env, err := runSuite(decl, o.seed, o.seconds, o.runs)
		if err != nil {
			return err
		}
		return writeEnvelope(env, o.out)
	}
}

// runOne is the driver's entry point: one workload, one mode, one result
// line. Everything human-readable goes to stderr.
func runOne(decl *benchmarkFile, o options) error {
	sp := findSpec(o.workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	replica, err := newReplicaHost()
	if err != nil {
		return err
	}
	defer replica.close()
	cfg := runConfig{spec: sp, size: sp.full, seed: o.seed, seconds: o.seconds, setups: sp.setups, replica: replica}
	var rep *report
	var declared []metricDecl
	switch o.traced {
	case 0:
		rep, err = runEndToEnd(cfg)
		declared = decl.EndToEnd
	case 1:
		var rungs map[string]metric
		if rungs, err = runLadder(1, replica); err == nil {
			rep, err = runTraced(cfg, rungs)
		}
		declared = decl.PerLayer
		if err == nil {
			// Report the tables before failing on the floors: they are what
			// explains a failure.
			fmt.Fprint(os.Stderr, formatAttribution(sp.name, rep.Attribution))
			err = checkAttributionFloors(rep.Metrics)
		}
	default:
		return fmt.Errorf("-trace %d: want 0 or 1", o.traced)
	}
	if err != nil {
		return err
	}
	if err := checkMetrics(declared, rep.Metrics); err != nil {
		return err
	}
	printMetrics(os.Stderr, rep.Metrics)
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(newDriverLine(rep))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(w *os.File, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
