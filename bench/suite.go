package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

const envelopeSchema = "alwaysencrypted/bench/v1"

// envelope is the one JSON result of a suite invocation: where it ran, how
// it was configured, and every workload's numbers.
type envelope struct {
	Schema    string                     `json:"schema"`
	Host      hostInfo                   `json:"host"`
	Knobs     knobs                      `json:"knobs"`
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	GitRev     string `json:"git_rev"`
}

// workloadResult holds every run of one workload. EndToEnd has one report
// per seed; Summary reduces them to the numbers -compare works on.
type workloadResult struct {
	Why      string                   `json:"why"`
	Sizing   sizing                   `json:"sizing"`
	Summary  map[string]metricSummary `json:"end_to_end"`
	PerLayer map[string]metric        `json:"per_layer"`
	EndToEnd []*report                `json:"end_to_end_runs"`
	Traced   *report                  `json:"traced_run"`
}

// metricSummary is an end-to-end metric over the runs of one envelope.
// Spread is the interquartile range as a share of the median, computed as
// the driver does (Python's statistics.quantiles(values, n=4)); it is absent
// with fewer than four runs.
type metricSummary struct {
	Median float64   `json:"median"`
	Unit   string    `json:"unit"`
	Spread *float64  `json:"spread,omitempty"`
	Values []float64 `json:"values"`
}

func currentHost() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH, GitRev: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitRev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.GitRev += "+dirty"
			}
		}
	}
	return h
}

// quartileSpread is (Q3-Q1)/median with quartiles by the exclusive method,
// which is what statistics.quantiles(values, n=4) computes.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > len(s)-1 {
			lo = len(s) - 1
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / median(s)
}

func summarize(decls []metricDecl, runs []*report) map[string]metricSummary {
	out := make(map[string]metricSummary, len(decls))
	for _, d := range decls {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[d.Name].Value
		}
		s := metricSummary{Median: median(vals), Unit: d.Unit, Values: vals}
		if len(vals) >= 4 {
			sp := quartileSpread(vals)
			s.Spread = &sp
		}
		out[d.Name] = s
	}
	return out
}

// runChild runs one workload once in a process of its own, so peak RSS, GC
// state and the process-wide allocation counters belong to that workload
// alone, and returns its full report.
func runChild(workload string, seed int64, seconds, traced int) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	path := filepath.Join(dir, "report.json")
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-out", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, traced, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// runSuite runs every declared workload: runs end-to-end runs on consecutive
// seeds and one traced run, each in a child process.
func runSuite(decl *benchmarkFile, seed int64, seconds, runs int) (*envelope, error) {
	env := &envelope{
		Schema: envelopeSchema, Host: currentHost(), Knobs: currentKnobs(),
		Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]*workloadResult{},
	}
	for _, w := range decl.Workloads {
		sp := findSpec(w.Name)
		res := &workloadResult{Why: w.Why, Sizing: sp.full}
		for i := 0; i < runs; i++ {
			fmt.Fprintf(os.Stderr, "== %s: end-to-end run %d of %d\n", w.Name, i+1, runs)
			rep, err := runChild(w.Name, seed+int64(i), seconds, 0)
			if err != nil {
				return nil, err
			}
			res.EndToEnd = append(res.EndToEnd, rep)
		}
		fmt.Fprintf(os.Stderr, "== %s: traced run\n", w.Name)
		rep, err := runChild(w.Name, seed, seconds, 1)
		if err != nil {
			return nil, err
		}
		res.Traced = rep
		res.PerLayer = rep.Metrics
		res.Summary = summarize(decl.EndToEnd, res.EndToEnd)
		env.Workloads[w.Name] = res
	}
	return env, nil
}

func writeEnvelope(env *envelope, out string) error {
	if out != "" {
		return writeJSON(out, env)
	}
	b, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func readEnvelope(path string) (*envelope, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if env.Schema != envelopeSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, env.Schema, envelopeSchema)
	}
	return &env, nil
}

// verdict of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "DIFFERS"
)

type comparison struct {
	Workload, Metric string
	Base, Cand       float64
	Worse            float64 // share of base by which cand is worse; negative when better
	Spread           float64 // larger of the two sides' spreads; NaN when unknown
	Bound            float64
	Verdict          string
}

// compareEnvelopes applies each end-to-end metric's bound to the medians of
// two envelopes, one row per (workload, metric). Where either side's own
// run-to-run spread exceeds the bound the pair is unresolved, not unchanged.
// symmetric makes a difference in either direction count (the A/A check).
func compareEnvelopes(decl *benchmarkFile, a, b *envelope, symmetric bool) ([]comparison, error) {
	var out []comparison
	for _, w := range decl.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			return nil, fmt.Errorf("workload %s is missing from an envelope", w.Name)
		}
		for _, d := range decl.EndToEnd {
			sa, oka := ra.Summary[d.Name]
			sb, okb := rb.Summary[d.Name]
			if !oka || !okb {
				return nil, fmt.Errorf("%s/%s is missing from an envelope", w.Name, d.Name)
			}
			c := comparison{Workload: w.Name, Metric: d.Name, Base: sa.Median, Cand: sb.Median, Bound: d.Bound, Spread: math.NaN()}
			c.Worse = (sb.Median - sa.Median) / sa.Median
			if d.Better == "higher" {
				c.Worse = -c.Worse
			}
			if sa.Spread != nil && sb.Spread != nil {
				c.Spread = math.Max(*sa.Spread, *sb.Spread)
			}
			switch {
			case c.Spread > d.Bound: // false for NaN
				c.Verdict = verdictUnresolved
			case c.Worse > d.Bound:
				c.Verdict = verdictRegressed
			case symmetric && -c.Worse > d.Bound:
				c.Verdict = verdictDiffers
			default:
				c.Verdict = verdictOK
			}
			out = append(out, c)
		}
	}
	return out, nil
}

func printComparison(rows []comparison) (bad int) {
	fmt.Printf("%-11s %-28s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "base", "candidate", "worse", "spread", "bound", "verdict")
	for _, c := range rows {
		spread := "   n/a"
		if !math.IsNaN(c.Spread) {
			spread = fmt.Sprintf("%6.1f%%", 100*c.Spread)
		}
		fmt.Printf("%-11s %-28s %14.4f %14.4f %+7.1f%% %8s %6.1f%%  %s\n",
			c.Workload, c.Metric, c.Base, c.Cand, 100*c.Worse, spread, 100*c.Bound, c.Verdict)
		if c.Verdict == verdictRegressed || c.Verdict == verdictDiffers {
			bad++
		}
	}
	return bad
}

func compareFiles(decl *benchmarkFile, pathA, pathB string) error {
	a, err := readEnvelope(pathA)
	if err != nil {
		return err
	}
	b, err := readEnvelope(pathB)
	if err != nil {
		return err
	}
	rows, err := compareEnvelopes(decl, a, b, false)
	if err != nil {
		return err
	}
	if bad := printComparison(rows); bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed beyond their bound", bad)
	}
	return nil
}

// runSelfcheck is the A/A test: the same tree measured twice must agree with
// itself within the bounds it holds other changes to.
func runSelfcheck(decl *benchmarkFile, seed int64, seconds, runs int) error {
	a, err := runSuite(decl, seed, seconds, runs)
	if err != nil {
		return err
	}
	b, err := runSuite(decl, seed+int64(runs), seconds, runs)
	if err != nil {
		return err
	}
	rows, err := compareEnvelopes(decl, a, b, true)
	if err != nil {
		return err
	}
	if bad := printComparison(rows); bad > 0 {
		return fmt.Errorf("A/A: %d (workload, metric) pairs disagree beyond their bound", bad)
	}
	return nil
}
