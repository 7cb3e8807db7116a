package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// phase is the raw outcome of one fixed-count closed-loop pass.
type phase struct {
	wall     time.Duration
	latency  [][]int64 // per client, nanoseconds per completed operation
	types    [][]uint8 // per client, type index of each completed operation
	opCallNS [][]int64 // per client, time each operation spent inside calls to the layer below
	callNS   int64     // the same, summed
	calls    int64
	failed   int
	errs     []string // first few failures, for the report
}

func (p *phase) completed() int {
	n := 0
	for _, l := range p.latency {
		n += len(l)
	}
	return n
}

// merge appends another slice of the same pass.
func (p *phase) merge(q *phase) {
	p.wall += q.wall
	for i := range q.latency {
		p.latency[i] = append(p.latency[i], q.latency[i]...)
		p.types[i] = append(p.types[i], q.types[i]...)
		p.opCallNS[i] = append(p.opCallNS[i], q.opCallNS[i]...)
	}
	p.callNS += q.callNS
	p.calls += q.calls
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
}

// runPhase has every client run opsPerClient operations back to back — a
// closed loop: a client's next operation starts when its previous one
// completes. A pass that outlives limit is aborted: the count was sized for
// the reference host and a run three times slower than expected is not a
// measurement.
func runPhase(clients []client, opsPerClient int, limit time.Duration) (*phase, error) {
	p := &phase{latency: make([][]int64, len(clients)), types: make([][]uint8, len(clients)), opCallNS: make([][]int64, len(clients))}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		aborted atomic.Bool
	)
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			lat := make([]int64, 0, opsPerClient)
			typ := make([]uint8, 0, opsPerClient)
			opCall := make([]int64, 0, opsPerClient)
			var callNS, calls int64
			var failed int
			var errs []string
			c.timer().take()
			for n := 0; n < opsPerClient && !aborted.Load(); n++ {
				t0 := time.Now()
				ty, err := c.next()
				d := time.Since(t0)
				ns, cnt := c.timer().take()
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, err.Error())
					}
					continue
				}
				lat = append(lat, int64(d))
				typ = append(typ, uint8(ty))
				opCall = append(opCall, ns)
				callNS += ns
				calls += int64(cnt)
				if n%64 == 0 && time.Since(start) > limit {
					aborted.Store(true)
				}
			}
			mu.Lock()
			p.latency[i], p.types[i], p.opCallNS[i] = lat, typ, opCall
			p.callNS += callNS
			p.calls += calls
			p.failed += failed
			p.errs = append(p.errs, errs...)
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	if aborted.Load() {
		return p, fmt.Errorf("pass aborted after %v: more than the %v allowed for %d operations per client", p.wall.Round(time.Millisecond), limit, opsPerClient)
	}
	return p, nil
}

// percentile returns the nearest-rank q-quantile of sorted.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedLatencies(p *phase) []int64 {
	all := make([]int64, 0, p.completed())
	for _, l := range p.latency {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status: %v", sc.Err())
}

// settle returns memory to a comparable state between set-ups and passes.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// metric is one reported value with its unit and, for percentiles and
// per-operation means, the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	spec    *spec
	size    sizing
	seed    int64
	seconds int
	setups  int // how many times to build the deployment; setup_s is the median
	// replica hosts the key-less engines the log is replayed onto. Building
	// it generates RSA keys, which is set-up and not replay, so the caller
	// builds it once.
	replica *replicaHost
}

func (c runConfig) measuredOps() int { return c.size.OpsPerSecond * c.seconds }
func (c runConfig) perClient(ops int) int {
	return (ops + numClients() - 1) / numClients()
}

// passLimit is the wall-time budget of a pass sized to take seconds.
func passLimit(seconds int) time.Duration { return 3 * time.Duration(seconds) * time.Second }

// report is what one workload run produces: the metrics plus everything
// needed to interpret and reproduce them.
type report struct {
	Workload    string            `json:"workload"`
	Mode        string            `json:"mode"` // "end_to_end" or "traced"
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Sizing      sizing            `json:"sizing"`
	InputDigest string            `json:"input_digest"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// OpMix is the number of completed operations of each type.
	OpMix map[string]int `json:"op_mix"`
	// Slices are the slices of the measured phase the end-to-end timings
	// and per-operation costs are medians of.
	Slices []sliceStats `json:"slices,omitempty"`
	// SetupSeconds lists every set-up of the run; setup_s is their median.
	SetupSeconds []float64    `json:"setup_seconds,omitempty"`
	Gate         *gateResult  `json:"gate,omitempty"`
	Replay       *replayStats `json:"replay,omitempty"`
	Attribution  *attribution `json:"attribution,omitempty"`
}

// buildTimed builds the deployment cfg.setups times and keeps the last one.
// Set-up time has a heavy random component (three or four RSA key
// generations), so one run reports the median of several.
func buildTimed(cfg runConfig, traced bool, ops int, dir string) (*instance, []float64, error) {
	var times []float64
	var in *instance
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			in.close()
			in = nil
			settle()
		}
		sub, err := os.MkdirTemp(dir, "setup")
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		in, err = cfg.spec.build(buildParams{size: cfg.size, seed: cfg.seed, traced: traced, ops: ops, dir: sub})
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return in, times, nil
}

func opMix(p *phase, names []string) map[string]int {
	mix := make(map[string]int, len(names))
	for _, n := range names {
		mix[n] = 0
	}
	for _, ts := range p.types {
		for _, t := range ts {
			mix[names[t]]++
		}
	}
	return mix
}

// measuredSlices is how many equal slices the measured phase is cut into.
// Every timing and per-operation cost is computed per slice and the median
// slice is reported: a few seconds of interference from another tenant of
// the host then spoil a slice, not the run.
const measuredSlices = 10

// sliceStats is one slice of the measured phase.
type sliceStats struct {
	Ops          int     `json:"ops"`
	OpsPerSecond float64 `json:"ops_per_second"`
	P50US        float64 `json:"p50_us"`
	P95US        float64 `json:"p95_us"`
	CPUMSPerOp   float64 `json:"cpu_ms_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
}

// runMeasured runs the measured phase as measuredSlices back-to-back passes
// and returns the merged phase and the per-slice statistics.
func runMeasured(clients []client, opsPerClient int, limit time.Duration) (*phase, []sliceStats, error) {
	var whole *phase
	var slices []sliceStats
	for i := 0; i < measuredSlices; i++ {
		// Spread the remainder so the slices differ by at most one operation.
		n := opsPerClient / measuredSlices
		if i < opsPerClient%measuredSlices {
			n++
		}
		if n == 0 {
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, err := cpuTime()
		if err != nil {
			return nil, nil, err
		}
		p, err := runPhase(clients, n, limit)
		if err != nil {
			return nil, nil, err
		}
		cpu1, err := cpuTime()
		if err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&m1)
		if done := p.completed(); done > 0 {
			lat := sortedLatencies(p)
			perOp := func(total float64) float64 { return total / float64(done) }
			slices = append(slices, sliceStats{
				Ops: done, OpsPerSecond: float64(done) / p.wall.Seconds(),
				P50US: float64(percentile(lat, 0.50)) / 1e3, P95US: float64(percentile(lat, 0.95)) / 1e3,
				CPUMSPerOp:   perOp(float64(cpu1-cpu0) / 1e6),
				AllocsPerOp:  perOp(float64(m1.Mallocs - m0.Mallocs)),
				AllocKBPerOp: perOp(float64(m1.TotalAlloc-m0.TotalAlloc) / 1024),
			})
		}
		if whole == nil {
			whole = p
		} else {
			whole.merge(p)
		}
	}
	return whole, slices, nil
}

// warmUp runs the fixed-count warm-up pass. An operation that fails while
// the caches are still cold is as much a wrong output as one that fails
// later, so the warm-up must be clean too.
func warmUp(in *instance, cfg runConfig) error {
	p, err := runPhase(in.clients, cfg.perClient(cfg.size.WarmupOps), passLimit(cfg.seconds))
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %d operations failed, first: %v", p.failed, p.errs)
	}
	return nil
}

// runEndToEnd is the untraced run: set-up (several times), warm-up, one
// measured pass, the correctness gate and the replay.
func runEndToEnd(cfg runConfig) (*report, error) {
	dir, cleanup, err := workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	warm, ops := cfg.size.WarmupOps, cfg.measuredOps()
	in, setups, err := buildTimed(cfg, false, cfg.perClient(warm)*numClients()+cfg.perClient(ops)*numClients(), dir)
	if err != nil {
		return nil, err
	}
	defer in.close()

	rep := &report{
		Workload: cfg.spec.name, Mode: "end_to_end", Seed: cfg.seed, Seconds: cfg.seconds,
		Sizing: cfg.size, InputDigest: in.digest, SetupSeconds: setups, Metrics: map[string]metric{},
	}
	rep.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups)}

	user, err := in.userBytes()
	if err != nil {
		return nil, err
	}
	stored, err := storedBytes(in.world.engine)
	if err != nil {
		return nil, err
	}
	rep.Metrics["stored_bytes_per_user_byte"] = metric{Value: float64(stored) / float64(user), Unit: "ratio"}

	if err := warmUp(in, cfg); err != nil {
		return nil, err
	}
	settle()

	p, slices, err := runMeasured(in.clients, cfg.perClient(ops), passLimit(cfg.seconds))
	if err != nil {
		return nil, err
	}
	done := p.completed()
	if done == 0 {
		return nil, fmt.Errorf("no operation completed; first failures: %v", p.errs)
	}
	rep.Attempted, rep.Failed, rep.Failures = done+p.failed, p.failed, p.errs
	rep.OpMix = opMix(p, cfg.spec.opNames)
	rep.Slices = slices
	over := func(f func(s sliceStats) float64) float64 {
		v := make([]float64, len(slices))
		for i, s := range slices {
			v[i] = f(s)
		}
		return median(v)
	}
	perSlice := done / len(slices)
	rep.Metrics["throughput_ops_s"] = metric{Value: over(func(s sliceStats) float64 { return s.OpsPerSecond }), Unit: "1/s", Samples: done}
	rep.Metrics["lat_p50_us"] = metric{Value: over(func(s sliceStats) float64 { return s.P50US }), Unit: "us", Samples: perSlice}
	rep.Metrics["lat_p95_us"] = metric{Value: over(func(s sliceStats) float64 { return s.P95US }), Unit: "us", Samples: perSlice}
	rep.Metrics["committed_frac"] = metric{Value: float64(done) / float64(rep.Attempted), Unit: "ratio", Samples: rep.Attempted}
	rep.Metrics["cpu_ms_per_op"] = metric{Value: over(func(s sliceStats) float64 { return s.CPUMSPerOp }), Unit: "ms", Samples: done}
	rep.Metrics["allocs_per_op"] = metric{Value: over(func(s sliceStats) float64 { return s.AllocsPerOp }), Unit: "count", Samples: done}
	rep.Metrics["alloc_kb_per_op"] = metric{Value: over(func(s sliceStats) float64 { return s.AllocKBPerOp }), Unit: "KiB", Samples: done}

	gate, err := in.gate()
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	rep.Gate = &gate
	rs, err := replayAndCheck(in, cfg.replica, gate)
	if err != nil {
		return nil, fmt.Errorf("durability check: %w", err)
	}
	rep.Replay = rs
	rep.Metrics["replay_s"] = metric{Value: rs.Seconds, Unit: "s", Samples: rs.Records}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MiB"}
	rep.Correct = true
	return rep, nil
}
