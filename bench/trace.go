package main

import (
	"fmt"
	"sort"
	"strings"

	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/obs/trace"
)

// The traced run measures one workload twice with the same fixed operation
// count — on an untraced world and on a world whose engine traces every
// statement — and explains the traced pass layer by layer. Three clocks are
// joined, all in one process:
//
//   - the benchmark's own timing of every operation and of every call the
//     client makes into the layer below it (driver.Conn.Exec, or a
//     database/sql call);
//   - the metered listener's view of every wire round trip from the server
//     end of the socket (request bytes in → response bytes out);
//   - the engine's statement traces (lex/parse/bind/plan/exec,
//     enclave.crossing, wal.append, wal.commit spans), reduced to self time
//     with trace.Attribute.
//
// Each layer's self time is the time inside it minus the time inside the
// layer below, so the rows of the table sum to the operation's wall time
// and the only unexplained part is server time no span covers.

// attribution is the per-workload reconciliation table.
type attribution struct {
	Ops      int     `json:"ops"`
	OpWallUS float64 `json:"op_wall_us"`
	// Rows are per-operation means, top of the stack first; the residual is
	// the last row.
	Rows []attrRow `json:"rows"`
	// ByType splits the table by TPC-C transaction type (tpcc_* only; the
	// pooled database/sql path exposes no trace IDs to join on).
	ByType map[string]*typeAttribution `json:"by_type,omitempty"`

	ServerTraces  int     `json:"server_traces"`
	TracesDropped uint64  `json:"traces_dropped"`
	UntracedOpsS  float64 `json:"untraced_ops_s"`
	TracedOpsS    float64 `json:"traced_ops_s"`
}

// attrRow is one layer's share of an operation. Every simulated-device knob
// is zero in this benchmark, so modelled sleep is zero on every row; the
// column exists so real CPU cost and modelled cost can never be conflated.
type attrRow struct {
	Layer           string  `json:"layer"`
	SelfUS          float64 `json:"self_us"`
	ModelledSleepUS float64 `json:"modelled_sleep_us"`
	Share           float64 `json:"share"`
}

type typeAttribution struct {
	Ops      int       `json:"ops"`
	OpWallUS float64   `json:"op_wall_us"`
	Rows     []attrRow `json:"rows"`
}

// serverSpans lists the engine's span names in stack order with the metric
// each feeds.
var serverSpans = []struct{ span, layer string }{
	{"plan", "engine.plan"},
	{"lex", "engine.lex"},
	{"parse", "engine.parse"},
	{"bind", "engine.bind"},
	{"exec", "engine.exec"},
	{"enclave.crossing", "enclave.crossing"},
	{"wal.append", "storage.wal_append"},
	{"wal.commit", "storage.wal_commit"},
}

// serverAgg sums the server-side traces of a set of statements.
type serverAgg struct {
	traces int
	wallNS int64
	selfNS map[string]int64
}

func (a *serverAgg) add(et *trace.ExportTrace) {
	at := trace.Attribute(et)
	a.traces++
	a.wallNS += at.WallNS
	if a.selfNS == nil {
		a.selfNS = make(map[string]int64)
	}
	for name, st := range at.ByName {
		a.selfNS[name] += st.ExclusiveNS
	}
	// Session.BulkInsert opens a trace but no plan or exec span — only the
	// wal.append spans inside it. A bulk statement does nothing but execute,
	// so its uncovered time is executor self time, not an unknown.
	if at.ByName["exec"] == nil && at.ByName["plan"] == nil {
		a.selfNS["exec"] += at.WallNS - at.AttributedNS
	}
}

// rows renders the server part of a table: one row per span, then the
// residual. Spans the table does not name are folded into the residual so
// the rows still sum to the wall.
func (a *serverAgg) rows(ops int) (rows []attrRow, residualNS int64) {
	named := int64(0)
	for _, s := range serverSpans {
		rows = append(rows, attrRow{Layer: s.layer, SelfUS: perOpUS(a.selfNS[s.span], ops)})
		named += a.selfNS[s.span]
	}
	return rows, a.wallNS - named
}

func perOpUS(ns int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(ops)
}

// window captures every cumulative source before a pass so the pass can be
// scoped by subtraction.
type window struct {
	obs         obs.Snapshot
	wire        wireSnapshot
	walRecords  int
	walBytes    int
	comparisons uint64
}

func openWindow(w *world) window {
	return window{
		obs: w.obs.Snapshot(), wire: w.wire.snapshot(),
		walRecords: w.engine.WAL().Len(), walBytes: w.engine.WAL().RetainedBytes(),
		comparisons: indexComparisons(w.engine),
	}
}

// indexComparisons sums Tree.Comparisons over every index in the catalog.
func indexComparisons(e *engine.Engine) uint64 {
	var n uint64
	for _, name := range e.Catalog().Tables() {
		tbl, err := e.Catalog().Table(name)
		if err != nil {
			continue // listed a moment ago; a concurrent drop is not an error here
		}
		for _, idx := range tbl.Indexes {
			n += idx.Tree.Comparisons()
		}
	}
	return n
}

// tracedPass is everything measured around the traced world's pass.
type tracedPass struct {
	phase  *phase
	before window
	after  window
	server serverAgg
	byType map[int]*serverAgg
	drops  uint64
}

// tracedSegments is how many alternating slices the two passes are cut
// into. The untraced and the traced world take turns, so drift in the host's
// speed over the run lands on both sides of trace.overhead_frac.
const tracedSegments = 4

// runPairedPasses runs ops operations on the untraced and on the traced
// instance, alternating in tracedSegments slices, and collects the three
// clocks around the traced side. The traced world is idle while the other
// runs, so one window around all its slices scopes its counters.
func runPairedPasses(plain, traced *instance, cfg runConfig, ops int) (*phase, *tracedPass, error) {
	store := traced.world.engine.Tracer().Store()
	store.Drain() // warm-up traces
	traced.world.obs.ResetHistograms()
	tp := &tracedPass{before: openWindow(traced.world)}
	dropped0 := store.Dropped()

	slice := (cfg.perClient(ops) + tracedSegments - 1) / tracedSegments
	var plainPass *phase
	for seg := 0; seg < tracedSegments; seg++ {
		for _, side := range []struct {
			in  *instance
			acc **phase
		}{{plain, &plainPass}, {traced, &tp.phase}} {
			p, err := runPhase(side.in.clients, slice, passLimit(cfg.seconds))
			if err != nil {
				return nil, nil, err
			}
			if *side.acc == nil {
				*side.acc = p
			} else {
				(*side.acc).merge(p)
			}
		}
	}
	tp.after = openWindow(traced.world)
	tp.drops = store.Dropped() - dropped0

	// Join: trace ID → transaction type, from the IDs each terminal filed.
	typeOf := make(map[string]int)
	for _, c := range traced.clients {
		if term, ok := c.(*terminal); ok {
			for typ := range term.ids {
				for _, id := range term.ids[typ] {
					typeOf[id.String()] = typ
				}
			}
		}
	}
	doc := trace.Export(store.Drain())
	tp.byType = make(map[int]*serverAgg)
	for i := range doc.Traces {
		et := &doc.Traces[i]
		tp.server.add(et)
		if typ, ok := typeOf[et.ID]; ok {
			agg := tp.byType[typ]
			if agg == nil {
				agg = &serverAgg{}
				tp.byType[typ] = agg
			}
			agg.add(et)
		}
	}
	return plainPass, tp, nil
}

// finishRows fills in shares and appends the residual row.
func finishRows(rows []attrRow, residualNS int64, opWallNS int64, ops int) []attrRow {
	rows = append(rows, attrRow{Layer: "trace.unattributed", SelfUS: perOpUS(residualNS, ops)})
	wallUS := perOpUS(opWallNS, ops)
	for i := range rows {
		if wallUS > 0 {
			rows[i].Share = rows[i].SelfUS / wallUS
		}
	}
	return rows
}

// attribute builds the reconciliation table and the per-layer metrics of the
// traced pass.
func attribute(sp *spec, tp *tracedPass, untracedOpsS float64) (*attribution, map[string]metric) {
	p := tp.phase
	ops := p.completed()
	var opWallNS int64
	for _, l := range p.latency {
		for _, ns := range l {
			opWallNS += ns
		}
	}
	d := func(name string) int64 { return int64(obs.CounterDelta(tp.before.obs, tp.after.obs, name)) }
	hist := func(name string) obs.HistogramSnapshot { return tp.after.obs.Histograms[name] }
	wire := tp.after.wire.sub(tp.before.wire)

	// Client-side rows by subtraction. What sits between the client's call
	// and the server end of the socket is the driver (cell crypto, describe
	// cache, the client half of the wire codec, the loopback hop); on the
	// pooled path database/sql, aesql and the pool checkout sit there too
	// and cannot be told apart from outside, so the whole client stack is
	// reported as aesql.self_us and driver.self_us is zero.
	acquireNS := hist("pool.acquire_wait_ns").Sum
	clientStackNS := p.callNS - wire.busyNS - acquireNS
	rows := []attrRow{{Layer: "client.tx", SelfUS: perOpUS(opWallNS-p.callNS, ops)}}
	aesqlNS, driverNS := int64(0), clientStackNS
	if sp.pooled {
		aesqlNS, driverNS = clientStackNS, 0
	}
	rows = append(rows,
		attrRow{Layer: "pool.acquire", SelfUS: perOpUS(acquireNS, ops)},
		attrRow{Layer: "aesql", SelfUS: perOpUS(aesqlNS, ops)},
		attrRow{Layer: "driver", SelfUS: perOpUS(driverNS, ops)},
		attrRow{Layer: "tds.wire", SelfUS: perOpUS(wire.busyNS-tp.server.wallNS, ops)},
	)
	serverRows, residualNS := tp.server.rows(ops)
	rows = finishRows(append(rows, serverRows...), residualNS, opWallNS, ops)

	at := &attribution{
		Ops: ops, OpWallUS: perOpUS(opWallNS, ops), Rows: rows,
		ServerTraces: tp.server.traces, TracesDropped: tp.drops,
		UntracedOpsS: untracedOpsS, TracedOpsS: float64(ops) / p.wall.Seconds(),
	}
	if !sp.pooled {
		at.ByType = attributeByType(sp, tp)
	}

	row := func(layer string) float64 {
		for _, r := range rows {
			if r.Layer == layer {
				return r.SelfUS
			}
		}
		return 0
	}
	per := func(v float64) float64 { return v / float64(ops) }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit, Samples: ops} }
	put("client.stmts_per_op", per(float64(p.calls)), "count")
	put("client.tx_self_us", row("client.tx"), "us")
	put("pool.acquire_us", row("pool.acquire"), "us")
	put("aesql.self_us", row("aesql"), "us")
	put("driver.self_us", row("driver"), "us")
	put("driver.describe_calls_per_op", per(float64(d("driver.describe_calls"))), "count")
	put("driver.roundtrips_per_op", per(float64(wire.requests)), "count")
	put("tds.wire_self_us", row("tds.wire"), "us")
	put("tds.bytes_out_per_op", per(float64(wire.bytesIn)), "B") // out of the client = into the server
	put("tds.bytes_in_per_op", per(float64(wire.bytesOut)), "B")
	put("engine.lex_us", row("engine.lex"), "us")
	put("engine.parse_us", row("engine.parse"), "us")
	put("engine.bind_us", row("engine.bind"), "us")
	put("engine.plan_us", row("engine.plan"), "us")
	put("engine.exec_self_us", row("engine.exec"), "us")
	put("engine.scans_per_op", per(float64(d("engine.scans"))), "count")
	put("engine.seeks_per_op", per(float64(d("engine.seeks"))), "count")
	put("enclave.crossing_us", row("enclave.crossing"), "us")
	put("enclave.crossings_per_op", per(float64(d("enclave.crossings"))), "count")
	put("enclave.evals_per_op", per(float64(d("enclave.evals"))), "count")
	rowsPer := hist("enclave.eval.rows_per_crossing")
	put("enclave.rows_per_crossing", ratio(float64(rowsPer.Sum), float64(rowsPer.Count)), "count")
	put("enclave.queue_wait_p50_us", float64(hist("enclave.queue.wait_ns").P50)/1e3, "us")
	put("enclave.queue_parks_per_op", per(float64(d("enclave.queue.parks"))), "count")
	put("enclave.slots_per_op", per(float64(hist("enclave.eval.batch").Sum)), "count")
	put("btree.comparisons_per_op", per(float64(tp.after.comparisons-tp.before.comparisons)), "count")
	put("storage.wal_append_us", row("storage.wal_append"), "us")
	put("storage.wal_commit_us", row("storage.wal_commit"), "us")
	put("storage.wal_records_per_op", per(float64(tp.after.walRecords-tp.before.walRecords)), "count")
	put("storage.wal_bytes_per_op", per(float64(tp.after.walBytes-tp.before.walBytes)), "B")
	put("storage.pool_stall_us", perOpUS(hist("storage.pool.miss_stall_ns").Sum, ops), "us")
	hits, misses := float64(d("storage.pool.hits")), float64(d("storage.pool.misses"))
	put("storage.pool_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("storage.pool_evictions_per_op", per(float64(d("storage.pool.evictions"))), "count")
	put("storage.version_retained_kb", float64(tp.after.obs.Gauges["storage.version.retained_bytes"])/1024, "KiB")
	put("trace.attributed_frac", 1-ratio(float64(residualNS), float64(opWallNS)), "ratio")
	put("trace.unattributed_us", perOpUS(residualNS, ops), "us")
	put("trace.overhead_frac", 1-ratio(at.TracedOpsS, untracedOpsS), "ratio")
	return at, m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// attributeByType builds one table per TPC-C transaction type from the
// statements joined by trace ID. The wire meter is per connection, not per
// statement, so here the driver and the wire share a row.
func attributeByType(sp *spec, tp *tracedPass) map[string]*typeAttribution {
	p := tp.phase
	type sums struct {
		ops            int
		wallNS, callNS int64
	}
	byType := make(map[int]*sums)
	for c := range p.latency {
		for i, ns := range p.latency[c] {
			s := byType[int(p.types[c][i])]
			if s == nil {
				s = &sums{}
				byType[int(p.types[c][i])] = s
			}
			s.ops++
			s.wallNS += ns
			s.callNS += p.opCallNS[c][i]
		}
	}
	out := make(map[string]*typeAttribution, len(byType))
	for typ, s := range byType {
		agg := tp.byType[typ]
		if agg == nil {
			agg = &serverAgg{}
		}
		rows := []attrRow{
			{Layer: "client.tx", SelfUS: perOpUS(s.wallNS-s.callNS, s.ops)},
			{Layer: "driver+tds.wire", SelfUS: perOpUS(s.callNS-agg.wallNS, s.ops)},
		}
		serverRows, residualNS := agg.rows(s.ops)
		out[sp.opNames[typ]] = &typeAttribution{
			Ops: s.ops, OpWallUS: perOpUS(s.wallNS, s.ops),
			Rows: finishRows(append(rows, serverRows...), residualNS, s.wallNS, s.ops),
		}
	}
	return out
}

// attributionFloors are the traced run's own acceptance test: a table that
// leaves more than a tenth of the time unexplained, or tracing that costs
// more than a tenth of the throughput, does not describe the untraced system.
const (
	minAttributedFrac = 0.90
	maxOverheadFrac   = 0.10
)

func checkAttributionFloors(m map[string]metric) error {
	if v := m["trace.attributed_frac"].Value; v < minAttributedFrac {
		return fmt.Errorf("trace.attributed_frac %.3f is below the floor %.2f", v, minAttributedFrac)
	}
	if v := m["trace.overhead_frac"].Value; v > maxOverheadFrac {
		return fmt.Errorf("trace.overhead_frac %.3f is above the ceiling %.2f", v, maxOverheadFrac)
	}
	return nil
}

// formatAttribution renders the tables for the human-readable report.
func formatAttribution(name string, at *attribution) string {
	var b strings.Builder
	table := func(title string, ops int, wallUS float64, rows []attrRow) {
		fmt.Fprintf(&b, "%s — %d ops, %.1f us/op\n", title, ops, wallUS)
		fmt.Fprintf(&b, "  %-24s %12s %12s %8s\n", "layer", "self us/op", "sleep us/op", "share")
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-24s %12.2f %12.2f %7.1f%%\n", r.Layer, r.SelfUS, r.ModelledSleepUS, 100*r.Share)
		}
	}
	table(name, at.Ops, at.OpWallUS, at.Rows)
	types := make([]string, 0, len(at.ByType))
	for t := range at.ByType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		ta := at.ByType[t]
		table(name+"/"+t, ta.Ops, ta.OpWallUS, ta.Rows)
	}
	return b.String()
}

// runTraced is the per-layer run: an untraced and a traced world built from
// the same seed run the same fixed count in alternating slices; the traced
// side is attributed layer by layer; then the replay (for the repl.* metrics
// and, again, the durability check). rungs are the ladder's results, which do
// not depend on the workload; they join the traced metrics so one run
// reports every per-layer metric.
func runTraced(cfg runConfig, rungs map[string]metric) (*report, error) {
	dir, cleanup, err := workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cfg.setups = 1
	// Each side runs half a measured phase: long enough for stable means,
	// short enough that both sides, two set-ups and the ladder fit one run.
	warm, ops := cfg.size.WarmupOps, cfg.measuredOps()/2
	perClient := cfg.perClient(warm) + tracedSegments*((cfg.perClient(ops)+tracedSegments-1)/tracedSegments)

	build := func(traced bool) (*instance, error) {
		in, _, err := buildTimed(cfg, traced, perClient*numClients(), dir)
		if err != nil {
			return nil, err
		}
		if err := warmUp(in, cfg); err != nil {
			in.close()
			return nil, err
		}
		return in, nil
	}
	plain, err := build(false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	in, err := build(true)
	if err != nil {
		return nil, err
	}
	defer in.close()
	settle()

	plainPass, tp, err := runPairedPasses(plain, in, cfg, ops)
	if err != nil {
		return nil, err
	}
	untracedOpsS := float64(plainPass.completed()) / plainPass.wall.Seconds()
	at, metrics := attribute(cfg.spec, tp, untracedOpsS)
	done := tp.phase.completed()
	rep := &report{
		Workload: cfg.spec.name, Mode: "traced", Seed: cfg.seed, Seconds: cfg.seconds,
		Sizing: cfg.size, InputDigest: in.digest, Metrics: metrics, Attribution: at,
		Attempted: done + tp.phase.failed, Failed: tp.phase.failed, Failures: tp.phase.errs,
		OpMix: opMix(tp.phase, cfg.spec.opNames),
	}
	if at.TracesDropped > 0 {
		return nil, fmt.Errorf("the trace ring dropped %d traces; the attribution would be partial", at.TracesDropped)
	}

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
	metrics["repl.replay_records_per_s"] = metric{Value: ratio(float64(rs.Records), rs.ApplySeconds), Unit: "1/s", Samples: rs.Records}
	metrics["repl.deferred_txns"] = metric{Value: float64(rs.DeferredTxns), Unit: "count"}

	for name, m := range rungs {
		metrics[name] = m
	}
	rep.Correct = true
	return rep, nil
}
