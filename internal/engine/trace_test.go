package engine

import (
	"errors"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
)

// withTracer arms per-statement tracing on a test env (keep everything).
func withTracer(env *testEnv) *trace.Tracer {
	tr := trace.NewTracer(trace.Policy{SampleRate: 1, Capacity: 1024})
	env.engine.tracer = tr
	return tr
}

func findTrace(traces []*trace.Trace, kind trace.Kind) *trace.Trace {
	for i := range traces {
		if traces[i].Kind == kind {
			return traces[i]
		}
	}
	return nil
}

func spanNames(tr *trace.Trace) map[string]int {
	m := make(map[string]int)
	for _, sp := range tr.Spans {
		m[sp.Name]++
	}
	return m
}

// A plain INSERT + SELECT pair must produce traces with the full lifecycle
// span set: plan (with lex/parse/bind on a cache miss), exec, and for the
// write the WAL append/commit spans.
func TestTraceLifecycleSpans(t *testing.T) {
	env := newTestEnv(t, false)
	tr := withTracer(env)
	env.mustExec("CREATE TABLE t (id int PRIMARY KEY, v int)", nil)
	env.mustExec("INSERT INTO t (id, v) VALUES (@i, @v)", Params{"i": intParam(1), "v": intParam(10)})
	env.mustExec("SELECT v FROM t WHERE id = @i", Params{"i": intParam(1)})

	traces := tr.Store().Drain()
	ins := findTrace(traces, trace.KindInsert)
	if ins == nil {
		t.Fatalf("no insert trace in %d traces", len(traces))
	}
	names := spanNames(ins)
	for _, want := range []string{"plan", "lex", "parse", "bind", "exec", "wal.append", "wal.commit"} {
		if names[want] == 0 {
			t.Fatalf("insert trace missing span %q (have %v)", want, names)
		}
	}
	sel := findTrace(traces, trace.KindSelect)
	if sel == nil {
		t.Fatal("no select trace")
	}
	selNames := spanNames(sel)
	if selNames["plan"] == 0 || selNames["exec"] == 0 {
		t.Fatalf("select trace spans = %v", selNames)
	}
	if selNames["wal.append"] != 0 {
		t.Fatal("read-only statement recorded a WAL span")
	}

	// Every trace ID is distinct and non-zero.
	seen := make(map[trace.ID]bool)
	for _, x := range traces {
		if x.ID.IsZero() || seen[x.ID] {
			t.Fatalf("duplicate or zero trace ID %s", x.ID)
		}
		seen[x.ID] = true
	}

	// A bulk batch is a statement like any other: counted in engine.execs,
	// with an exec span that contains its WAL appends.
	execs := env.engine.execs.Value()
	batch := [][][]byte{{intParam(2), intParam(20)}, {intParam(3), intParam(30)}}
	if n, err := env.session.BulkInsert("t", []string{"id", "v"}, batch); err != nil || n != 2 {
		t.Fatalf("BulkInsert = %d, %v", n, err)
	}
	if got := env.engine.execs.Value(); got != execs+1 {
		t.Fatalf("engine.execs after a bulk batch = %d, want %d", got, execs+1)
	}
	bulk := findTrace(tr.Store().Drain(), trace.KindInsert)
	if bulk == nil {
		t.Fatal("no trace for the bulk batch")
	}
	var exec *trace.Span
	for i := range bulk.Spans {
		if bulk.Spans[i].Name == "exec" {
			exec = &bulk.Spans[i]
		}
	}
	if exec == nil {
		t.Fatalf("bulk trace has no exec span (have %v)", spanNames(bulk))
	}
	appends := 0
	for _, sp := range bulk.Spans {
		if sp.Name != "wal.append" {
			continue
		}
		appends++
		if sp.Start < exec.Start || sp.Start+sp.Dur > exec.Start+exec.Dur {
			t.Fatalf("wal.append span [%v,+%v] outside exec span [%v,+%v]", sp.Start, sp.Dur, exec.Start, exec.Dur)
		}
	}
	// BEGIN, the heap record and the primary-key index record.
	if appends != 3 || spanNames(bulk)["wal.commit"] != 1 {
		t.Fatalf("bulk trace spans = %v, want 3 wal.append and 1 wal.commit", spanNames(bulk))
	}

	// A read-only engine (a replica) rejects the batch before it looks
	// anything up: the table does not even exist.
	env.engine.SetReadOnly(true)
	if _, err := env.session.BulkInsert("no_such_table", []string{"id"}, batch); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("bulk insert on a read-only engine: %v, want ErrReadOnly", err)
	}
}

// A wire-supplied trace ID must be consumed by exactly one statement: the
// next statement on the session gets a fresh server-minted ID.
func TestTraceIDConsumedPerStatement(t *testing.T) {
	env := newTestEnv(t, false)
	tr := withTracer(env)
	env.mustExec("CREATE TABLE c (id int PRIMARY KEY)", nil)
	id := trace.NewID()
	env.session.SetTraceID(id)
	env.mustExec("INSERT INTO c (id) VALUES (@i)", Params{"i": intParam(1)})
	env.mustExec("INSERT INTO c (id) VALUES (@i)", Params{"i": intParam(2)})
	var withID, without int
	for _, x := range tr.Store().Drain() {
		if x.Kind != trace.KindInsert {
			continue
		}
		if x.ID == id {
			withID++
		} else {
			without++
		}
	}
	if withID != 1 || without != 1 {
		t.Fatalf("client ID used %d times, fresh %d times", withID, without)
	}
}

// An enclave-backed RND predicate must surface its boundary crossings as
// enclave.crossing spans carrying the rows-per-crossing count and the
// sub-program's opcode tallies.
func TestEnclaveCrossingSpans(t *testing.T) {
	env := setupRNDTable(t, false)
	tr := withTracer(env)
	for i := int64(1); i <= 20; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@id, @v)", Params{
			"id": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i%5), aecrypto.Randomized),
		})
	}
	env.mustExec("SELECT id FROM T WHERE value = @v",
		Params{"v": env.enc("CEK1", sqltypes.Int(3), aecrypto.Randomized)})

	sel := findTrace(tr.Store().Drain(), trace.KindSelect)
	if sel == nil {
		t.Fatal("no select trace")
	}
	var crossings int
	var rows int64
	var sawOps bool
	for _, sp := range sel.Spans {
		if sp.Name != "enclave.crossing" {
			continue
		}
		crossings++
		for _, a := range sp.Attrs {
			if a.Key == "rows" {
				rows += a.Value
			}
			if len(a.Key) > 3 && a.Key[:3] == "op." {
				sawOps = true
			}
		}
	}
	if crossings == 0 {
		t.Fatalf("no enclave.crossing spans in %v", spanNames(sel))
	}
	if rows < 20 {
		t.Fatalf("crossing rows = %d, want >= 20 (batched crossing must report batch size)", rows)
	}
	if !sawOps {
		t.Fatal("crossing span carries no opcode tallies")
	}
}

// Tree operations on an index with an enclave-ordered component are recorded
// under enclave.crossing spans opened by the engine — one per index per
// statement for inserts, rows = keys put to the index — so the index's
// enclave time no longer hides in the executor's self time. Plaintext
// indexes (every PK) open none.
func TestEncryptedIndexCrossingSpans(t *testing.T) {
	env := setupRNDTable(t, false)
	tr := withTracer(env)
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	val := func(v int64) []byte { return env.enc("CEK1", sqltypes.Int(v), aecrypto.Randomized) }
	crossings := func(kind trace.Kind) (n int, rows int64) {
		t.Helper()
		x := findTrace(tr.Store().Drain(), kind)
		if x == nil {
			t.Fatalf("no trace of kind %v", kind)
		}
		var exec trace.Span
		for _, sp := range x.Spans {
			if sp.Name == "exec" {
				exec = sp
			}
		}
		for _, sp := range x.Spans {
			if sp.Name != "enclave.crossing" {
				continue
			}
			n++
			if sp.Start < exec.Start || sp.Start+sp.Dur > exec.Start+exec.Dur {
				t.Fatalf("crossing span [%v,+%v] outside exec [%v,+%v]", sp.Start, sp.Dur, exec.Start, exec.Dur)
			}
			for _, a := range sp.Attrs {
				if a.Key != "rows" {
					t.Fatalf("index crossing span carries attr %q", a.Key)
				}
				rows += a.Value
			}
		}
		return n, rows
	}

	env.mustExec("INSERT INTO T (id, value) VALUES (@id, @v)", Params{"id": intParam(1), "v": val(10)})
	if n, rows := crossings(trace.KindInsert); n != 1 || rows != 1 {
		t.Fatalf("row insert: %d crossing spans over %d rows, want 1 over 1 (the PK opens none)", n, rows)
	}
	bulk := make([][][]byte, 5)
	for i := range bulk {
		bulk[i] = [][]byte{sqltypes.Int(int64(10 + i)).Encode(), val(int64(20 + i))}
	}
	if _, err := env.session.BulkInsert("T", []string{"id", "value"}, bulk); err != nil {
		t.Fatal(err)
	}
	if n, rows := crossings(trace.KindInsert); n != 1 || rows != 5 {
		t.Fatalf("bulk insert: %d crossing spans over %d rows, want 1 over 5", n, rows)
	}
	env.mustExec("UPDATE T SET value = @v WHERE id = @id", Params{"v": val(99), "id": intParam(1)})
	if n, _ := crossings(trace.KindUpdate); n != 2 {
		t.Fatalf("key-moving update: %d crossing spans, want 2 (index delete + insert)", n)
	}
	env.mustExec("DELETE FROM T WHERE id = @id", Params{"id": intParam(10)})
	if n, _ := crossings(trace.KindDelete); n != 1 {
		t.Fatalf("delete: %d crossing spans, want 1", n)
	}
	env.mustExec("BEGIN TRANSACTION", nil)
	env.mustExec("INSERT INTO T (id, value) VALUES (@id, @v)", Params{"id": intParam(50), "v": val(50)})
	tr.Store().Drain()
	env.mustExec("ROLLBACK", nil)
	if got := spanNames(tr.Store().Drain()[0])["enclave.crossing"]; got != 1 {
		t.Fatalf("rollback: %d crossing spans, want 1 (logical undo of the index insert)", got)
	}
}

// Errored statements are always kept, even at sample rate 0.
func TestErrorTraceAlwaysKept(t *testing.T) {
	env := newTestEnv(t, false)
	tr := trace.NewTracer(trace.Policy{SampleRate: 0})
	env.engine.tracer = tr
	if _, err := env.session.Execute("SELECT nonsense FROM nowhere", nil); err == nil {
		t.Fatal("expected an error")
	}
	traces := tr.Store().Drain()
	if len(traces) != 1 || !traces[0].Err {
		t.Fatalf("error trace not kept: %+v", traces)
	}
}

// benchEnv builds a minimal engine + table for overhead benchmarks.
func benchExecEnv(b *testing.B, tracer *trace.Tracer) *Session {
	b.Helper()
	eng := New(Config{Tracer: tracer})
	sess := eng.NewSession()
	if _, err := sess.Execute("CREATE TABLE bench (id int PRIMARY KEY, v int)", nil); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Execute("INSERT INTO bench (id, v) VALUES (@i, @v)",
		Params{"i": intParam(1), "v": intParam(1)}); err != nil {
		b.Fatal(err)
	}
	return sess
}

func benchSelect(b *testing.B, sess *Session) {
	p := Params{"i": intParam(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Execute("SELECT v FROM bench WHERE id = @i", p); err != nil {
			b.Fatal(err)
		}
	}
}

// The satellite-1 overhead pair: tracing disabled vs enabled-but-unsampled.
// The budget is <=2%; compare ns/op of these two benchmarks.
func BenchmarkExecTracingOff(b *testing.B) {
	benchSelect(b, benchExecEnv(b, nil))
}

func BenchmarkExecTracingUnsampled(b *testing.B) {
	benchSelect(b, benchExecEnv(b, trace.NewTracer(trace.Policy{SampleRate: 0})))
}
