package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// Pruned-ghost suite: a snapshot read's ghost pass drops pre-images whose
// key falls outside the seek's bounds on a host-ordered component. Each
// case opens a snapshot, lets another transaction delete rows, move index
// keys and update non-key columns — first in flight, then committed — and
// asserts the snapshot's exact rows at every step, for an autocommit reader
// too while the writer is in flight.

// ghostQuery is one read and the rows the snapshot must keep returning.
type ghostQuery struct {
	sql    string
	params Params
	want   string // rows rendered by renderRows
}

// renderRows renders a result of plaintext integer columns, rows sorted,
// as "a,b;c,d".
func renderRows(t *testing.T, rs *ResultSet) string {
	t.Helper()
	rows := make([]string, len(rs.Rows))
	for i, row := range rs.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			v, err := sqltypes.Decode(c)
			if err != nil {
				t.Fatalf("decoding cell: %v", err)
			}
			cells[j] = fmt.Sprint(v.I)
		}
		rows[i] = strings.Join(cells, ",")
	}
	slices.Sort(rows)
	return strings.Join(rows, ";")
}

// checkGhostReads runs queries through a snapshot opened before writes and
// asserts their rows while writes' transaction is in flight and after it
// commits; after is what each query returns once the reader moves on.
func checkGhostReads(t *testing.T, env *testEnv, queries []ghostQuery, writes func(w func(string, Params)), after []string) {
	t.Helper()
	read := func(s *Session, label string) {
		t.Helper()
		for _, q := range queries {
			rs, err := s.Execute(q.sql, q.params)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, q.sql, err)
			}
			if got := renderRows(t, rs); got != q.want {
				t.Fatalf("%s: %s = %q, want %q", label, q.sql, got, q.want)
			}
		}
	}
	reader := env.engine.NewSession()
	if _, err := reader.Execute("BEGIN TRANSACTION", nil); err != nil {
		t.Fatal(err)
	}
	read(reader, "before the writes")

	writer := env.engine.NewSession()
	if _, err := writer.Execute("BEGIN TRANSACTION", nil); err != nil {
		t.Fatal(err)
	}
	writes(func(q string, p Params) {
		t.Helper()
		if _, err := writer.Execute(q, p); err != nil {
			t.Fatalf("writer: %s: %v", q, err)
		}
	})
	read(reader, "writes in flight")
	read(env.session, "autocommit, writes in flight")
	if _, err := writer.Execute("COMMIT", nil); err != nil {
		t.Fatal(err)
	}
	read(reader, "writes committed")
	if _, err := reader.Execute("COMMIT", nil); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		rs, err := reader.Execute(q.sql, q.params)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderRows(t, rs); got != after[i] {
			t.Fatalf("after commit: %s = %q, want %q", q.sql, got, after[i])
		}
	}
}

// TestGhostBoundsPlainPoint: a plaintext primary-key point seek while its
// row and its neighbours are deleted or updated.
func TestGhostBoundsPlainPoint(t *testing.T) {
	forEachBatchSize(t, func(t *testing.T, batch int) {
		env := newTestEnv(t, false)
		env.engine.batch = batch
		env.mustExec("CREATE TABLE p (id int PRIMARY KEY, v int)", nil)
		for i := int64(1); i <= 5; i++ {
			env.mustExec("INSERT INTO p (id, v) VALUES (@i, @v)", Params{"i": intParam(i), "v": intParam(i * 10)})
		}
		const q = "SELECT id, v FROM p WHERE id = @i"
		checkGhostReads(t, env, []ghostQuery{
			{q, Params{"i": intParam(2)}, "2,20"},
			{q, Params{"i": intParam(3)}, "3,30"},
			{q, Params{"i": intParam(4)}, "4,40"},
		}, func(w func(string, Params)) {
			w("DELETE FROM p WHERE id = @i", Params{"i": intParam(2)})
			w("UPDATE p SET v = @v WHERE id = @i", Params{"v": intParam(99), "i": intParam(3)})
			w("DELETE FROM p WHERE id = @i", Params{"i": intParam(4)})
			w("UPDATE p SET v = @v WHERE id = @i", Params{"v": intParam(98), "i": intParam(5)})
		}, []string{"", "3,99", ""})
	})
}

// TestGhostBoundsPlainRange: a plaintext range seek whose ghosts' keys sit
// on the bounds — kept on an inclusive bound, pruned on an exclusive one —
// inside them, outside them, and NULL (sorts first: inside an open lower
// bound to the tree, and rejected by the filter).
func TestGhostBoundsPlainRange(t *testing.T) {
	forEachBatchSize(t, func(t *testing.T, batch int) {
		env := newTestEnv(t, false)
		env.engine.batch = batch
		env.mustExec("CREATE TABLE r (id int PRIMARY KEY, v int, n int)", nil)
		env.mustExec("CREATE INDEX ix_rv ON r (v)", nil)
		for i := int64(1); i <= 5; i++ {
			env.mustExec("INSERT INTO r (id, v, n) VALUES (@i, @v, @n)", Params{"i": intParam(i), "v": intParam(i * 10), "n": intParam(i)})
		}
		env.mustExec("INSERT INTO r (id, v, n) VALUES (@i, @v, @n)", Params{"i": intParam(6), "v": nil, "n": intParam(6)})
		lo, hi := intParam(20), intParam(40)
		checkGhostReads(t, env, []ghostQuery{
			{"SELECT id FROM r WHERE v >= @lo", Params{"lo": lo}, "2;3;4;5"},
			{"SELECT id FROM r WHERE v > @lo", Params{"lo": lo}, "3;4;5"},
			{"SELECT id FROM r WHERE v < @hi", Params{"hi": hi}, "1;2;3"},
			{"SELECT id FROM r WHERE v <= @hi", Params{"hi": hi}, "1;2;3;4"},
			{"SELECT id, n FROM r WHERE v BETWEEN @lo AND @hi", Params{"lo": lo, "hi": hi}, "2,2;3,3;4,4"},
		}, func(w func(string, Params)) {
			// Key 20 leaves the range, key 40 moves in as 30, key 30's row
			// goes, key 50's row gets a new non-key value, and the NULL-key
			// row goes.
			w("UPDATE r SET v = @v WHERE id = @i", Params{"v": intParam(99), "i": intParam(2)})
			w("UPDATE r SET v = @v WHERE id = @i", Params{"v": intParam(30), "i": intParam(4)})
			w("DELETE FROM r WHERE id = @i", Params{"i": intParam(3)})
			w("UPDATE r SET n = @n WHERE id = @i", Params{"n": intParam(77), "i": intParam(5)})
			w("UPDATE r SET n = @n WHERE id = @i", Params{"n": intParam(66), "i": intParam(1)})
			w("DELETE FROM r WHERE id = @i", Params{"i": intParam(6)})
		}, []string{"2;4;5", "2;4;5", "1;4", "1;4", "4,4"})
	})
}

// TestGhostBoundsDET: a DET equality index, compared by ciphertext bytes.
func TestGhostBoundsDET(t *testing.T) {
	forEachBatchSize(t, func(t *testing.T, batch int) {
		env := newTestEnv(t, false)
		env.engine.batch = batch
		env.provisionKeys("CMK1", "CEK1", false)
		env.mustExec("CREATE TABLE d (id int PRIMARY KEY, s varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'), v int)", nil)
		env.mustExec("CREATE INDEX ix_ds ON d (s)", nil)
		det := func(s string) []byte { return env.enc("CEK1", sqltypes.Str(s), aecrypto.Deterministic) }
		for i, s := range []string{"a", "b", "b", "c", "b", "c"} {
			env.mustExec("INSERT INTO d (id, s, v) VALUES (@i, @s, @v)", Params{"i": intParam(int64(i + 1)), "s": det(s), "v": intParam(int64(i + 1))})
		}
		const q = "SELECT id, v FROM d WHERE s = @s"
		checkGhostReads(t, env, []ghostQuery{
			{q, Params{"s": det("b")}, "2,2;3,3;5,5"},
			{q, Params{"s": det("c")}, "4,4;6,6"},
		}, func(w func(string, Params)) {
			w("DELETE FROM d WHERE id = @i", Params{"i": intParam(2)})
			w("UPDATE d SET s = @s WHERE id = @i", Params{"s": det("z"), "i": intParam(3)})
			w("UPDATE d SET s = @s WHERE id = @i", Params{"s": det("b"), "i": intParam(4)})
			w("UPDATE d SET v = @v WHERE id = @i", Params{"v": intParam(55), "i": intParam(5)})
			w("DELETE FROM d WHERE id = @i", Params{"i": intParam(6)})
		}, []string{"4,4;5,55", ""})
	})
}

// TestGhostBoundsEnclaveSuffix: the customer_nc1 shape — a composite index
// whose RND enclave-ordered component follows a plaintext prefix. The
// prefix prunes ghosts on the host; the RND equality is decided only by the
// filter in the enclave.
func TestGhostBoundsEnclaveSuffix(t *testing.T) {
	forEachBatchSize(t, func(t *testing.T, batch int) {
		env := newTestEnv(t, false)
		env.engine.batch = batch
		env.provisionKeys("CMK1", "CEK1", true)
		env.mustExec("CREATE TABLE c (id int PRIMARY KEY, w int, d int, last "+fmt.Sprintf(rndIntCol, "CEK1")+", v int)", nil)
		const q = "SELECT id, v FROM c WHERE w = @w AND d = @d AND last = @l"
		env.attest(q)
		env.installCEKs("CEK1")
		env.mustExec("CREATE INDEX ix_c ON c (w, d, last)", nil)
		rnd := func(v int64) []byte { return env.enc("CEK1", sqltypes.Int(v), aecrypto.Randomized) }
		// id: (w, d, last)
		rows := [][4]int64{{1, 1, 1, 7}, {2, 1, 1, 7}, {3, 1, 1, 7}, {4, 1, 1, 8}, {5, 1, 2, 7}, {6, 2, 1, 7}, {7, 1, 1, 7}}
		for _, r := range rows {
			env.mustExec("INSERT INTO c (id, w, d, last, v) VALUES (@i, @w, @d, @l, @v)",
				Params{"i": intParam(r[0]), "w": intParam(r[1]), "d": intParam(r[2]), "l": rnd(r[3]), "v": intParam(r[0])})
		}
		if p, err := env.engine.getPlan(q, nil); err != nil || p.access.index == nil || p.access.index.Name != "ix_c" {
			t.Fatalf("query not planned through ix_c")
		}
		checkGhostReads(t, env, []ghostQuery{
			{q, Params{"w": intParam(1), "d": intParam(1), "l": rnd(7)}, "1,1;2,2;3,3;7,7"},
			{q, Params{"w": intParam(1), "d": intParam(2), "l": rnd(7)}, "5,5"},
		}, func(w func(string, Params)) {
			w("DELETE FROM c WHERE id = @i", Params{"i": intParam(1)})
			w("UPDATE c SET last = @l WHERE id = @i", Params{"l": rnd(9), "i": intParam(2)})
			w("UPDATE c SET v = @v WHERE id = @i", Params{"v": intParam(33), "i": intParam(3)})
			w("UPDATE c SET last = @l WHERE id = @i", Params{"l": rnd(7), "i": intParam(4)})
			w("UPDATE c SET d = @d WHERE id = @i", Params{"d": intParam(2), "i": intParam(7)})
			w("DELETE FROM c WHERE id = @i", Params{"i": intParam(5)})
			w("DELETE FROM c WHERE id = @i", Params{"i": intParam(6)})
		}, []string{"3,33;4,4", "7,7"})
	})
}

// TestGhostBoundsJoinProbe: the stock_item shape — every outer row probes
// the inner table through an index on the join key while another
// transaction deletes, re-keys and updates inner rows; the probe's join key
// bounds the inner ghost pass.
func TestGhostBoundsJoinProbe(t *testing.T) {
	forEachBatchSize(t, func(t *testing.T, batch int) {
		env := newTestEnv(t, false)
		env.engine.batch = batch
		env.mustExec("CREATE TABLE ol (id int PRIMARY KEY, item int)", nil)
		env.mustExec("CREATE TABLE st (sid int PRIMARY KEY, item int, q int)", nil)
		env.mustExec("CREATE INDEX ix_item ON st (item)", nil)
		for i := int64(1); i <= 4; i++ {
			env.mustExec("INSERT INTO ol (id, item) VALUES (@i, @k)", Params{"i": intParam(i), "k": intParam(i * 10)})
		}
		env.mustExec("INSERT INTO ol (id, item) VALUES (@i, @k)", Params{"i": intParam(5), "k": nil})
		for i := int64(1); i <= 8; i++ {
			env.mustExec("INSERT INTO st (sid, item, q) VALUES (@i, @k, @q)", Params{"i": intParam(i), "k": intParam((i + 1) / 2 * 10), "q": intParam(i)})
		}
		const q = "SELECT ol.id, st.sid, st.q FROM ol JOIN st ON ol.item = st.item WHERE ol.id <= @n"
		if p, err := env.engine.getPlan(q, nil); err != nil || p.join.innerIndex == nil {
			t.Fatalf("inner side not planned through ix_item")
		}
		checkGhostReads(t, env, []ghostQuery{
			{q, Params{"n": intParam(5)}, "1,1,1;1,2,2;2,3,3;2,4,4;3,5,5;3,6,6;4,7,7;4,8,8"},
		}, func(w func(string, Params)) {
			w("DELETE FROM st WHERE sid = @i", Params{"i": intParam(1)})
			w("UPDATE st SET item = @k WHERE sid = @i", Params{"k": intParam(40), "i": intParam(3)})
			for i := int64(4); i <= 8; i++ {
				w("UPDATE st SET q = @q WHERE sid = @i", Params{"q": intParam(i * 100), "i": intParam(i)})
			}
			w("DELETE FROM ol WHERE id = @i", Params{"i": intParam(4)})
		}, []string{"1,2,2;2,4,400;3,5,500;3,6,600"})
	})
}

// TestGhostBoundsNullParam: a NULL seek value matches nothing, live rows
// and ghosts alike — NULL-keyed ghosts included.
func TestGhostBoundsNullParam(t *testing.T) {
	forEachBatchSize(t, func(t *testing.T, batch int) {
		env := newTestEnv(t, false)
		env.engine.batch = batch
		env.mustExec("CREATE TABLE z (id int PRIMARY KEY, v int)", nil)
		env.mustExec("CREATE INDEX ix_zv ON z (v)", nil)
		env.mustExec("INSERT INTO z (id, v) VALUES (@i, @v)", Params{"i": intParam(1), "v": intParam(10)})
		env.mustExec("INSERT INTO z (id, v) VALUES (@i, @v)", Params{"i": intParam(2), "v": nil})
		env.mustExec("INSERT INTO z (id, v) VALUES (@i, @v)", Params{"i": intParam(3), "v": intParam(30)})
		checkGhostReads(t, env, []ghostQuery{
			{"SELECT id FROM z WHERE v = @v", Params{"v": nil}, ""},
			{"SELECT id FROM z WHERE v > @v", Params{"v": nil}, ""},
			{"SELECT id FROM z WHERE v BETWEEN @lo AND @hi", Params{"lo": intParam(0), "hi": nil}, ""},
			{"SELECT id FROM z WHERE v = @v", Params{"v": intParam(10)}, "1"},
		}, func(w func(string, Params)) {
			w("DELETE FROM z WHERE id = @i", Params{"i": intParam(1)})
			w("DELETE FROM z WHERE id = @i", Params{"i": intParam(2)})
			w("UPDATE z SET v = @v WHERE id = @i", Params{"v": nil, "i": intParam(3)})
		}, []string{"", "", "", ""})
	})
}

// BenchmarkSeekUnderWriters times an autocommit primary-key point seek on a
// 512-row table while another transaction holds in-flight updates of k other
// rows of it: k version chains the seek's ghost pass must get past.
func BenchmarkSeekUnderWriters(b *testing.B) {
	for _, k := range []int{0, 20, 200} {
		b.Run(fmt.Sprintf("inflight=%d", k), func(b *testing.B) {
			env := newTestEnv(b, false)
			env.mustExec("CREATE TABLE s (id int PRIMARY KEY, v int)", nil)
			for i := int64(0); i < 512; i++ {
				env.mustExec("INSERT INTO s (id, v) VALUES (@i, @v)", Params{"i": intParam(i), "v": intParam(i)})
			}
			writer := env.engine.NewSession()
			if _, err := writer.Execute("BEGIN TRANSACTION", nil); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if _, err := writer.Execute("UPDATE s SET v = @v WHERE id = @i",
					Params{"v": intParam(-1), "i": intParam(int64(256 + i))}); err != nil {
					b.Fatal(err)
				}
			}
			params := Params{"i": intParam(7)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := env.session.Execute("SELECT v FROM s WHERE id = @i", params)
				if err != nil || len(rs.Rows) != 1 {
					b.Fatalf("seek: %d rows, %v", len(rs.Rows), err)
				}
			}
			b.StopTimer()
			if _, err := writer.Execute("ROLLBACK", nil); err != nil {
				b.Fatal(err)
			}
		})
	}
}
