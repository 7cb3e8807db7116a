package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// countCommits tallies RecCommit records in a WAL slice.
func countCommits(recs []storage.Record) int {
	n := 0
	for _, rec := range recs {
		if rec.Type == storage.RecCommit {
			n++
		}
	}
	return n
}

// promoteFromWAL stands up a fresh replica, replays the given log prefix,
// runs crash recovery (rolling back whatever was in flight at the cut) and
// promotes it to read-write — the §5 failover path.
func promoteFromWAL(t *testing.T, recs []storage.Record) *Engine {
	t.Helper()
	rep, _ := newReplicaEngine(t)
	applyAll(t, rep, NewRedoApplier(rep), recs)
	rep.Recover()
	rep.SetReadOnly(false)
	return rep
}

// TestGroupCommitCrashDurability kills the primary mid group-commit round:
// concurrent committers run against a modelled 2 ms log flush — a round's
// records are appended, then the leader waits out the flush before anyone is
// acknowledged — and at two cut points a consistent WAL prefix is captured
// while commit rounds are still in flight. Promoting a replica from each prefix must show every
// acknowledged transaction (ack happens strictly after the batched append)
// and none of the unacknowledged ones — group commit batches the log write,
// not the durability promise.
func TestGroupCommitCrashDurability(t *testing.T) {
	env := newTestEnv(t, true)
	env.engine.WAL().SyncDelay = 2 * time.Millisecond
	env.mustExec("CREATE TABLE gc (id int PRIMARY KEY, v int)", nil)
	baseCommits := countCommits(env.engine.WAL().Records())

	const writers = 8
	var (
		mu    sync.Mutex
		acked []int64
		next  int64
		wg    sync.WaitGroup
		stop  = make(chan struct{})
	)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := env.engine.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				next++
				id := next
				mu.Unlock()
				if _, err := sess.Execute("BEGIN TRANSACTION", nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.Execute("INSERT INTO gc (id, v) VALUES (@i, @v)",
					Params{"i": intParam(id), "v": intParam(id * 10)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.Execute("COMMIT", nil); err != nil {
					t.Error(err)
					return
				}
				// The commit is acknowledged: from here on it must survive
				// any crash whose WAL cut happens after this append.
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}()
	}

	type cut struct {
		acked []int64
		recs  []storage.Record
	}
	var cuts []cut
	for i := 0; i < 2; i++ {
		time.Sleep(15 * time.Millisecond)
		// Order matters: copy the acked list BEFORE snapshotting the log.
		// Ack-after-append then guarantees every copied ack's commit record
		// is inside the snapshot.
		mu.Lock()
		ackedCopy := append([]int64(nil), acked...)
		mu.Unlock()
		cuts = append(cuts, cut{acked: ackedCopy, recs: env.engine.WAL().Records()})
	}
	close(stop)
	wg.Wait()

	for i, c := range cuts {
		label := fmt.Sprintf("cut %d (%d acked, %d records)", i, len(c.acked), len(c.recs))
		if len(c.acked) == 0 {
			t.Fatalf("%s: no commits acknowledged before the cut", label)
		}
		rep := promoteFromWAL(t, c.recs)
		sess := rep.NewSession()

		// Every acknowledged commit survived.
		for _, id := range c.acked {
			rs, err := sess.Execute("SELECT v FROM gc WHERE id = @i", Params{"i": intParam(id)})
			if err != nil {
				t.Fatalf("%s: read acked row %d: %v", label, id, err)
			}
			if len(rs.Rows) != 1 {
				t.Fatalf("%s: acknowledged txn for row %d lost (rows=%d)", label, id, len(rs.Rows))
			}
			if v, err := sqltypes.Decode(rs.Rows[0][0]); err != nil || v.I != id*10 {
				t.Fatalf("%s: row %d = %v (err %v), want %d", label, id, v, err, id*10)
			}
		}

		// No unacknowledged transaction's changes were applied: each writer
		// txn inserts exactly one row, so the surviving row count must equal
		// the number of commit records inside the cut.
		committed := countCommits(c.recs) - baseCommits
		if committed < len(c.acked) {
			t.Fatalf("%s: %d commit records < %d acks", label, committed, len(c.acked))
		}
		rs, err := sess.Execute("SELECT COUNT(*) FROM gc", nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sqltypes.Decode(rs.Rows[0][0])
		if err != nil {
			t.Fatal(err)
		}
		if got.I != int64(committed) {
			t.Fatalf("%s: replica holds %d rows, want %d (uncommitted work leaked or commits lost)",
				label, got.I, committed)
		}
	}
}

// TestBulkRedoByteIdentical: a bulk-loaded primary, a primary loaded by one
// INSERT statement per row, and key-less replicas replaying either log must
// all hold byte-identical pages. A row INSERT is a bulk insert of one: its
// log carries the same record types, just n of them with one row each.
func TestBulkRedoByteIdentical(t *testing.T) {
	const n = 300
	ddl := func(env *testEnv) {
		env.mustExec("CREATE TABLE load (id int PRIMARY KEY, name varchar(32))", nil)
		env.mustExec("CREATE INDEX ix_name ON load (name)", nil)
	}
	name := func(i int) string { return fmt.Sprintf("row-%04d", i) }

	bulkEnv := newTestEnv(t, true)
	ddl(bulkEnv)
	rows := make([][][]byte, n)
	for i := range rows {
		rows[i] = [][]byte{intParam(int64(i + 1)), strParam(name(i + 1))}
	}
	if got, err := bulkEnv.session.BulkInsert("load", []string{"id", "name"}, rows); err != nil || got != n {
		t.Fatalf("BulkInsert = %d, %v; want %d", got, err, n)
	}

	rowEnv := newTestEnv(t, true)
	ddl(rowEnv)
	for i := 1; i <= n; i++ {
		rowEnv.mustExec("INSERT INTO load (id, name) VALUES (@i, @n)",
			Params{"i": intParam(int64(i)), "n": strParam(name(i))})
	}

	// One statement of n rows or n statements of one: every page byte agrees.
	bulkPages := storePages(t, bulkEnv.engine, bulkEnv.store)
	comparePages(t, bulkPages, storePages(t, rowEnv.engine, rowEnv.store), "bulk vs row-at-a-time")

	// Both logs are made of the same records: forward inserts appear only as
	// RecHeapInsertMulti / RecIndexInsertMulti (one per structure per
	// statement), never as a single-row heap or index insert.
	countMulti := func(label string, recs []storage.Record) int {
		multi := 0
		for _, rec := range recs {
			switch rec.Type {
			case storage.RecHeapInsertMulti, storage.RecIndexInsertMulti:
				multi++
			case storage.RecHeapInsert, storage.RecIndexInsert:
				if !rec.CLR {
					t.Fatalf("%s: forward single-row %s at LSN %d", label, rec.Type, rec.LSN)
				}
			}
		}
		return multi
	}
	bulkRecs, rowRecs := bulkEnv.engine.WAL().Records(), rowEnv.engine.WAL().Records()
	// Heap + primary key index + ix_name: three records per statement.
	if got := countMulti("bulk log", bulkRecs); got != 3 {
		t.Fatalf("bulk load logged %d multi-row records, want 3", got)
	}
	if got := countMulti("row log", rowRecs); got != 3*n {
		t.Fatalf("row-at-a-time load logged %d multi-row records, want %d", got, 3*n)
	}

	// A key-less replica replays either log to the same pages.
	rep, repStore := newReplicaEngine(t)
	applyAll(t, rep, NewRedoApplier(rep), bulkRecs)
	comparePages(t, bulkPages, storePages(t, rep, repStore), "bulk primary vs replica redo")
	rowRep, rowRepStore := newReplicaEngine(t)
	applyAll(t, rowRep, NewRedoApplier(rowRep), rowRecs)
	comparePages(t, bulkPages, storePages(t, rowRep, rowRepStore), "bulk primary vs replica redo of the row log")

	// The replica's logical view works through the replayed index too.
	sess := rep.NewSession()
	rs, err := sess.Execute("SELECT COUNT(*) FROM load", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sqltypes.Decode(rs.Rows[0][0]); err != nil || v.I != n {
		t.Fatalf("replica count = %v (err %v), want %d", v, err, n)
	}
	rs, err = sess.Execute("SELECT id FROM load WHERE name = @n", Params{"n": strParam(name(42))})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("replica index probe rows = %d, want 1", len(rs.Rows))
	}
	if v, err := sqltypes.Decode(rs.Rows[0][0]); err != nil || v.I != 42 {
		t.Fatalf("replica index probe = %v (err %v), want 42", v, err)
	}
}
