package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// newReplicaEngine builds a bare replica deployment: fresh enclave with no
// CEKs, its own trust anchors, an empty store. This is what a replica host
// looks like before any redo arrives.
func newReplicaEngine(t *testing.T) (*Engine, *storage.MemStore) {
	t.Helper()
	authorKey, err := aecrypto.GenerateRSAKey()
	if err != nil {
		t.Fatal(err)
	}
	image, err := enclave.SignImage(authorKey, []byte("replica-enclave"), 2)
	if err != nil {
		t.Fatal(err)
	}
	encl, err := enclave.Load(image, 10, enclave.Options{
		Threads: 1, SpinDuration: time.Microsecond, CrossingCost: 50 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(encl.Close)
	hgs, err := attestation.NewHGS()
	if err != nil {
		t.Fatal(err)
	}
	host, err := attestation.NewHost([]byte("replica-host-boot"), 10)
	if err != nil {
		t.Fatal(err)
	}
	hgs.RegisterHost([]byte("replica-host-boot"))
	store := storage.NewMemStore()
	eng := New(Config{Enclave: encl, Host: host, HGS: hgs, CTR: true, Store: store})
	eng.SetReadOnly(true)
	return eng, store
}

// applyAll feeds records through a RedoApplier the way the replication loop
// does: mirror into the local WAL, then apply.
func applyAll(t *testing.T, eng *Engine, ra *RedoApplier, recs []storage.Record) {
	t.Helper()
	for i := range recs {
		rec := recs[i]
		eng.WAL().AppendAt(rec)
		if err := ra.Apply(&rec); err != nil {
			t.Fatalf("redo LSN %d: %v", rec.LSN, err)
		}
	}
}

// storePages flushes the engine's buffer pool and snapshots every page the
// store holds, keyed by page id.
func storePages(t *testing.T, eng *Engine, store *storage.MemStore) map[storage.PageID][]byte {
	t.Helper()
	if err := eng.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pages := make(map[storage.PageID][]byte)
	for id := storage.PageID(1); ; id++ {
		buf := make([]byte, storage.PageSize)
		if err := store.ReadPage(id, buf); err != nil {
			if errors.Is(err, storage.ErrNoSuchPage) {
				break
			}
			t.Fatal(err)
		}
		pages[id] = buf
	}
	return pages
}

// comparePages asserts replica pages are byte-identical to the primary's.
// Pages the primary allocated but never wrote may be absent on the replica
// (physical redo only materializes written pages); they must be all-zero.
func comparePages(t *testing.T, primary, replica map[storage.PageID][]byte, label string) {
	t.Helper()
	zero := make([]byte, storage.PageSize)
	for id, want := range primary {
		got, ok := replica[id]
		if !ok {
			if !bytes.Equal(want, zero) {
				t.Fatalf("%s: page %d missing on replica (non-zero on primary)", label, id)
			}
			continue
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: page %d differs between primary and replica", label, id)
		}
	}
	for id := range replica {
		if _, ok := primary[id]; !ok {
			t.Fatalf("%s: replica has page %d the primary never wrote", label, id)
		}
	}
}

// buildReplWorkload produces a primary with a representative WAL: DDL,
// encrypted and plaintext tables, an encrypted range index, inserts, updates
// (in-place and relocating), deletes, a rolled-back transaction (CLRs) and an
// enclave-side ALTER COLUMN rewrite.
func buildReplWorkload(t *testing.T) *testEnv {
	t.Helper()
	env := setupRNDTable(t, true)
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	for i := int64(1); i <= 20; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@i, @v)", Params{
			"i": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i*10), aecrypto.Randomized)})
	}
	// Plaintext table with a plaintext index: the replica applies these
	// index records directly.
	env.mustExec("CREATE TABLE notes (id int PRIMARY KEY, body varchar(64))", nil)
	env.mustExec("CREATE INDEX ix_body ON notes (body)", nil)
	for i := int64(1); i <= 10; i++ {
		env.mustExec("INSERT INTO notes (id, body) VALUES (@i, @b)", Params{
			"i": intParam(i), "b": strParam(fmt.Sprintf("note-%d", i))})
	}
	// Updates: same-size (in place) and growing (relocating).
	env.mustExec("UPDATE notes SET body = @b WHERE id = @i",
		Params{"b": strParam("note-x"), "i": intParam(3)})
	env.mustExec("UPDATE notes SET body = @b WHERE id = @i",
		Params{"b": strParam("a considerably longer body that will not fit in the old slot"), "i": intParam(4)})
	env.mustExec("UPDATE T SET value = @v WHERE id = @i", Params{
		"v": env.enc("CEK1", sqltypes.Int(555), aecrypto.Randomized), "i": intParam(5)})
	// Deletes.
	env.mustExec("DELETE FROM notes WHERE id = @i", Params{"i": intParam(7)})
	env.mustExec("DELETE FROM T WHERE id = @i", Params{"i": intParam(6)})
	// A rolled-back transaction: its undo is logged as CLRs, so replicas
	// replay the abort physically.
	env.mustExec("BEGIN TRANSACTION", nil)
	env.mustExec("INSERT INTO notes (id, body) VALUES (@i, @b)",
		Params{"i": intParam(100), "b": strParam("doomed")})
	env.mustExec("UPDATE notes SET body = @b WHERE id = @i",
		Params{"b": strParam("rewritten then rolled back, far too long for the slot"), "i": intParam(5)})
	env.mustExec("DELETE FROM notes WHERE id = @i", Params{"i": intParam(6)})
	env.mustExec("ROLLBACK", nil)
	return env
}

// TestRedoPhysicalByteIdentical: replaying the primary's WAL leaves the
// replica's pages byte-identical to the primary's — ciphertext included,
// without the replica ever holding a key.
func TestRedoPhysicalByteIdentical(t *testing.T) {
	env := buildReplWorkload(t)
	recs := env.engine.WAL().Records()

	rep, repStore := newReplicaEngine(t)
	ra := NewRedoApplier(rep)
	applyAll(t, rep, ra, recs)
	if got, want := ra.AppliedLSN(), recs[len(recs)-1].LSN; got != want {
		t.Fatalf("applied LSN = %d, want %d", got, want)
	}

	comparePages(t, storePages(t, env.engine, env.store), storePages(t, rep, repStore), "full replay")

	// The replica is read-only: writes are refused at the front door.
	if _, err := rep.NewSession().Execute("INSERT INTO notes (id, body) VALUES (@i, @b)",
		Params{"i": intParam(999), "b": strParam("nope")}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write on replica: %v", err)
	}
	// Reads work, and encrypted cells come back as ciphertext the local
	// (key-less) deployment cannot interpret.
	rs, err := rep.NewSession().Execute("SELECT value FROM T WHERE id = @i", Params{"i": intParam(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("replica read rows = %d", len(rs.Rows))
	}
	if v, err := sqltypes.Decode(rs.Rows[0][0]); err == nil && v.Kind == sqltypes.KindInt {
		t.Fatal("replica returned plaintext for an encrypted cell")
	}
	if got := env.dec("CEK1", rs.Rows[0][0]); got.I != 10 {
		t.Fatalf("replica ciphertext decrypts to %v, want 10", got)
	}
}

// TestRedoRejectsForwardSingleInsert: forward inserts are only ever logged as
// RecHeapInsertMulti, so a non-CLR RecHeapInsert (an older build's log, a
// corrupt stream) is divergence — not an exact-slot restore.
func TestRedoRejectsForwardSingleInsert(t *testing.T) {
	rep, _ := newReplicaEngine(t)
	ra := NewRedoApplier(rep)
	applyAll(t, rep, ra, []storage.Record{
		{LSN: 1, Type: storage.RecDDL, DDL: "CREATE TABLE old (id int PRIMARY KEY)", Row: storage.NewRowID(1, 0)},
	})
	rec := storage.Record{LSN: 2, Type: storage.RecHeapInsert, Table: "old",
		Row: storage.NewRowID(1, 0), New: encodeRow([][]byte{intParam(1)})}
	if err := ra.Apply(&rec); !errors.Is(err, ErrRedoDiverged) {
		t.Fatalf("forward RecHeapInsert: err = %v, want ErrRedoDiverged", err)
	}
}

// TestRedoCrashMidApplyRestart kills the replica at several points mid-redo
// and restarts it: the restarted replica replays its local WAL from scratch,
// resumes the stream, and still converges to byte-identical pages.
func TestRedoCrashMidApplyRestart(t *testing.T) {
	env := buildReplWorkload(t)
	recs := env.engine.WAL().Records()
	primaryPages := storePages(t, env.engine, env.store)

	for _, frac := range []int{3, 2} {
		k := len(recs) / frac
		label := fmt.Sprintf("crash at %d/%d", k, len(recs))

		// First incarnation applies a prefix, then the process dies. Only its
		// WAL (the mirrored prefix) is durable.
		first, _ := newReplicaEngine(t)
		applyAll(t, first, NewRedoApplier(first), recs[:k])
		durable := first.WAL().Records()
		if len(durable) != k {
			t.Fatalf("%s: durable WAL has %d records, want %d", label, len(durable), k)
		}

		// Restart: a fresh engine replays the local log from scratch, then the
		// stream resumes from the next LSN.
		second, secondStore := newReplicaEngine(t)
		ra := NewRedoApplier(second)
		applyAll(t, second, ra, durable)
		applyAll(t, second, ra, recs[k:])

		comparePages(t, primaryPages, storePages(t, second, secondStore), label)
	}
}

// TestRedoDeferredEncryptedIndexWork: index operations on an encrypted range
// index cannot be applied without keys; they are parked as §4.5 deferred
// (redo) transactions, and in-flight ones are dropped at promotion so
// recovery's rollback is not corrupted.
func TestRedoDeferredEncryptedIndexWork(t *testing.T) {
	env := setupRNDTable(t, true)
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	for i := int64(1); i <= 5; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@i, @v)", Params{
			"i": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i), aecrypto.Randomized)})
	}
	// One transaction left in flight on the primary.
	env.mustExec("BEGIN TRANSACTION", nil)
	env.mustExec("INSERT INTO T (id, value) VALUES (@i, @v)", Params{
		"i": intParam(100), "v": env.enc("CEK1", sqltypes.Int(100), aecrypto.Randomized)})

	rep, _ := newReplicaEngine(t)
	ra := NewRedoApplier(rep)
	applyAll(t, rep, ra, env.engine.WAL().Records())

	// The committed inserts deferred their encrypted-index work.
	if n := rep.DeferredCount(); n == 0 {
		t.Fatal("no deferred transactions on the replica")
	}
	// Promotion: drop never-applied pending work of in-flight transactions,
	// then run crash recovery, which rolls the in-flight transaction back.
	if n := ra.DropInflightPending(); n == 0 {
		t.Fatal("in-flight transaction had no pending index work to drop")
	}
	rep.Recover()
	rep.SetReadOnly(false)

	// The in-flight insert is gone from the heap after recovery.
	rs, err := rep.NewSession().Execute("SELECT id FROM T WHERE id = @i", Params{"i": intParam(100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatal("rolled-back insert survived promotion")
	}
}
