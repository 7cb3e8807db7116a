package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/storage"
)

const rndBal = "int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"

// startReplicated starts a primary with one key-less replica that shares its
// trust anchors, provisions CMK/CEK, and opens an Always Encrypted client on
// the primary. killPrimary closes the primary (once; cleanup is a no-op
// after it).
func startReplicated(t *testing.T) (srv *Server, rs *ReplicaServer, admin *KeyAdmin, db *DB, killPrimary func()) {
	t.Helper()
	srv, err := StartServer(ServerConfig{EnclaveThreads: 2, ReplListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	killPrimary = sync.OnceFunc(srv.Close)
	t.Cleanup(killPrimary)
	admin = NewKeyAdmin(srv)
	if err := admin.CreateMasterKey("CMK", true); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateColumnKey("CEK", "CMK"); err != nil {
		t.Fatal(err)
	}
	trust := srv.Trust()
	rs, err = StartReplicaServer(ReplicaConfig{
		Primary: srv.ReplAddr(), ReplicaID: "replica-1", Trust: &trust, EnclaveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	db, err = srv.Connect(ClientConfig{AlwaysEncrypted: true, Providers: admin.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return srv, rs, admin, db, killPrimary
}

func mustExec(t *testing.T, db *DB, query string, args map[string]Value) int {
	t.Helper()
	rows, err := db.Exec(query, args)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	return len(rows.Values)
}

func insertBal(t *testing.T, db *DB, id int64) {
	t.Helper()
	mustExec(t, db, "INSERT INTO acct (id, bal) VALUES (@i, @b)", map[string]Value{"i": Int(id), "b": Int(id * 100)})
}

// catchUp waits until the replica has applied everything the primary logged.
func catchUp(t *testing.T, srv *Server, rs *ReplicaServer) {
	t.Helper()
	if err := rs.Replication.WaitForLSN(srv.Engine.WAL().NextLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// indexMatchesHeap asserts that the named index is usable and holds exactly
// one entry per live heap row, pointing at that row.
func indexMatchesHeap(t *testing.T, s *Server, table, index string) {
	t.Helper()
	idx, err := s.Engine.Catalog().Index(index)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Engine.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var heap, indexed []storage.RowID
	if err := tbl.Heap.Scan(func(rid storage.RowID, _ []byte) (bool, error) {
		heap = append(heap, rid)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := idx.Tree.Ascend(func(e btree.Entry) bool {
		indexed = append(indexed, e.Row)
		return true
	}); err != nil {
		t.Fatalf("%s: %v", index, err)
	}
	slices.Sort(heap)
	slices.Sort(indexed)
	if !slices.Equal(heap, indexed) {
		t.Fatalf("%s points at rows %v, the heap holds %v", index, indexed, heap)
	}
}

// TestReplicaRangeReadMatchesPrimary: a key-less replica cannot maintain an
// enclave-ordered index, so it must not answer from it either. Once a reader
// attests the replica and installs the CEK, a BETWEEN through the RND column
// returns the primary's rows in every round, and no transaction is parked.
func TestReplicaRangeReadMatchesPrimary(t *testing.T) {
	srv, rs, admin, db, _ := startReplicated(t)
	mustExec(t, db, "CREATE TABLE acct (id int PRIMARY KEY, bal "+rndBal+")", nil)
	mustExec(t, db, "CREATE INDEX ix_bal ON acct (bal)", nil)
	reader, err := rs.Connect(ClientConfig{AlwaysEncrypted: true, Providers: admin.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	const between = "SELECT id FROM acct WHERE bal BETWEEN @lo AND @hi"
	bounds := map[string]Value{"lo": Int(0), "hi": Int(1 << 40)}
	id := int64(0)
	for round := 1; round <= 2; round++ {
		for range 5 {
			id++
			insertBal(t, db, id)
		}
		catchUp(t, srv, rs)
		want := mustExec(t, db, between, bounds)
		if want != 5*round {
			t.Fatalf("round %d: primary returned %d rows, want %d", round, want, 5*round)
		}
		if got := mustExec(t, reader, between, bounds); got != want {
			t.Fatalf("round %d: replica returned %d rows, the primary %d", round, got, want)
		}
		if n := rs.Engine.DeferredCount(); n != 0 {
			t.Fatalf("round %d: replica parked %d transactions", round, n)
		}
	}
}

// TestFailoverWriteRebuildsInvalidatedIndex: CREATE INDEX over existing
// encrypted rows replays on the key-less replica as an invalidated index.
// After promotion, the first INSERT's key install rebuilds it, the insert
// succeeds, and the index holds every heap row.
func TestFailoverWriteRebuildsInvalidatedIndex(t *testing.T) {
	srv, rs, admin, db, killPrimary := startReplicated(t)
	mustExec(t, db, "CREATE TABLE acct (id int PRIMARY KEY, bal "+rndBal+")", nil)
	for id := int64(1); id <= 6; id++ {
		insertBal(t, db, id)
	}
	// An enclave query installs the CEK the primary's index build needs.
	if n := mustExec(t, db, "SELECT id FROM acct WHERE bal = @b", map[string]Value{"b": Int(300)}); n != 1 {
		t.Fatalf("equality rows = %d", n)
	}
	mustExec(t, db, "CREATE INDEX ix_bal ON acct (bal)", nil)
	catchUp(t, srv, rs)
	idx, err := rs.Engine.Catalog().Index("ix_bal")
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Tree.Invalidated() {
		t.Fatal("key-less replica built an enclave-ordered index")
	}

	killPrimary()
	select {
	case <-rs.Replication.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("replica never noticed primary death")
	}
	if err := rs.Promote(); err != nil {
		t.Fatal(err)
	}
	w, err := rs.Connect(ClientConfig{AlwaysEncrypted: true, Providers: admin.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	insertBal(t, w, 7)
	indexMatchesHeap(t, rs.Server, "acct", "ix_bal")
	if n := mustExec(t, w, "SELECT id FROM acct WHERE bal BETWEEN @lo AND @hi",
		map[string]Value{"lo": Int(200), "hi": Int(700)}); n != 6 {
		t.Fatalf("post-failover range rows = %d, want 6", n)
	}
}
