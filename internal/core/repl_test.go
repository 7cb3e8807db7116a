package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"alwaysencrypted/internal/obs"
	"alwaysencrypted/internal/repl"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// TestReplicationE2EFailover is the full failover story: a client commits
// encrypted data through the primary, a replica applies the shipped WAL
// (ciphertext only — the tap proves it), the primary dies, the replica is
// promoted, and the same client connection retries transparently: it
// re-attests against the promoted server's fresh enclave, re-installs CEKs,
// and an enclave-backed range query over the encrypted column returns
// correct results. The salary_index input adds an enclave index on salary
// before any row exists: the key-less replica invalidates it, and the first
// post-failover key install rebuilds it, so the range query seeks it and
// returns every row on its first try.
func TestReplicationE2EFailover(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		name := "scan"
		if indexed {
			name = "salary_index"
		}
		t.Run(name, func(t *testing.T) { replicationE2EFailover(t, indexed) })
	}
}

func replicationE2EFailover(t *testing.T, indexed bool) {
	srv, err := StartServer(ServerConfig{EnclaveThreads: 2, ReplListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	primaryClosed := false
	defer func() {
		if !primaryClosed {
			srv.Close()
		}
	}()
	admin := NewKeyAdmin(srv)
	if err := admin.CreateMasterKey("CMK", true); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateColumnKey("CEK", "CMK"); err != nil {
		t.Fatal(err)
	}

	// Leakage harness: observe every record shipped to replicas.
	var tapMu sync.Mutex
	var shipped []storage.Record
	srv.Repl.Tap = func(dir string, msg any) {
		if b, ok := msg.(*repl.Batch); ok && dir == "p→r" {
			tapMu.Lock()
			shipped = append(shipped, b.Records...)
			tapMu.Unlock()
		}
	}

	// The replica shares the primary's trust anchors, so the client's policy
	// keeps verifying after failover.
	trust := srv.Trust()
	rs, err := StartReplicaServer(ReplicaConfig{
		Primary: srv.ReplAddr(), ReplicaID: "replica-1", Trust: &trust, EnclaveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	clientObs := obs.New("client")
	db, err := ConnectAddrs([]string{srv.Addr(), rs.Addr()}, srv.Policy(),
		ClientConfig{AlwaysEncrypted: true, Providers: admin.Registry()}, clientObs)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(`CREATE TABLE people (id int PRIMARY KEY,
		ssn varchar(16) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'),
		salary int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil); err != nil {
		t.Fatal(err)
	}
	if indexed {
		if _, err := db.Exec("CREATE INDEX ix_salary ON people (salary)", nil); err != nil {
			t.Fatal(err)
		}
	}
	ssn := func(i int64) string { return fmt.Sprintf("SECRET-SSN-%03d", i) }
	for i := int64(1); i <= 10; i++ {
		if _, err := db.Exec("INSERT INTO people (id, ssn, salary) VALUES (@i, @s, @p)",
			map[string]Value{"i": Int(i), "s": Str(ssn(i)), "p": Int(i * 1000)}); err != nil {
			t.Fatal(err)
		}
	}

	// An enclave query against the primary: the client attests and installs
	// CEKs (first attestation — failover must redo all of this).
	rows0, err := db.Exec("SELECT id FROM people WHERE ssn = @s", map[string]Value{"s": Str(ssn(2))})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows0.Values) != 1 || rows0.Values[0][0].I != 2 {
		t.Fatalf("pre-failover equality rows = %+v", rows0.Values)
	}

	// Replica catches up with everything the primary has logged.
	if err := rs.Replication.WaitForLSN(srv.Engine.WAL().NextLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Satellite: nothing on the replication wire carries the plaintext of
	// encrypted columns — heap images, index keys and DDL are all checked.
	tapMu.Lock()
	wire := append([]storage.Record(nil), shipped...)
	tapMu.Unlock()
	if len(wire) < 20 {
		t.Fatalf("tap saw only %d shipped records", len(wire))
	}
	for i := int64(1); i <= 10; i++ {
		leak := []byte(ssn(i))
		for _, rec := range wire {
			if bytes.Contains(rec.New, leak) || bytes.Contains(rec.Old, leak) ||
				strings.Contains(rec.DDL, string(leak)) {
				t.Fatalf("plaintext %q shipped in WAL record LSN %d (%s)", leak, rec.LSN, rec.Type)
			}
			for _, k := range rec.Key {
				if bytes.Contains(k, leak) {
					t.Fatalf("plaintext %q shipped in index key, LSN %d", leak, rec.LSN)
				}
			}
		}
	}

	// The replica serves reads before failover; encrypted cells come back as
	// ciphertext (its enclave holds no CEKs), writes are refused.
	replicaReader, err := rs.Connect(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := replicaReader.Exec("SELECT ssn FROM people WHERE id = @i", map[string]Value{"i": Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	got := rows.Values[0][0]
	if got.Kind != sqltypes.KindBytes || strings.Contains(string(got.B), "SECRET-SSN") {
		t.Fatalf("replica leaked plaintext: %v", got)
	}
	if _, err := replicaReader.Exec("INSERT INTO people (id, ssn, salary) VALUES (@i, @s, @p)",
		map[string]Value{"i": Int(99), "s": Str("x"), "p": Int(1)}); err == nil {
		t.Fatal("replica accepted a write before promotion")
	}
	replicaReader.Close()

	// Primary dies. The replica notices the stream loss and is promoted.
	srv.Close()
	primaryClosed = true
	select {
	case <-rs.Replication.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("replica never noticed primary death")
	}
	if err := rs.Promote(); err != nil {
		t.Fatal(err)
	}
	if !rs.Promoted() {
		t.Fatal("Promote did not latch")
	}

	// The same client connection retries: transparent failover, full
	// re-attestation against the fresh enclave, CEKs re-installed, and the
	// enclave-backed range query over encrypted data computes correctly.
	_, seeks0, _ := rs.Engine.Stats()
	rows, err = db.Exec("SELECT id FROM people WHERE salary BETWEEN @lo AND @hi",
		map[string]Value{"lo": Int(3000), "hi": Int(6000)})
	if err != nil {
		t.Fatalf("post-failover range query: %v", err)
	}
	if len(rows.Values) != 4 {
		t.Fatalf("post-failover range rows = %d, want 4", len(rows.Values))
	}
	if _, seeks, _ := rs.Engine.Stats(); indexed && seeks == seeks0 {
		t.Fatal("post-failover range query did not seek the rebuilt index")
	}
	rows, err = db.Exec("SELECT id, ssn FROM people WHERE ssn = @s", map[string]Value{"s": Str(ssn(7))})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Values) != 1 || rows.Values[0][0].I != 7 || rows.Values[0][1].S != ssn(7) {
		t.Fatalf("post-failover equality rows = %+v", rows.Values)
	}

	// Writes work on the promoted server.
	if _, err := db.Exec("INSERT INTO people (id, ssn, salary) VALUES (@i, @s, @p)",
		map[string]Value{"i": Int(11), "s": Str(ssn(11)), "p": Int(11000)}); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}

	// Driver metrics: at least one failover and one re-attestation.
	if db.Conn.Failovers < 1 {
		t.Fatalf("driver failovers = %d", db.Conn.Failovers)
	}
	if v := clientObs.Counter("driver.reattestations").Value(); v < 1 {
		t.Fatalf("reattestations = %d", v)
	}
	if v := clientObs.Counter("driver.attestations").Value(); v < 2 {
		t.Fatalf("attestations = %d", v)
	}
}

// TestReplicationLagAndTruncationGate: the primary's log cannot truncate past
// a connected replica, and the lag gauges move.
func TestReplicationLagAndTruncationGate(t *testing.T) {
	srv, err := StartServer(ServerConfig{EnclaveThreads: 1, ReplListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.New("replica-obs")
	trust := srv.Trust()
	rs, err := StartReplicaServer(ReplicaConfig{
		Primary: srv.ReplAddr(), ReplicaID: "lagger", Trust: &trust, EnclaveThreads: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	db, err := srv.Connect(ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE kv (id int PRIMARY KEY, v int)", nil); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 50; i++ {
		if _, err := db.Exec("INSERT INTO kv (id, v) VALUES (@i, @v)",
			map[string]Value{"i": Int(i), "v": Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Replication.WaitForLSN(srv.Engine.WAL().NextLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("repl.redo_records").Value() == 0 {
		t.Fatal("redo counter never moved")
	}

	// The replica has acked everything: truncation up to its ack succeeds,
	// truncation beyond any ack the stream has registered fails while it is
	// connected.
	wal := srv.Engine.WAL()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ack, ok := wal.MinStreamAck(); ok && ack+1 >= wal.NextLSN() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary never saw the replica's final ack")
		}
		time.Sleep(time.Millisecond)
	}
	if err := wal.TruncateBefore(wal.NextLSN()); err != nil {
		t.Fatalf("truncation at acked LSN: %v", err)
	}
	// Disconnect the replica; its stream pin must be released.
	rs.Replication.Stop()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, ok := wal.MinStreamAck(); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream pin survived disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}
