package engine

import (
	"errors"
	"testing"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// TestOnlineInitialEncryption is the §2.4.2 flow: a populated plaintext
// column is encrypted in place through the enclave — no client round trip of
// the data — after the client authorizes the DDL statement (§3.2).
func TestOnlineInitialEncryption(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", true)
	env.mustExec("CREATE TABLE pii (id int PRIMARY KEY, ssn varchar(11))", nil)
	ssns := []string{"111-11-1111", "222-22-2222", "333-33-3333"}
	for i, s := range ssns {
		env.mustExec("INSERT INTO pii (id, ssn) VALUES (@i, @s)",
			Params{"i": intParam(int64(i + 1)), "s": strParam(s)})
	}

	ddl := "ALTER TABLE pii ALTER COLUMN ssn varchar(11) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	// Describing the ALTER itself reports the enclave need and triggers
	// attestation — the driver flow for enclave-side initial encryption.
	env.attest(ddl)
	env.installCEKs("CEK1")
	env.authorizeDDL(ddl)
	env.mustExec(ddl, nil)

	// The column is now ciphertext server-side.
	rs := env.mustExec("SELECT ssn FROM pii WHERE id = @i", Params{"i": intParam(1)})
	if v, err := sqltypes.Decode(rs.Rows[0][0]); err == nil && v.Kind == sqltypes.KindString && v.S == ssns[0] {
		t.Fatal("ssn still stored in plaintext after initial encryption")
	}
	if got := env.dec("CEK1", rs.Rows[0][0]); got.S != ssns[0] {
		t.Fatalf("decrypted = %v", got)
	}
	// Queries now work through the enclave.
	rs = env.mustExec("SELECT id FROM pii WHERE ssn = @s",
		Params{"s": env.enc("CEK1", sqltypes.Str("222-22-2222"), aecrypto.Randomized)})
	if len(rs.Rows) != 1 {
		t.Fatalf("post-encryption query rows = %d", len(rs.Rows))
	}
	// Catalog reflects the new type.
	tbl, _ := env.engine.Catalog().Table("pii")
	col, _ := tbl.Col("ssn")
	if col.Enc.Scheme != sqltypes.SchemeRandomized || col.Enc.CEKName != "CEK1" {
		t.Fatalf("catalog enc = %+v", col.Enc)
	}
}

// TestInitialEncryptionRequiresAuthorization: without the client's sealed
// statement hash, the enclave refuses to act as an encryption oracle.
func TestInitialEncryptionRequiresAuthorization(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", true)
	env.mustExec("CREATE TABLE pii (id int PRIMARY KEY, ssn varchar(11))", nil)
	env.mustExec("INSERT INTO pii (id, ssn) VALUES (@i, @s)",
		Params{"i": intParam(1), "s": strParam("111-11-1111")})
	ddl := "ALTER TABLE pii ALTER COLUMN ssn varchar(11) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	env.attest(ddl)
	env.installCEKs("CEK1")
	// No authorizeDDL call: the server tries anyway.
	if _, err := env.session.Execute(ddl, nil); !errors.Is(err, enclave.ErrNotAuthorized) {
		t.Fatalf("unauthorized initial encryption: %v", err)
	}
	// Data untouched.
	rs := env.mustExec("SELECT ssn FROM pii WHERE id = @i", Params{"i": intParam(1)})
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.S != "111-11-1111" {
		t.Fatal("data corrupted by failed DDL")
	}
}

// TestCEKRotationThroughEnclave rotates a column from CEK1 to CEK2 with an
// ALTER TABLE ALTER COLUMN (§2.4.2), then verifies old ciphertext is gone.
func TestCEKRotationThroughEnclave(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", true)
	env.provisionKeys("CMK2", "CEK2", true)
	env.mustExec(`CREATE TABLE t (id int PRIMARY KEY,
		v int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	env.attest("SELECT id FROM t WHERE v = @v")
	env.installCEKs("CEK1", "CEK2")
	for i := int64(1); i <= 5; i++ {
		env.mustExec("INSERT INTO t (id, v) VALUES (@i, @v)", Params{
			"i": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i*10), aecrypto.Randomized)})
	}
	ddl := "ALTER TABLE t ALTER COLUMN v int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK2, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	env.authorizeDDL(ddl)
	env.mustExec(ddl, nil)

	rs := env.mustExec("SELECT v FROM t WHERE id = @i", Params{"i": intParam(3)})
	if got := env.dec("CEK2", rs.Rows[0][0]); got.I != 30 {
		t.Fatalf("rotated value = %v", got)
	}
	if _, err := env.cellKeys["CEK1"].Decrypt(rs.Rows[0][0]); err == nil {
		t.Fatal("rotated ciphertext still opens under the old CEK")
	}
	// Queries with parameters under the new key work.
	rs = env.mustExec("SELECT id FROM t WHERE v = @v",
		Params{"v": env.enc("CEK2", sqltypes.Int(40), aecrypto.Randomized)})
	if len(rs.Rows) != 1 {
		t.Fatalf("post-rotation rows = %d", len(rs.Rows))
	}
}

// crashWithInflightEncryptedIndexTxn builds the §4.5 scenario: a transaction
// inserts rows into a table with an encrypted range index, the process
// crashes before commit, and the restarted enclave has no keys.
func crashWithInflightEncryptedIndexTxn(t *testing.T, ctr bool) *testEnv {
	t.Helper()
	env := setupRNDTable(t, ctr)
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	// Committed baseline.
	for i := int64(1); i <= 5; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@i, @v)", Params{
			"i": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i), aecrypto.Randomized)})
	}
	// In-flight transaction (never committed): bulk-load style inserts.
	env.mustExec("BEGIN TRANSACTION", nil)
	// Also touch a committed row: snapshot discovery skips the uncommitted
	// inserts (invisible), so the writer-blocking demonstration below needs
	// the deferred transaction to hold a lock on a row readers can see.
	env.mustExec("UPDATE T SET id = id WHERE id = @i", Params{"i": intParam(3)})
	for i := int64(100); i < 110; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@i, @v)", Params{
			"i": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i), aecrypto.Randomized)})
	}
	// Crash: replace the enclave with a freshly loaded one (no CEKs). The
	// binary and author key are unchanged — only volatile state is lost.
	env.engine.Crash()
	image, _ := enclave.SignImage(env.authorKey, []byte("es-enclave"), 2)
	fresh, err := enclave.Load(image, 10, enclave.Options{Threads: 1, SpinDuration: time.Microsecond, CrossingCost: 50 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	env.engine.ReplaceEnclave(fresh)
	env.encl = fresh
	env.session = env.engine.NewSession()
	return env
}

// TestRecoveryDefersWithoutKeys: non-CTR — the deferred transaction holds
// its locks, blocking writers, and pins the log.
func TestRecoveryDefersWithoutKeys(t *testing.T) {
	env := crashWithInflightEncryptedIndexTxn(t, false)
	rep := env.engine.Recover()
	if len(rep.DeferredTxns) != 1 || len(rep.UndoneTxns) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LocksHeld == 0 {
		t.Fatal("deferred transaction holds no locks (should block access, §4.5)")
	}
	if env.engine.DeferredCount() != 1 {
		t.Fatalf("deferred = %d", env.engine.DeferredCount())
	}
	// Log truncation is blocked.
	last := env.engine.WAL().Records()[env.engine.WAL().Len()-1].LSN
	if err := env.engine.WAL().TruncateBefore(last); !errors.Is(err, storage.ErrTruncationBlocked) {
		t.Fatalf("truncation: %v", err)
	}
	// A writer touching a locked, visible row times out. (The uncommitted
	// inserts 100..109 are invisible to the writer's snapshot discovery, so
	// the target is the committed row the deferred transaction updated.)
	env.engine.locksTimeoutForTest(50 * time.Millisecond)
	s2 := env.engine.NewSession()
	_, err := s2.Execute("UPDATE T SET id = id WHERE id = @i", Params{"i": intParam(3)})
	if err == nil {
		t.Fatal("update of a row locked by a deferred txn succeeded")
	}

	// Client reconnects: attests against the fresh enclave, sends keys,
	// deferred transactions resolve.
	env.attest("SELECT id FROM T WHERE value = @v")
	env.installCEKs("CEK1")
	resolved, err := env.engine.ResolveDeferred()
	if err != nil || resolved != 1 {
		t.Fatalf("resolve: %d %v", resolved, err)
	}
	if env.engine.DeferredCount() != 0 {
		t.Fatal("still deferred")
	}
	// The uncommitted rows are gone; committed ones remain; index works.
	rs := env.mustExec("SELECT COUNT(*) FROM T", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 5 {
		t.Fatalf("count = %v", v)
	}
	rs = env.mustExec("SELECT id FROM T WHERE value BETWEEN @lo AND @hi", Params{
		"lo": env.enc("CEK1", sqltypes.Int(1), aecrypto.Randomized),
		"hi": env.enc("CEK1", sqltypes.Int(200), aecrypto.Randomized)})
	if len(rs.Rows) != 5 {
		t.Fatalf("index rows = %d (phantom uncommitted entries?)", len(rs.Rows))
	}
	// Truncation unblocked.
	last = env.engine.WAL().Records()[env.engine.WAL().Len()-1].LSN
	if err := env.engine.WAL().TruncateBefore(last); err != nil {
		t.Fatalf("truncation after resolve: %v", err)
	}
}

// TestCTRKeepsDatabaseAvailable: with constant-time recovery the database is
// fully available after the crash — no locks held, committed data readable —
// while the version cleaner retries index undo until keys arrive.
func TestCTRKeepsDatabaseAvailable(t *testing.T) {
	env := crashWithInflightEncryptedIndexTxn(t, true)
	rep := env.engine.Recover()
	if len(rep.DeferredTxns) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LocksHeld != 0 {
		t.Fatalf("CTR recovery held %d locks (must be 0, §4.5)", rep.LocksHeld)
	}
	// Committed data is immediately readable and writable.
	rs := env.mustExec("SELECT COUNT(*) FROM T", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 5 {
		t.Fatalf("count = %v (uncommitted rows visible or committed missing)", v)
	}
	env.mustExec("UPDATE T SET id = id WHERE id = @i", Params{"i": intParam(1)})

	// Cleaner pass without keys keeps retrying.
	if resolved, err := env.engine.ResolveDeferred(); resolved != 0 || err == nil {
		t.Fatalf("cleaner without keys: resolved=%d err=%v", resolved, err)
	}
	// Keys arrive; cleaner completes.
	env.attest("SELECT id FROM T WHERE value = @v")
	env.installCEKs("CEK1")
	if resolved, err := env.engine.ResolveDeferred(); err != nil || resolved != 1 {
		t.Fatalf("cleaner with keys: %d %v", resolved, err)
	}
	rs = env.mustExec("SELECT id FROM T WHERE value BETWEEN @lo AND @hi", Params{
		"lo": env.enc("CEK1", sqltypes.Int(0), aecrypto.Randomized),
		"hi": env.enc("CEK1", sqltypes.Int(500), aecrypto.Randomized)})
	if len(rs.Rows) != 5 {
		t.Fatalf("index rows = %d", len(rs.Rows))
	}
}

// TestForcedResolutionInvalidatesIndex: if keys never arrive, forced
// resolution skips index undo and invalidates the index (§4.5); the first
// key install rebuilds it, and queries seek it again. (Reads falling back to
// scans over an invalidated index: core's TestReplicaRangeReadMatchesPrimary.)
func TestForcedResolutionInvalidatesIndex(t *testing.T) {
	env := crashWithInflightEncryptedIndexTxn(t, false)
	env.engine.Recover()
	invalidated := env.engine.ForceResolveDeferred()
	if len(invalidated) != 1 || invalidated[0] != "ix_val" {
		t.Fatalf("invalidated = %v", invalidated)
	}
	if env.engine.DeferredCount() != 0 {
		t.Fatal("still deferred after force")
	}
	idx, _ := env.engine.Catalog().Index("ix_val")
	if !idx.Tree.Invalidated() {
		t.Fatal("index not invalidated")
	}
	// Data is consistent (heap undo ran).
	rs := env.mustExec("SELECT COUNT(*) FROM T", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 5 {
		t.Fatalf("count = %v", v)
	}
	// The key install rebuilds the index; queries seek it.
	env.attest("SELECT id FROM T WHERE value = @v")
	env.installCEKs("CEK1")
	if idx.Tree.Invalidated() || idx.Tree.Len() != 5 {
		t.Fatalf("after key install: invalidated=%v entries=%d, want a rebuilt index of 5", idx.Tree.Invalidated(), idx.Tree.Len())
	}
	_, seeksBefore, _ := env.engine.Stats()
	rs = env.mustExec("SELECT id FROM T WHERE value BETWEEN @lo AND @hi", Params{
		"lo": env.enc("CEK1", sqltypes.Int(1), aecrypto.Randomized),
		"hi": env.enc("CEK1", sqltypes.Int(5), aecrypto.Randomized)})
	_, seeksAfter, _ := env.engine.Stats()
	if len(rs.Rows) != 5 {
		t.Fatalf("range rows = %d, want 5", len(rs.Rows))
	}
	if seeksAfter == seeksBefore {
		t.Fatal("rebuilt index unused")
	}
}

// TestRecoveryPlainTxnsUndoneImmediately: transactions touching only
// plaintext state never defer.
func TestRecoveryPlainTxnsUndoneImmediately(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE p (id int PRIMARY KEY, v int)", nil)
	env.mustExec("INSERT INTO p (id, v) VALUES (@i, @v)", Params{"i": intParam(1), "v": intParam(1)})
	env.mustExec("BEGIN TRANSACTION", nil)
	env.mustExec("UPDATE p SET v = @v WHERE id = @i", Params{"v": intParam(99), "i": intParam(1)})
	env.mustExec("INSERT INTO p (id, v) VALUES (@i, @v)", Params{"i": intParam(2), "v": intParam(2)})
	env.engine.Crash()
	rep := env.engine.Recover()
	if len(rep.UndoneTxns) != 1 || len(rep.DeferredTxns) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	env.session = env.engine.NewSession()
	rs := env.mustExec("SELECT v FROM p WHERE id = @i", Params{"i": intParam(1)})
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 1 {
		t.Fatalf("v = %v", v)
	}
	rs = env.mustExec("SELECT COUNT(*) FROM p", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 1 {
		t.Fatalf("count = %v", v)
	}
}

// locksTimeoutForTest shortens the lock wait timeout.
func (e *Engine) locksTimeoutForTest(d time.Duration) { e.locks.Timeout = d }

// TestBackgroundCleanerResolvesWhenKeysArrive: the §4.5 version cleaner
// retries on its own until a client supplies keys.
func TestBackgroundCleanerResolvesWhenKeysArrive(t *testing.T) {
	env := crashWithInflightEncryptedIndexTxn(t, true)
	env.engine.Recover()
	stop := env.engine.StartCleaner(10 * time.Millisecond)
	defer stop()

	// Give the cleaner a few fruitless passes.
	time.Sleep(40 * time.Millisecond)
	if env.engine.DeferredCount() != 1 {
		t.Fatal("cleaner resolved without keys")
	}
	// Keys arrive; the cleaner finishes within a few intervals.
	env.attest("SELECT id FROM T WHERE value = @v")
	env.installCEKs("CEK1")
	deadline := time.Now().Add(2 * time.Second)
	for env.engine.DeferredCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("cleaner did not resolve after keys arrived")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
