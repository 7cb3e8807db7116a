package engine

import (
	"fmt"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// TestRedoKeylessDefersIngestShapedLog: a key-less replica replaying a log of
// the benchmark's enc_ingest shape — two enclave-ordered indexes; row
// inserts, a 64-row bulk, key-moving updates, deletes and a rollback —
// defers exactly the transactions it deferred when the index made one
// enclave call per comparison. The node-search path must reach the enclave
// (and so hit ErrKeyNotInEnclave) in precisely the operations the
// per-comparison path did: wantDeferred was recorded on the commit before
// the change with this same script.
func TestRedoKeylessDefersIngestShapedLog(t *testing.T) {
	const wantDeferred = 188
	env := newTestEnv(t, true)
	env.provisionKeys("CMK1", "CEK1", true)
	encCol := "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	env.mustExec("CREATE TABLE accounts (id int PRIMARY KEY, acct varchar(12) "+encCol+", balance int "+encCol+", region int)", nil)
	env.attest("SELECT id FROM accounts WHERE balance = @b")
	env.installCEKs("CEK1")
	env.mustExec("CREATE INDEX accounts_balance ON accounts (balance)", nil)
	env.mustExec("CREATE INDEX accounts_acct ON accounts (acct)", nil)

	rnd := func(v sqltypes.Value) []byte { return env.enc("CEK1", v, aecrypto.Randomized) }
	acct := func(id int64) []byte { return rnd(sqltypes.Str(fmt.Sprintf("AC%010d", id*7919%10_000_000_000))) }
	insert := func(id int64) {
		env.mustExec("INSERT INTO accounts (id, acct, balance, region) VALUES (@id, @a, @b, @r)", Params{
			"id": intParam(id), "a": acct(id), "b": rnd(sqltypes.Int(id * 37 % 1000)), "r": intParam(id % 50)})
	}
	for id := int64(1); id <= 150; id++ {
		insert(id)
	}
	rows := make([][][]byte, 64)
	for i := range rows {
		id := int64(1000 + i)
		rows[i] = [][]byte{sqltypes.Int(id).Encode(), acct(id), rnd(sqltypes.Int(id * 37 % 1000)), sqltypes.Int(id % 50).Encode()}
	}
	if n, err := env.session.BulkInsert("accounts", []string{"id", "acct", "balance", "region"}, rows); err != nil || n != 64 {
		t.Fatalf("bulk insert: %d %v", n, err)
	}
	for id := int64(3); id <= 150; id += 7 { // the indexed key moves
		env.mustExec("UPDATE accounts SET balance = @b WHERE id = @id", Params{"b": rnd(sqltypes.Int(id + 5000)), "id": intParam(id)})
	}
	for id := int64(5); id <= 150; id += 11 {
		env.mustExec("DELETE FROM accounts WHERE id = @id", Params{"id": intParam(id)})
	}
	env.mustExec("BEGIN TRANSACTION", nil)
	insert(2000)
	env.mustExec("UPDATE accounts SET balance = @b WHERE id = @id", Params{"b": rnd(sqltypes.Int(7)), "id": intParam(10)})
	env.mustExec("DELETE FROM accounts WHERE id = @id", Params{"id": intParam(11)})
	env.mustExec("ROLLBACK", nil)
	insert(2001)

	rep, _ := newReplicaEngine(t)
	applyAll(t, rep, NewRedoApplier(rep), env.engine.WAL().Records())
	if got := rep.DeferredCount(); got != wantDeferred {
		t.Fatalf("key-less replica deferred %d transactions, the per-comparison index %d", got, wantDeferred)
	}
}
