package driver

import (
	"testing"

	"alwaysencrypted/internal/sqltypes"
)

// A schema-changing statement through a caching connection invalidates its
// own describe cache: the cached metadata describes the old schema.
func TestDescribeCacheInvalidatedBySchemaChange(t *testing.T) {
	env := newServerEnv(t)
	env.provision("CMK1", "CEK1", true)
	c := env.dial(Config{AlwaysEncrypted: true, DescribeCache: true})

	mustExec(t, c, "CREATE TABLE pii (id int PRIMARY KEY, ssn varchar(11))", nil)
	ins := "INSERT INTO pii (id, ssn) VALUES (@id, @ssn)"
	mustExec(t, c, ins, map[string]sqltypes.Value{"id": sqltypes.Int(1), "ssn": sqltypes.Str("a")})
	mustExec(t, c, ins, map[string]sqltypes.Value{"id": sqltypes.Int(2), "ssn": sqltypes.Str("b")})
	// CREATE (1) + first INSERT (2); the second INSERT hit the cache.
	if c.DescribeCalls != 2 {
		t.Fatalf("describe calls before ALTER = %d, want 2", c.DescribeCalls)
	}

	mustExec(t, c, "ALTER TABLE pii ALTER COLUMN ssn varchar(11) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')", nil)
	after := c.DescribeCalls // ALTER described itself and emptied the cache

	// The same statement text now needs a fresh describe — and encrypts.
	mustExec(t, c, ins, map[string]sqltypes.Value{"id": sqltypes.Int(3), "ssn": sqltypes.Str("c")})
	if c.DescribeCalls != after+1 {
		t.Fatalf("describe calls after ALTER = %d, want %d (cache invalidated)", c.DescribeCalls, after+1)
	}
	rows := mustExec(t, c, "SELECT ssn FROM pii WHERE id = @id", map[string]sqltypes.Value{"id": sqltypes.Int(3)})
	if rows.Values[0][0].S != "c" {
		t.Fatalf("post-ALTER insert round trip = %+v", rows.Values)
	}
}

// Stale-describe retry (§4.1's safety argument for caching): when another
// session changes the schema underneath a cached describe, the server rejects
// the mis-encrypted statement, and the driver drops just that cache entry and
// retries once with fresh metadata — transparently to the caller.
func TestStaleDescribeRetriesWithFreshMetadata(t *testing.T) {
	env := newServerEnv(t)
	env.provision("CMK1", "CEK1", true)
	admin := env.dial(Config{AlwaysEncrypted: true})
	mustExec(t, admin, "CREATE TABLE pii (id int PRIMARY KEY, ssn varchar(11))", nil)

	cached := env.dial(Config{AlwaysEncrypted: true, DescribeCache: true})
	ins := "INSERT INTO pii (id, ssn) VALUES (@id, @ssn)"
	mustExec(t, cached, ins, map[string]sqltypes.Value{"id": sqltypes.Int(1), "ssn": sqltypes.Str("plain")})
	if cached.DescribeCalls != 1 {
		t.Fatalf("describe calls = %d, want 1", cached.DescribeCalls)
	}

	// Another session encrypts the column: cached's describe entry now says
	// "send plaintext" for a column that demands ciphertext.
	mustExec(t, admin, "ALTER TABLE pii ALTER COLUMN ssn varchar(11) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')", nil)

	// The stale execution is rejected by the server, re-described, retried —
	// the caller sees one successful insert.
	if _, err := cached.Exec(ins, map[string]sqltypes.Value{"id": sqltypes.Int(2), "ssn": sqltypes.Str("secret")}); err != nil {
		t.Fatalf("stale-describe exec: %v", err)
	}
	if cached.DescribeCalls != 2 {
		t.Fatalf("describe calls = %d, want 2 (cache hit, rejection, one fresh describe)", cached.DescribeCalls)
	}
	rows := mustExec(t, cached, "SELECT ssn FROM pii WHERE id = @id", map[string]sqltypes.Value{"id": sqltypes.Int(2)})
	if rows.Values[0][0].S != "secret" {
		t.Fatalf("retried insert = %+v, want decrypted 'secret'", rows.Values)
	}
}

// A cached describe embeds the enclave session of the connection that
// fetched it. A second connection sharing the cache whose FIRST enclave
// operation is a bulk insert is served that entry, has no session of its own,
// and is rejected by the server when it tries to install CEKs — which the
// retry wrapper treats like any stale describe: drop, describe afresh (this
// time attesting), rerun. Before BulkInsert shared Exec's wrapper this failed
// with "enclave: unknown session".
func TestSharedDescribeCacheFirstOpBulkInsert(t *testing.T) {
	env := newServerEnv(t)
	env.provision("CMK1", "CEK1", true)
	admin := env.dial(Config{AlwaysEncrypted: true})
	mustExec(t, admin, `CREATE TABLE acct (id int PRIMARY KEY,
		bal int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	mustExec(t, admin, "CREATE INDEX ix_bal ON acct (bal)", nil) // enclave-ordered: inserts need the enclave

	shared := NewCache()
	cfg := Config{AlwaysEncrypted: true, DescribeCache: true, Providers: env.reg, Policy: &env.policy}
	cols := []string{"id", "bal"}
	row := func(id int64) [][]sqltypes.Value {
		return [][]sqltypes.Value{{sqltypes.Int(id), sqltypes.Int(id * 100)}}
	}

	c1, err := Dial(env.addr, cfg, shared)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if n, err := c1.BulkInsert("acct", cols, row(1)); err != nil || n != 1 {
		t.Fatalf("first connection bulk insert = %d, %v", n, err)
	}

	c2, err := Dial(env.addr, cfg, shared)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n, err := c2.BulkInsert("acct", cols, row(2)); err != nil || n != 1 {
		t.Fatalf("second connection's first operation, a bulk insert = %d, %v", n, err)
	}
	if c2.DescribeCalls != 1 {
		t.Fatalf("second connection describe calls = %d, want 1 (cache hit, rejection, one fresh describe)", c2.DescribeCalls)
	}
	rows := mustExec(t, c2, "SELECT bal FROM acct WHERE bal >= @lo", map[string]sqltypes.Value{"lo": sqltypes.Int(0)})
	if len(rows.Values) != 2 {
		t.Fatalf("rows after both loads = %d, want 2", len(rows.Values))
	}
}
