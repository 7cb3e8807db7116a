package engine

import (
	"errors"
	"fmt"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// TestDETEquiJoinAcrossTables: §2.4.3 — equi-joins over deterministically
// encrypted columns, both under the same CEK, compare ciphertext to
// ciphertext on the host.
func TestDETEquiJoinAcrossTables(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", false)
	enc := " ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	env.mustExec("CREATE TABLE patients (pid int PRIMARY KEY, ssn varchar(11)"+enc+")", nil)
	env.mustExec("CREATE TABLE claims (cid int PRIMARY KEY, claim_ssn varchar(11)"+enc+", amount float)", nil)

	ssn := func(i int64) []byte {
		return env.enc("CEK1", sqltypes.Str(fmt.Sprintf("%03d-00-0000", i)), aecrypto.Deterministic)
	}
	for i := int64(1); i <= 5; i++ {
		env.mustExec("INSERT INTO patients (pid, ssn) VALUES (@p, @s)",
			Params{"p": intParam(i), "s": ssn(i)})
	}
	for i := int64(1); i <= 10; i++ {
		env.mustExec("INSERT INTO claims (cid, claim_ssn, amount) VALUES (@c, @s, @a)",
			Params{"c": intParam(i), "s": ssn(i%5 + 1), "a": floatParam(float64(i) * 10)})
	}

	rs := env.mustExec(
		"SELECT patients.pid, claims.amount FROM patients JOIN claims ON patients.ssn = claims.claim_ssn WHERE patients.pid = @p",
		Params{"p": intParam(2)})
	if len(rs.Rows) != 2 {
		t.Fatalf("join rows = %d", len(rs.Rows))
	}
	if evals := env.encl.Dump().Evaluations; evals != 0 {
		t.Fatalf("DET equi-join used the enclave (%d evals)", evals)
	}
}

// TestCrossCEKJoinRejectedAtBind: joining DET columns under different CEKs
// must fail type deduction.
func TestCrossCEKJoinRejectedAtBind(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", false)
	env.provisionKeys("CMK2", "CEK2", false)
	env.mustExec("CREATE TABLE a (id int PRIMARY KEY, k varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))", nil)
	env.mustExec("CREATE TABLE b (id int PRIMARY KEY, k varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK2, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))", nil)
	_, err := env.session.Execute("SELECT a.id FROM a JOIN b ON a.k = b.k", nil)
	if !errors.Is(err, sqltypes.ErrTypeConflict) {
		t.Fatalf("cross-CEK join: %v", err)
	}
}

func TestSelectLimitAndNotNull(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE t (id int PRIMARY KEY, v int)", nil)
	for i := int64(1); i <= 10; i++ {
		p := Params{"i": intParam(i), "v": intParam(i)}
		if i%3 == 0 {
			p["v"] = nil
		}
		env.mustExec("INSERT INTO t (id, v) VALUES (@i, @v)", p)
	}
	rs := env.mustExec("SELECT id FROM t WHERE v IS NOT NULL LIMIT 4", nil)
	if len(rs.Rows) != 4 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	rs = env.mustExec("SELECT COUNT(v) FROM t", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 7 {
		t.Fatalf("COUNT(v) = %v (NULLs must not count)", v)
	}
}

// TestPlanCacheReuse: the same query text binds once; deduction results are
// cached with the plan (§4.3).
func TestPlanCacheReuse(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE t (id int PRIMARY KEY, v int)", nil)
	q := "SELECT v FROM t WHERE id = @i"
	p1, err := env.engine.getPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := env.engine.getPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("plan not cached")
	}
	// DDL invalidates the cache.
	env.mustExec("CREATE TABLE t2 (id int PRIMARY KEY)", nil)
	p3, err := env.engine.getPlan(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("plan cache not invalidated by DDL")
	}
}

// TestMissingParameterErrors: executing with an unbound parameter fails
// cleanly rather than treating it as NULL.
func TestMissingParameterErrors(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE t (id int PRIMARY KEY, v int)", nil)
	if _, err := env.session.Execute("INSERT INTO t (id, v) VALUES (@i, @v)",
		Params{"i": intParam(1)}); !errors.Is(err, ErrUnknownParam) {
		t.Fatalf("err = %v", err)
	}
}

// TestNotNullEnforced: NULL into a NOT NULL column aborts the statement.
func TestNotNullEnforced(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE t (id int PRIMARY KEY, v int NOT NULL)", nil)
	if _, err := env.session.Execute("INSERT INTO t (id, v) VALUES (@i, @v)",
		Params{"i": intParam(1), "v": nil}); !errors.Is(err, ErrNotNull) {
		t.Fatalf("err = %v", err)
	}
	rs := env.mustExec("SELECT COUNT(*) FROM t", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 0 {
		t.Fatal("partial insert survived")
	}
}

// TestUpdateMovesIndexEntries: updating an indexed column fixes up the index.
func TestUpdateMovesIndexEntries(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE t (id int PRIMARY KEY, v int)", nil)
	env.mustExec("CREATE INDEX ix_v ON t (v)", nil)
	env.mustExec("INSERT INTO t (id, v) VALUES (@i, @v)", Params{"i": intParam(1), "v": intParam(10)})
	env.mustExec("UPDATE t SET v = @v WHERE id = @i", Params{"v": intParam(99), "i": intParam(1)})
	rs := env.mustExec("SELECT id FROM t WHERE v = @v", Params{"v": intParam(99)})
	if len(rs.Rows) != 1 {
		t.Fatal("new index entry missing")
	}
	rs = env.mustExec("SELECT id FROM t WHERE v = @v", Params{"v": intParam(10)})
	if len(rs.Rows) != 0 {
		t.Fatal("stale index entry visible")
	}
}

// TestGarbageCiphertextParameterFails: the enclave rejects ciphertext that
// fails HMAC validation (the §2.3 usability property — garbage can't be
// silently compared).
func TestGarbageCiphertextParameterFails(t *testing.T) {
	env := setupRNDTable(t, false)
	env.mustExec("INSERT INTO T (id, value) VALUES (@id, @v)", Params{
		"id": intParam(1), "v": env.enc("CEK1", sqltypes.Int(1), aecrypto.Randomized)})
	garbage := make([]byte, 65)
	garbage[0] = 0x01
	if _, err := env.session.Execute("SELECT id FROM T WHERE value = @v",
		Params{"v": garbage}); err == nil {
		t.Fatal("garbage ciphertext accepted")
	}
}

// TestSelectStarWithJoinProjectsBothTables.
func TestSelectStarWithJoinProjectsBothTables(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE l (id int PRIMARY KEY, x int)", nil)
	env.mustExec("CREATE TABLE r (rid int PRIMARY KEY, lid int, y int)", nil)
	env.mustExec("INSERT INTO l (id, x) VALUES (@a, @b)", Params{"a": intParam(1), "b": intParam(10)})
	env.mustExec("INSERT INTO r (rid, lid, y) VALUES (@a, @b, @c)",
		Params{"a": intParam(7), "b": intParam(1), "c": intParam(20)})
	rs := env.mustExec("SELECT * FROM l JOIN r ON l.id = r.lid", nil)
	if len(rs.Columns) != 5 {
		t.Fatalf("columns = %d", len(rs.Columns))
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
}

// TestAmbiguousColumnRejected.
func TestAmbiguousColumnRejected(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE l (id int PRIMARY KEY, v int)", nil)
	env.mustExec("CREATE TABLE r (rid int PRIMARY KEY, v int, lid int)", nil)
	if _, err := env.session.Execute("SELECT v FROM l JOIN r ON l.id = r.lid", nil); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("err = %v", err)
	}
}

// TestLikePrefixUsesIndex: a literal prefix LIKE pattern on an indexed
// plaintext column seeks the index instead of scanning (Figure 5's "LIKE
// predicate using an index").
func TestLikePrefixUsesIndex(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE n (id int PRIMARY KEY, name varchar(20))", nil)
	env.mustExec("CREATE INDEX ix_name ON n (name)", nil)
	names := []string{"SMITH", "SMYTHE", "SMALL", "JONES", "BROWN", "SMITHSON"}
	for i, name := range names {
		env.mustExec("INSERT INTO n (id, name) VALUES (@i, @n)",
			Params{"i": intParam(int64(i + 1)), "n": strParam(name)})
	}
	scansBefore, seeksBefore, _ := env.engine.Stats()
	rs := env.mustExec("SELECT id FROM n WHERE name LIKE 'SMI%'", nil)
	scansAfter, seeksAfter, _ := env.engine.Stats()
	if len(rs.Rows) != 2 { // SMITH, SMITHSON
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if seeksAfter == seeksBefore {
		t.Fatal("prefix LIKE did not seek the index")
	}
	if scansAfter != scansBefore {
		t.Fatal("prefix LIKE fell back to a scan")
	}
	// Non-prefix patterns still scan (and still answer correctly).
	rs = env.mustExec("SELECT id FROM n WHERE name LIKE '%THE'", nil)
	if len(rs.Rows) != 1 { // SMYTHE
		t.Fatalf("suffix rows = %d", len(rs.Rows))
	}
	// Case-insensitive collation applies on the index path too.
	rs = env.mustExec("SELECT id FROM n WHERE name LIKE 'smi%'", nil)
	if len(rs.Rows) != 2 {
		t.Fatalf("folded rows = %d", len(rs.Rows))
	}

	// The seek bounds the collated text alone: rows differing from the
	// prefix only in case, or continuing it past the ASCII range, match
	// through the index exactly as through a heap scan.
	for i, name := range []string{"abc", "abcd", "ABCD", "ABC", "Abc", "abc😀", "abd", "ab"} {
		env.mustExec("INSERT INTO n (id, name) VALUES (@i, @n)",
			Params{"i": intParam(int64(100 + i)), "n": strParam(name)})
	}
	scansBefore, seeksBefore, _ = env.engine.Stats()
	rs = env.mustExec("SELECT id FROM n WHERE name LIKE 'abc%'", nil)
	scansAfter, seeksAfter, _ = env.engine.Stats()
	if len(rs.Rows) != 6 {
		t.Fatalf("abc%% rows through the index = %d, want the scan's 6", len(rs.Rows))
	}
	if seeksAfter == seeksBefore || scansAfter != scansBefore {
		t.Fatal("collated prefix LIKE did not seek the index")
	}
}
