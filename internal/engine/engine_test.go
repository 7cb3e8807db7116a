package engine

import (
	"bytes"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/exprsvc"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// testEnv is a full server-plus-trusted-client fixture: engine, enclave,
// HGS, vault, provisioned keys, and a client emulation that performs the
// driver's half of the protocols (attestation, CEK install, parameter
// encryption).
type testEnv struct {
	t         testing.TB
	engine    *Engine
	store     *storage.MemStore
	encl      *enclave.Enclave
	host      *attestation.Host
	hgs       *attestation.HGS
	vault     *keys.MemoryVault
	author    *attestation.Measurement
	authorKey *rsa.PrivateKey
	session   *Session

	// client-side secrets
	cekRoots map[string][]byte
	cellKeys map[string]*aecrypto.CellKey
	secret   [32]byte
	nonce    uint64
	policy   attestation.Policy
}

func newTestEnv(t testing.TB, ctr bool) *testEnv {
	t.Helper()
	env := &testEnv{t: t, cekRoots: map[string][]byte{}, cellKeys: map[string]*aecrypto.CellKey{}}

	authorKey, err := aecrypto.GenerateRSAKey()
	if err != nil {
		t.Fatal(err)
	}
	env.authorKey = authorKey
	image, err := enclave.SignImage(authorKey, []byte("es-enclave"), 2)
	if err != nil {
		t.Fatal(err)
	}
	env.encl, err = enclave.Load(image, 10, enclave.Options{
		Threads: 2, SpinDuration: 2 * time.Microsecond, CrossingCost: 50 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.encl.Close)

	env.hgs, err = attestation.NewHGS()
	if err != nil {
		t.Fatal(err)
	}
	tcg := []byte("test-host-boot")
	env.host, err = attestation.NewHost(tcg, 10)
	if err != nil {
		t.Fatal(err)
	}
	env.hgs.RegisterHost(tcg)
	id := image.AuthorID()
	env.author = &id
	env.policy = attestation.Policy{
		HGSKey:            env.hgs.SigningKey(),
		TrustedAuthorIDs:  []attestation.Measurement{id},
		MinEnclaveVersion: 2,
		MinHostVersion:    10,
	}

	env.store = storage.NewMemStore()
	env.engine = New(Config{Enclave: env.encl, Host: env.host, HGS: env.hgs, CTR: ctr, Store: env.store})
	env.session = env.engine.NewSession()

	env.vault = keys.NewMemoryVault(keys.ProviderVault)
	return env
}

// mustExec runs a statement expecting success.
func (env *testEnv) mustExec(query string, params Params) *ResultSet {
	env.t.Helper()
	rs, err := env.session.Execute(query, params)
	if err != nil {
		env.t.Fatalf("exec %q: %v", query, err)
	}
	return rs
}

// provisionKeys creates a CMK in the vault and registers CMK + CEK metadata
// through SQL DDL, as the client tooling of §2.4.1 would.
func (env *testEnv) provisionKeys(cmkName, cekName string, enclaveEnabled bool) {
	env.t.Helper()
	path := "https://vault.test/keys/" + cmkName
	if _, err := env.vault.CreateKey(path); err != nil {
		env.t.Fatal(err)
	}
	cmk, err := keys.ProvisionCMK(env.vault, cmkName, path, enclaveEnabled)
	if err != nil {
		env.t.Fatal(err)
	}
	cek, root, err := keys.ProvisionCEK(env.vault, cmk, cekName)
	if err != nil {
		env.t.Fatal(err)
	}
	env.cekRoots[cekName] = root
	env.cellKeys[cekName] = aecrypto.MustCellKey(root)

	enclClause := ""
	if enclaveEnabled {
		enclClause = fmt.Sprintf(", ENCLAVE_COMPUTATIONS (SIGNATURE = 0x%x)", cmk.Signature)
	}
	env.mustExec(fmt.Sprintf(
		"CREATE COLUMN MASTER KEY %s WITH (KEY_STORE_PROVIDER_NAME = '%s', KEY_PATH = '%s'%s)",
		cmkName, keys.ProviderVault, path, enclClause), nil)
	val := cek.PrimaryValue()
	env.mustExec(fmt.Sprintf(
		"CREATE COLUMN ENCRYPTION KEY %s WITH VALUES (COLUMN_MASTER_KEY = %s, ALGORITHM = 'RSA_OAEP', ENCRYPTED_VALUE = 0x%s, SIGNATURE = 0x%s)",
		cekName, cmkName, hex.EncodeToString(val.EncryptedValue), hex.EncodeToString(val.Signature)), nil)
}

// attest performs the client side of attestation for a query that needs the
// enclave, deriving the shared secret and verifying the §4.2 chain.
func (env *testEnv) attest(query string) *DescribeResult {
	env.t.Helper()
	dh, err := attestation.NewClientDH()
	if err != nil {
		env.t.Fatal(err)
	}
	desc, info, _, err := env.session.DescribeWithAttestation(query, dh.PublicKey().Bytes())
	if err != nil {
		env.t.Fatalf("describe %q: %v", query, err)
	}
	if info == nil {
		env.t.Fatalf("no attestation info for enclave query %q", query)
	}
	secret, err := env.policy.Verify(info, dh)
	if err != nil {
		env.t.Fatalf("attestation verify: %v", err)
	}
	env.secret = secret
	return desc
}

// cekInstaller attests a fresh session and returns a function that ships
// the named CEK to the enclave through it, as each pooled connection of a
// client does.
func (env *testEnv) cekInstaller(name string) func() error {
	env.t.Helper()
	sess := env.engine.NewSession()
	dh, err := attestation.NewClientDH()
	if err != nil {
		env.t.Fatal(err)
	}
	_, info, _, err := sess.DescribeWithAttestation("SELECT * FROM T WHERE value = @v", dh.PublicKey().Bytes())
	if err != nil {
		env.t.Fatal(err)
	}
	secret, err := env.policy.Verify(info, dh)
	if err != nil {
		env.t.Fatal(err)
	}
	var nonce uint64
	return func() error {
		nonce++
		sealed, err := enclave.SealForSession(secret, nonce, "cek:"+name, env.cekRoots[name])
		if err != nil {
			return err
		}
		return sess.InstallCEK(name, nonce, sealed)
	}
}

// installCEKs ships the named CEKs to the enclave over the secure channel.
func (env *testEnv) installCEKs(names ...string) {
	env.t.Helper()
	for _, name := range names {
		env.nonce++
		sealed, err := enclave.SealForSession(env.secret, env.nonce, "cek:"+name, env.cekRoots[name])
		if err != nil {
			env.t.Fatal(err)
		}
		if err := env.session.InstallCEK(name, env.nonce, sealed); err != nil {
			env.t.Fatalf("install CEK %s: %v", name, err)
		}
	}
}

// authorizeDDL seals the statement hash for the session (§3.2).
func (env *testEnv) authorizeDDL(stmtText string) {
	env.t.Helper()
	h := sha256.Sum256([]byte(stmtText))
	env.nonce++
	sealed, err := enclave.SealForSession(env.secret, env.nonce, "authorize-ddl", h[:])
	if err != nil {
		env.t.Fatal(err)
	}
	if err := env.session.AuthorizeStatement(env.nonce, sealed); err != nil {
		env.t.Fatal(err)
	}
}

// enc encrypts a value as the driver would for a parameter or stored cell.
func (env *testEnv) enc(cek string, v sqltypes.Value, typ aecrypto.EncryptionType) []byte {
	env.t.Helper()
	ct, err := env.cellKeys[cek].Encrypt(v.Encode(), typ)
	if err != nil {
		env.t.Fatal(err)
	}
	return ct
}

// dec decrypts a result cell.
func (env *testEnv) dec(cek string, ct []byte) sqltypes.Value {
	env.t.Helper()
	pt, err := env.cellKeys[cek].Decrypt(ct)
	if err != nil {
		env.t.Fatalf("decrypt: %v", err)
	}
	v, err := sqltypes.Decode(pt)
	if err != nil {
		env.t.Fatal(err)
	}
	return v
}

func intParam(v int64) []byte     { return sqltypes.Int(v).Encode() }
func strParam(s string) []byte    { return sqltypes.Str(s).Encode() }
func floatParam(f float64) []byte { return sqltypes.Float(f).Encode() }

// --- basic plaintext SQL ---

func TestPlaintextCRUD(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE accounts (id int PRIMARY KEY, balance float, owner varchar(30))", nil)
	for i := int64(1); i <= 10; i++ {
		env.mustExec("INSERT INTO accounts (id, balance, owner) VALUES (@id, @b, @o)", Params{
			"id": intParam(i), "b": floatParam(float64(i) * 100), "o": strParam(fmt.Sprintf("owner-%d", i)),
		})
	}
	rs := env.mustExec("SELECT id, balance FROM accounts WHERE id = @id", Params{"id": intParam(3)})
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	v, _ := sqltypes.Decode(rs.Rows[0][1])
	if v.F != 300 {
		t.Fatalf("balance = %v", v)
	}

	rs = env.mustExec("SELECT id FROM accounts WHERE balance > @b", Params{"b": floatParam(750)})
	if len(rs.Rows) != 3 {
		t.Fatalf("range rows = %d", len(rs.Rows))
	}

	rs = env.mustExec("UPDATE accounts SET balance = balance + @d WHERE id = @id",
		Params{"d": floatParam(50), "id": intParam(3)})
	if rs.Affected != 1 {
		t.Fatalf("affected = %d", rs.Affected)
	}
	rs = env.mustExec("SELECT balance FROM accounts WHERE id = @id", Params{"id": intParam(3)})
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.F != 350 {
		t.Fatalf("after update: %v", v)
	}

	rs = env.mustExec("DELETE FROM accounts WHERE id = @id", Params{"id": intParam(3)})
	if rs.Affected != 1 {
		t.Fatal("delete failed")
	}
	rs = env.mustExec("SELECT COUNT(*) FROM accounts", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 9 {
		t.Fatalf("count = %v", v)
	}
}

func TestPrimaryKeyUniqueViolation(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE t (id int PRIMARY KEY, v int)", nil)
	env.mustExec("INSERT INTO t (id, v) VALUES (@id, @v)", Params{"id": intParam(1), "v": intParam(1)})
	_, err := env.session.Execute("INSERT INTO t (id, v) VALUES (@id, @v)",
		Params{"id": intParam(1), "v": intParam(2)})
	if err == nil {
		t.Fatal("duplicate PK accepted")
	}
	// The failed insert must not leave a partial row behind.
	rs := env.mustExec("SELECT COUNT(*) FROM t", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 1 {
		t.Fatalf("count = %v", v)
	}
}

func TestAggregates(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE m (id int PRIMARY KEY, grp int, val float)", nil)
	for i := int64(1); i <= 6; i++ {
		env.mustExec("INSERT INTO m (id, grp, val) VALUES (@i, @g, @v)", Params{
			"i": intParam(i), "g": intParam(i % 2), "v": floatParam(float64(i)),
		})
	}
	rs := env.mustExec("SELECT COUNT(*), MIN(val), MAX(val), SUM(val), COUNT(DISTINCT grp) FROM m", nil)
	vals := make([]sqltypes.Value, 5)
	for i := range vals {
		vals[i], _ = sqltypes.Decode(rs.Rows[0][i])
	}
	if vals[0].I != 6 || vals[1].F != 1 || vals[2].F != 6 || vals[3].F != 21 || vals[4].I != 2 {
		t.Fatalf("aggs = %v", vals)
	}
}

func TestJoinPlaintext(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE dept (id int PRIMARY KEY, dname varchar(20))", nil)
	env.mustExec("CREATE TABLE emp (eid int PRIMARY KEY, did int, ename varchar(20))", nil)
	for i := int64(1); i <= 3; i++ {
		env.mustExec("INSERT INTO dept (id, dname) VALUES (@i, @n)",
			Params{"i": intParam(i), "n": strParam(fmt.Sprintf("dept-%d", i))})
	}
	for i := int64(1); i <= 9; i++ {
		env.mustExec("INSERT INTO emp (eid, did, ename) VALUES (@e, @d, @n)",
			Params{"e": intParam(i), "d": intParam(i%3 + 1), "n": strParam(fmt.Sprintf("emp-%d", i))})
	}
	rs := env.mustExec("SELECT emp.ename, dept.dname FROM emp JOIN dept ON emp.did = dept.id WHERE dept.id = @d",
		Params{"d": intParam(2)})
	if len(rs.Rows) != 3 {
		t.Fatalf("join rows = %d", len(rs.Rows))
	}
	for _, row := range rs.Rows {
		d, _ := sqltypes.Decode(row[1])
		if d.S != "dept-2" {
			t.Fatalf("wrong dept: %v", d)
		}
	}
}

func TestTransactionsCommitRollback(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE t (id int PRIMARY KEY, v int)", nil)
	env.mustExec("INSERT INTO t (id, v) VALUES (@i, @v)", Params{"i": intParam(1), "v": intParam(10)})

	env.mustExec("BEGIN TRANSACTION", nil)
	env.mustExec("UPDATE t SET v = @v WHERE id = @i", Params{"v": intParam(99), "i": intParam(1)})
	env.mustExec("INSERT INTO t (id, v) VALUES (@i, @v)", Params{"i": intParam(2), "v": intParam(20)})
	env.mustExec("ROLLBACK", nil)

	rs := env.mustExec("SELECT v FROM t WHERE id = @i", Params{"i": intParam(1)})
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 10 {
		t.Fatalf("rollback lost: v = %v", v)
	}
	rs = env.mustExec("SELECT COUNT(*) FROM t", nil)
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 1 {
		t.Fatalf("rolled-back insert visible: count = %v", v)
	}

	env.mustExec("BEGIN TRANSACTION", nil)
	env.mustExec("UPDATE t SET v = @v WHERE id = @i", Params{"v": intParam(42), "i": intParam(1)})
	env.mustExec("COMMIT", nil)
	rs = env.mustExec("SELECT v FROM t WHERE id = @i", Params{"i": intParam(1)})
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 42 {
		t.Fatalf("commit lost: v = %v", v)
	}
}

func TestWriteLocksPreventLostUpdates(t *testing.T) {
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE c (id int PRIMARY KEY, n int)", nil)
	env.mustExec("INSERT INTO c (id, n) VALUES (@i, @n)", Params{"i": intParam(1), "n": intParam(0)})

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			s := env.engine.NewSession()
			for i := 0; i < 25; i++ {
				if _, err := s.Execute("UPDATE c SET n = n + @d WHERE id = @i",
					Params{"d": intParam(1), "i": intParam(1)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	rs := env.mustExec("SELECT n FROM c WHERE id = @i", Params{"i": intParam(1)})
	if v, _ := sqltypes.Decode(rs.Rows[0][0]); v.I != 200 {
		t.Fatalf("n = %v (lost updates)", v)
	}
}

// --- DET (AEv1) behaviour ---

func TestDETEqualityQueries(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", false) // enclave-disabled: pure AEv1
	env.mustExec(`CREATE TABLE customers (id int PRIMARY KEY,
		ssn varchar(11) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)

	// The driver-side: encrypt parameters deterministically.
	ssns := []string{"111-11-1111", "222-22-2222", "111-11-1111"}
	for i, ssn := range ssns {
		env.mustExec("INSERT INTO customers (id, ssn) VALUES (@id, @ssn)", Params{
			"id": intParam(int64(i + 1)), "ssn": env.enc("CEK1", sqltypes.Str(ssn), aecrypto.Deterministic),
		})
	}
	// Point lookup over ciphertext equality.
	rs := env.mustExec("SELECT id FROM customers WHERE ssn = @s",
		Params{"s": env.enc("CEK1", sqltypes.Str("111-11-1111"), aecrypto.Deterministic)})
	if len(rs.Rows) != 2 {
		t.Fatalf("DET equality rows = %d", len(rs.Rows))
	}
	// The server-side bytes must be ciphertext, not the plaintext encoding.
	rsAll := env.mustExec("SELECT ssn FROM customers WHERE id = @i", Params{"i": intParam(1)})
	stored := rsAll.Rows[0][0]
	if bytes.Equal(stored, sqltypes.Str("111-11-1111").Encode()) {
		t.Fatal("SSN stored in plaintext!")
	}
	if got := env.dec("CEK1", stored); got.S != "111-11-1111" {
		t.Fatalf("decrypted = %v", got)
	}
}

func TestDETRangeRejectedAndRNDWithoutEnclaveRejected(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", false)
	env.mustExec(`CREATE TABLE t (id int PRIMARY KEY,
		d varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'),
		r varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)

	if _, err := env.session.Execute("SELECT id FROM t WHERE d < @v", Params{"v": []byte{1}}); !errors.Is(err, sqltypes.ErrTypeConflict) {
		t.Fatalf("range over DET: %v", err)
	}
	if _, err := env.session.Execute("SELECT id FROM t WHERE r = @v", Params{"v": []byte{1}}); !errors.Is(err, sqltypes.ErrTypeConflict) {
		t.Fatalf("equality over enclave-disabled RND: %v", err)
	}
	// Fetching an enclave-disabled RND column in the SELECT list is fine.
	if _, err := env.session.Execute("SELECT r FROM t WHERE id = @i", Params{"i": intParam(1)}); err != nil {
		t.Fatalf("projection of RND column: %v", err)
	}
}

func TestLiteralAgainstEncryptedRejected(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", false)
	env.mustExec(`CREATE TABLE t (id int PRIMARY KEY,
		d varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	if _, err := env.session.Execute("SELECT id FROM t WHERE d = 'plain'", nil); !errors.Is(err, exprsvc.ErrNotParameterized) {
		t.Fatalf("literal vs encrypted: %v", err)
	}
}

func TestDescribeParameterEncryption(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", true)
	env.mustExec(`CREATE TABLE T (id int PRIMARY KEY,
		value int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)

	// Example 4.1: the describe output says @v is RND under CEK1 and CEK1
	// must go to the enclave.
	desc, err := env.engine.Describe("SELECT * FROM T WHERE value = @v")
	if err != nil {
		t.Fatal(err)
	}
	if len(desc.Params) != 1 || desc.Params[0].Name != "v" {
		t.Fatalf("params = %+v", desc.Params)
	}
	enc := desc.Params[0].Enc
	if enc.Scheme != sqltypes.SchemeRandomized || enc.CEKName != "CEK1" || !enc.EnclaveEnabled {
		t.Fatalf("param enc = %+v", enc)
	}
	if !desc.NeedsEnclave || len(desc.EnclaveCEKs) != 1 || desc.EnclaveCEKs[0] != "CEK1" {
		t.Fatalf("enclave: %v %v", desc.NeedsEnclave, desc.EnclaveCEKs)
	}
	if _, ok := desc.CEKs["CEK1"]; !ok {
		t.Fatal("CEK metadata missing")
	}
	if _, ok := desc.CMKs["CMK1"]; !ok {
		t.Fatal("CMK metadata missing")
	}
	// Plaintext parameter on a plaintext column: no enclave, no encryption.
	desc, err = env.engine.Describe("SELECT * FROM T WHERE id = @i")
	if err != nil {
		t.Fatal(err)
	}
	if desc.NeedsEnclave || !desc.Params[0].Enc.IsPlaintext() {
		t.Fatalf("plaintext describe = %+v", desc)
	}
}

// --- enclave-backed (AEv2) behaviour ---

// setupRNDTable provisions an enclave-enabled RND column, attests and
// installs keys, returning the env.
func setupRNDTable(t testing.TB, ctr bool) *testEnv {
	env := newTestEnv(t, ctr)
	env.provisionKeys("CMK1", "CEK1", true)
	env.mustExec(`CREATE TABLE T (id int PRIMARY KEY,
		value int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	env.attest("SELECT * FROM T WHERE value = @v")
	env.installCEKs("CEK1")
	return env
}

func TestEnclaveEqualityOverRND(t *testing.T) {
	env := setupRNDTable(t, false)
	for i := int64(1); i <= 20; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@id, @v)", Params{
			"id": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i%5), aecrypto.Randomized),
		})
	}
	rs := env.mustExec("SELECT id FROM T WHERE value = @v",
		Params{"v": env.enc("CEK1", sqltypes.Int(3), aecrypto.Randomized)})
	if len(rs.Rows) != 4 {
		t.Fatalf("RND equality rows = %d", len(rs.Rows))
	}
	evals := env.encl.Dump().Evaluations
	if evals == 0 {
		t.Fatal("no enclave evaluations recorded")
	}
}

func TestEnclaveRangeAndBetween(t *testing.T) {
	env := setupRNDTable(t, false)
	for i := int64(1); i <= 20; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@id, @v)", Params{
			"id": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i), aecrypto.Randomized),
		})
	}
	rs := env.mustExec("SELECT id FROM T WHERE value > @lo",
		Params{"lo": env.enc("CEK1", sqltypes.Int(15), aecrypto.Randomized)})
	if len(rs.Rows) != 5 {
		t.Fatalf("> rows = %d", len(rs.Rows))
	}
	rs = env.mustExec("SELECT id FROM T WHERE value BETWEEN @lo AND @hi", Params{
		"lo": env.enc("CEK1", sqltypes.Int(5), aecrypto.Randomized),
		"hi": env.enc("CEK1", sqltypes.Int(8), aecrypto.Randomized),
	})
	if len(rs.Rows) != 4 {
		t.Fatalf("between rows = %d", len(rs.Rows))
	}
}

func TestEnclaveLikeOverRND(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", true)
	env.mustExec(`CREATE TABLE people (id int PRIMARY KEY,
		name varchar(30) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	env.attest("SELECT id FROM people WHERE name LIKE @p")
	env.installCEKs("CEK1")
	for i, name := range []string{"SMITH", "SMYTHE", "JONES", "SMALL"} {
		env.mustExec("INSERT INTO people (id, name) VALUES (@id, @n)", Params{
			"id": intParam(int64(i + 1)), "n": env.enc("CEK1", sqltypes.Str(name), aecrypto.Randomized),
		})
	}
	rs := env.mustExec("SELECT id FROM people WHERE name LIKE @p",
		Params{"p": env.enc("CEK1", sqltypes.Str("SM%"), aecrypto.Randomized)})
	if len(rs.Rows) != 3 {
		t.Fatalf("LIKE rows = %d", len(rs.Rows))
	}
}

func TestRangeIndexOnRNDColumn(t *testing.T) {
	env := setupRNDTable(t, false)
	env.mustExec("CREATE INDEX ix_value ON T (value)", nil) // enclave-ordered build
	for i := int64(1); i <= 50; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@id, @v)", Params{
			"id": intParam(i), "v": env.enc("CEK1", sqltypes.Int(100-i), aecrypto.Randomized),
		})
	}
	scansBefore, seeksBefore, _ := env.engine.Stats()
	rs := env.mustExec("SELECT id FROM T WHERE value BETWEEN @lo AND @hi", Params{
		"lo": env.enc("CEK1", sqltypes.Int(60), aecrypto.Randomized),
		"hi": env.enc("CEK1", sqltypes.Int(70), aecrypto.Randomized),
	})
	scansAfter, seeksAfter, _ := env.engine.Stats()
	if len(rs.Rows) != 11 {
		t.Fatalf("indexed range rows = %d", len(rs.Rows))
	}
	if seeksAfter == seeksBefore {
		t.Fatal("range query did not use the index")
	}
	if scansAfter != scansBefore {
		t.Fatal("range query fell back to a scan")
	}
}

func TestEqualityIndexOnDETColumn(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", false)
	env.mustExec(`CREATE TABLE t (id int PRIMARY KEY,
		d varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	env.mustExec("CREATE INDEX ix_d ON t (d)", nil)
	for i := int64(1); i <= 30; i++ {
		env.mustExec("INSERT INTO t (id, d) VALUES (@id, @d)", Params{
			"id": intParam(i), "d": env.enc("CEK1", sqltypes.Str(fmt.Sprintf("v%d", i%3)), aecrypto.Deterministic),
		})
	}
	_, seeksBefore, _ := env.engine.Stats()
	rs := env.mustExec("SELECT id FROM t WHERE d = @d",
		Params{"d": env.enc("CEK1", sqltypes.Str("v1"), aecrypto.Deterministic)})
	_, seeksAfter, _ := env.engine.Stats()
	if len(rs.Rows) != 10 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if seeksAfter == seeksBefore {
		t.Fatal("DET equality did not use the equality index")
	}
}

func TestClusteredIndexOnEncryptedRejected(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", true)
	env.mustExec(`CREATE TABLE t (id int PRIMARY KEY,
		r int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	if _, err := env.session.Execute("CREATE CLUSTERED INDEX cx ON t (r)", nil); err == nil {
		t.Fatal("clustered index on encrypted column accepted (§4.5 forbids)")
	}
}

// TestMixedCompositeIndex models CUSTOMER_NC1: plaintext + encrypted
// components in one index, seeks using the plaintext prefix plus
// enclave-compared encrypted component.
func TestMixedCompositeIndex(t *testing.T) {
	env := newTestEnv(t, false)
	env.provisionKeys("CMK1", "CEK1", true)
	env.mustExec(`CREATE TABLE customer (c_w_id int, c_d_id int, c_id int PRIMARY KEY,
		c_last varchar(16) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	env.attest("SELECT c_id FROM customer WHERE c_last = @l")
	env.installCEKs("CEK1")
	env.mustExec("CREATE NONCLUSTERED INDEX customer_nc1 ON customer (c_w_id, c_d_id, c_last)", nil)

	lasts := []string{"BARBARBAR", "BARBAROUGHT", "BARBARABLE", "BARBARBAR"}
	id := int64(1)
	for w := int64(1); w <= 2; w++ {
		for _, last := range lasts {
			env.mustExec("INSERT INTO customer (c_w_id, c_d_id, c_id, c_last) VALUES (@w, @d, @id, @l)", Params{
				"w": intParam(w), "d": intParam(1), "id": intParam(id),
				"l": env.enc("CEK1", sqltypes.Str(last), aecrypto.Randomized),
			})
			id++
		}
	}
	_, seeksBefore, _ := env.engine.Stats()
	rs := env.mustExec("SELECT c_id FROM customer WHERE c_w_id = @w AND c_d_id = @d AND c_last = @l", Params{
		"w": intParam(1), "d": intParam(1),
		"l": env.enc("CEK1", sqltypes.Str("BARBARBAR"), aecrypto.Randomized),
	})
	_, seeksAfter, _ := env.engine.Stats()
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if seeksAfter == seeksBefore {
		t.Fatal("composite seek not used")
	}
}
