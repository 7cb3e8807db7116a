package driver

import (
	"bytes"
	"sync"
	"testing"

	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/tds"
)

// TestWireCarriesOnlyCiphertext puts the §2.6 strong adversary on the wire:
// a tap records every TDS message, and neither encrypted parameter values
// nor encrypted result cells may contain the plaintext. This is the
// end-to-end "encrypted in transit" guarantee of §1.1.
func TestWireCarriesOnlyCiphertext(t *testing.T) {
	env := newServerEnv(t)
	env.provision("CMK1", "CEK1", true)

	var mu sync.Mutex
	var observed [][]byte // every byte slice an adversary could grab
	env.server.Tap = func(dir string, msg any) {
		mu.Lock()
		defer mu.Unlock()
		switch m := msg.(type) {
		case *tds.Request:
			if m.Exec != nil {
				for _, v := range m.Exec.Params {
					observed = append(observed, append([]byte(nil), v...))
				}
			}
		case *tds.Response:
			if m.Result != nil {
				for _, row := range m.Result.Rows {
					for _, cell := range row {
						observed = append(observed, append([]byte(nil), cell...))
					}
				}
			}
		}
	}

	admin := env.dial(Config{})
	mustExec(t, admin, `CREATE TABLE w (id int PRIMARY KEY,
		secret varchar(40) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	c := env.dial(Config{AlwaysEncrypted: true})

	const secret = "EXTREMELY-SENSITIVE-PLAINTEXT"
	mustExec(t, c, "INSERT INTO w (id, secret) VALUES (@i, @s)",
		map[string]sqltypes.Value{"i": sqltypes.Int(1), "s": sqltypes.Str(secret)})
	rows := mustExec(t, c, "SELECT secret FROM w WHERE secret = @s",
		map[string]sqltypes.Value{"s": sqltypes.Str(secret)})
	if rows.Values[0][0].S != secret {
		t.Fatalf("application view broken: %v", rows.Values[0][0])
	}

	mu.Lock()
	defer mu.Unlock()
	if len(observed) == 0 {
		t.Fatal("tap observed nothing")
	}
	needle := []byte(secret)
	for i, b := range observed {
		if bytes.Contains(b, needle) {
			t.Fatalf("plaintext secret visible on the wire in message %d", i)
		}
	}
}

// TestWireSharedSealerParams: one statement seals several parameters under
// one column encryption key — one sealer serves them all — and every one
// still leaves as ciphertext: no plaintext on the wire, two equal RND values
// under fresh IVs, and a DET value matching the one sealed by a separate
// statement.
func TestWireSharedSealerParams(t *testing.T) {
	env := newServerEnv(t)
	env.provision("CMK1", "CEK1", true)

	var mu sync.Mutex
	var execs []map[string][]byte
	env.server.Tap = func(dir string, msg any) {
		if m, ok := msg.(*tds.Request); ok && m.Exec != nil {
			mu.Lock()
			defer mu.Unlock()
			params := make(map[string][]byte, len(m.Exec.Params))
			for k, v := range m.Exec.Params {
				params[k] = append([]byte(nil), v...)
			}
			execs = append(execs, params)
		}
	}

	admin := env.dial(Config{})
	const rnd = "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	const det = "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Deterministic, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	mustExec(t, admin, "CREATE TABLE s (id int PRIMARY KEY, a varchar(40) "+rnd+", b varchar(40) "+rnd+", d varchar(40) "+det+")", nil)
	c := env.dial(Config{AlwaysEncrypted: true})

	const secret = "SHARED-SEALER-PLAINTEXT"
	mustExec(t, c, "INSERT INTO s (id, a, b, d) VALUES (@i, @a, @b, @d)", map[string]sqltypes.Value{
		"i": sqltypes.Int(1), "a": sqltypes.Str(secret), "b": sqltypes.Str(secret), "d": sqltypes.Str(secret)})
	rows := mustExec(t, c, "SELECT a, b FROM s WHERE d = @d", map[string]sqltypes.Value{"d": sqltypes.Str(secret)})
	if len(rows.Values) != 1 || rows.Values[0][0].S != secret || rows.Values[0][1].S != secret {
		t.Fatalf("application view broken: %v", rows.Values)
	}

	mu.Lock()
	defer mu.Unlock()
	var insert, sel map[string][]byte
	for _, p := range execs {
		switch len(p) {
		case 4:
			insert = p
		case 1:
			sel = p
		}
	}
	if insert == nil || sel == nil {
		t.Fatalf("tap missed the statements: %d execs", len(execs))
	}
	for _, p := range execs {
		for name, v := range p {
			if bytes.Contains(v, []byte(secret)) {
				t.Fatalf("plaintext of @%s visible on the wire", name)
			}
		}
	}
	if bytes.Equal(insert["a"], insert["b"]) {
		t.Fatal("two RND parameters sealed with one sealer share an envelope: IV reused")
	}
	if !bytes.Equal(insert["d"], sel["d"]) {
		t.Fatal("DET parameter sealed differently by two statements")
	}
}

// benchEnv builds a loaded single-table world for driver benchmarks.
func benchEnv(b *testing.B, encrypted bool) (*serverEnv, *Conn) {
	b.Helper()
	env := newServerEnv(b)
	admin := env.dial(Config{})
	col := "v int"
	if encrypted {
		env.provision("CMK1", "CEK1", true)
		col = "v int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	}
	if _, err := admin.Exec("CREATE TABLE b (id int PRIMARY KEY, "+col+")", nil); err != nil {
		b.Fatal(err)
	}
	c := env.dial(Config{AlwaysEncrypted: encrypted, Providers: env.reg, Policy: &env.policy})
	for i := int64(0); i < 100; i++ {
		if _, err := c.Exec("INSERT INTO b (id, v) VALUES (@i, @v)",
			map[string]sqltypes.Value{"i": sqltypes.Int(i), "v": sqltypes.Int(i % 10)}); err != nil {
			b.Fatal(err)
		}
	}
	return env, c
}

// BenchmarkDriverExecPlain: one point lookup per op over a plain connection.
func BenchmarkDriverExecPlain(b *testing.B) {
	_, c := benchEnv(b, false)
	args := map[string]sqltypes.Value{"i": sqltypes.Int(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("SELECT v FROM b WHERE id = @i", args); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriverExecAEEncrypted: the same lookup with an encrypted
// predicate — describe round trip + parameter encryption + enclave filter.
func BenchmarkDriverExecAEEncrypted(b *testing.B) {
	_, c := benchEnv(b, true)
	args := map[string]sqltypes.Value{"v": sqltypes.Int(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Exec("SELECT id FROM b WHERE v = @v", args); err != nil {
			b.Fatal(err)
		}
	}
}
