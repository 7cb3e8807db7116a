package leakage

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"alwaysencrypted/internal/core"
	"alwaysencrypted/internal/sqltypes"
)

// byteTap is the §2.6 network adversary at the byte level: a TCP relay that
// records every byte crossing it, in both directions, for every connection.
type byteTap struct {
	mu      sync.Mutex
	streams []*bytes.Buffer
}

// relay listens on loopback and forwards each connection to upstream.
func (b *byteTap) relay(t *testing.T, upstream string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			down, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			go b.copy(up, down)
			go b.copy(down, up)
		}
	}()
	return l.Addr().String()
}

func (b *byteTap) copy(dst, src net.Conn) {
	defer dst.Close()
	defer src.Close()
	rec := &bytes.Buffer{}
	b.mu.Lock()
	b.streams = append(b.streams, rec)
	b.mu.Unlock()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			b.mu.Lock()
			rec.Write(buf[:n])
			b.mu.Unlock()
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// find reports the first recorded stream containing needle.
func (b *byteTap) find(needle []byte) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.streams {
		if bytes.Contains(s.Bytes(), needle) {
			return i, true
		}
	}
	return 0, false
}

func (b *byteTap) total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, s := range b.streams {
		n += s.Len()
	}
	return n
}

// TestWireBytesCarryNoPlaintext drives one script through byte taps on the
// TDS and the replication sockets — attestation and describe, CEK install,
// INSERT, point, range and LIKE SELECT, a bulk batch, UPDATE, a failing
// statement and replica catch-up — and asserts that no encrypted column's
// plaintext appears in any recorded byte, neither as the raw string nor as
// its canonical sqltypes encoding. The struct-level tap tests look at
// decoded messages; this one is codec-agnostic.
func TestWireBytesCarryNoPlaintext(t *testing.T) {
	srv, err := core.StartServer(core.ServerConfig{EnclaveThreads: 2, ReplListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	admin := core.NewKeyAdmin(srv)
	if err := admin.CreateMasterKey("WireCMK", true); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateColumnKey("WireCEK", "WireCMK"); err != nil {
		t.Fatal(err)
	}

	tap := &byteTap{}
	db, err := core.ConnectAddrs([]string{tap.relay(t, srv.Addr())}, srv.Policy(),
		core.ClientConfig{AlwaysEncrypted: true, Providers: admin.Registry()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec := func(q string, args map[string]core.Value) {
		t.Helper()
		if _, err := db.Exec(q, args); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	exec(`CREATE TABLE Wire (id int PRIMARY KEY, name varchar(40),
		ssn varchar(40) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = WireCEK,
			ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'),
		salary int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = WireCEK,
			ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))`, nil)
	exec("CREATE INDEX ix_wire_ssn ON Wire (ssn)", nil)

	// Every plaintext bound for an encrypted column, parameters included.
	var secrets []sqltypes.Value
	ssn := func(i int) core.Value {
		v := core.Str(fmt.Sprintf("QX-SSN-%04d-ZETA", i))
		secrets = append(secrets, v)
		return v
	}
	salary := func(i int) core.Value {
		v := core.Int(int64(7_340_000 + 37*i))
		secrets = append(secrets, v)
		return v
	}
	for i := 1; i <= 8; i++ { // the first statement attests, describes and installs the CEK
		exec("INSERT INTO Wire (id, name, ssn, salary) VALUES (@i, @n, @s, @p)",
			map[string]core.Value{"i": core.Int(int64(i)), "n": core.Str("public"), "s": ssn(i), "p": salary(i)})
	}
	exec("SELECT id FROM Wire WHERE ssn = @s", map[string]core.Value{"s": ssn(3)})
	exec("SELECT id FROM Wire WHERE salary > @lo AND salary < @hi",
		map[string]core.Value{"lo": salary(2), "hi": salary(6)})
	pattern := core.Str("QX-SSN-000%")
	secrets = append(secrets, pattern)
	exec("SELECT id FROM Wire WHERE ssn LIKE @p", map[string]core.Value{"p": pattern})
	var bulk [][]sqltypes.Value
	for i := 100; i < 140; i++ {
		bulk = append(bulk, []sqltypes.Value{core.Int(int64(i)), core.Str("public"), ssn(i), salary(i)})
	}
	if n, err := db.Conn.BulkInsert("Wire", []string{"id", "name", "ssn", "salary"}, bulk); err != nil || n != len(bulk) {
		t.Fatalf("bulk insert: %d rows, %v", n, err)
	}
	exec("UPDATE Wire SET salary = @p WHERE ssn = @s", map[string]core.Value{"p": salary(999), "s": ssn(4)})
	if _, err := db.Exec("INSERT INTO Wire (id, name, ssn, salary) VALUES (@i, @n, @s, @p)",
		map[string]core.Value{"i": core.Int(1), "n": core.Str("dup"), "s": ssn(5000), "p": salary(5000)}); err == nil {
		t.Fatal("duplicate primary key accepted")
	}

	trust := srv.Trust()
	rs, err := core.StartReplicaServer(core.ReplicaConfig{
		Primary: tap.relay(t, srv.ReplAddr()), ReplicaID: "wire-replica", Trust: &trust, EnclaveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.Replication.WaitForLSN(srv.Engine.WAL().NextLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	if n := tap.total(); n < 10_000 {
		t.Fatalf("taps recorded only %d bytes", n)
	}
	// The plain column did cross in the clear: the taps see real traffic.
	if _, ok := tap.find([]byte("public")); !ok {
		t.Fatal("taps never saw the plaintext column")
	}
	for _, v := range secrets {
		needles := [][]byte{v.Encode()}
		if v.Kind == sqltypes.KindString {
			needles = append(needles, []byte(v.S))
		}
		for _, needle := range needles {
			if i, ok := tap.find(needle); ok {
				t.Fatalf("stream %d carries plaintext of an encrypted column: %q", i, needle)
			}
		}
	}
}
