package aesql_test

import (
	"context"
	"database/sql"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"alwaysencrypted/internal/aesql"
	"alwaysencrypted/internal/core"
	aedriver "alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/obs"
)

// startHalfDeadServer accepts, reads one request frame and closes without
// responding — the transport failure where the statement may or may not have
// executed (same shape as the driver's own failover tests).
func startHalfDeadServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var hdr [4]byte
				if _, err := io.ReadFull(c, hdr[:]); err != nil {
					return
				}
				io.CopyN(io.Discard, c, int64(binary.BigEndian.Uint32(hdr[:])))
			}(conn)
		}
	}()
	return l.Addr().String()
}

// roundTripConfigs render to DSNs that parse back to themselves; they also
// seed FuzzParseDSN.
var roundTripConfigs = []aesql.Config{
	{Primary: "10.0.0.1:1433"},
	{Primary: "10.0.0.1:1433", Replicas: []string{"10.0.0.2:1433", "10.0.0.3:1433"}},
	{Primary: "p:1", AlwaysEncrypted: true, TrustName: "prod"},
	{Primary: "p:1", Consistency: aesql.ConsistencyGlobal, MaxConns: 4},
	{Primary: "p:1", Consistency: aesql.ConsistencyPrimary, MaxIdle: 2,
		HealthInterval: 250 * time.Millisecond, DisableDescribeCache: true},
}

// badDSNs must all be rejected; they also seed FuzzParseDSN.
var badDSNs = []string{
	"sqlserver://host/",
	"aedb:///?ae=1",
	"aedb://,r:1/",
	"aedb://p:1,,/",
	"aedb://p:1,/",
	"aedb://h:1/?bogus=1",
	"aedb://h:1/?ae=maybe",
	"aedb://h:1/?consistency=eventual",
	"aedb://h:1/?maxconns=0",
	"aedb://h:1/?maxidle=-3",
	"aedb://h:1/?health=fast",
}

func TestParseDSNRoundTrip(t *testing.T) {
	for _, want := range roundTripConfigs {
		dsn := want.DSN()
		got, err := aesql.ParseDSN(dsn)
		if err != nil {
			t.Errorf("ParseDSN(%q): %v", dsn, err)
			continue
		}
		// DSN() renders no replicas as an absent list; normalize for compare.
		if len(got.Replicas) == 0 {
			got.Replicas = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %q: got %+v, want %+v", dsn, got, want)
		}
	}
}

func TestParseDSNErrors(t *testing.T) {
	for _, dsn := range badDSNs {
		if _, err := aesql.ParseDSN(dsn); err == nil {
			t.Errorf("ParseDSN(%q) accepted, want error", dsn)
		}
	}
}

func TestParamNames(t *testing.T) {
	cases := []struct {
		query string
		want  []string
	}{
		{"SELECT 1", nil},
		{"INSERT INTO t (a, b) VALUES (@a, @b)", []string{"a", "b"}},
		{"UPDATE t SET a = @v WHERE a < @v AND b = @w", []string{"v", "w"}},
		{"SELECT * FROM t WHERE note = 'mail@example.com' AND id = @id", []string{"id"}},
		{"SELECT * FROM t WHERE s = 'it''s' AND v = @x_1", []string{"x_1"}},
	}
	for _, c := range cases {
		if got := aesql.ParamNames(c.query); !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParamNames(%q) = %v, want %v", c.query, got, c.want)
		}
	}
}

// startAEServer boots a primary with provisioned keys and registers its trust
// bundle under the given name for DSN lookup.
func startAEServer(t *testing.T, trustName, replListen string) *core.Server {
	t.Helper()
	srv, err := core.StartServer(core.ServerConfig{EnclaveThreads: 2, ReplListen: replListen})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	admin := core.NewKeyAdmin(srv)
	if err := admin.CreateMasterKey("CMK1", true); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateColumnKey("CEK1", "CMK1"); err != nil {
		t.Fatal(err)
	}
	pol := srv.Policy()
	aesql.RegisterTrust(trustName, aesql.Trust{
		Policy:    &pol,
		Providers: admin.Registry(),
		Obs:       obs.New("aesql-test"),
	})
	return srv
}

// The whole stack behind database/sql: AE DDL, named and positional
// parameters, transparent decryption, prepared statements, transactions.
func TestDatabaseSQLEndToEnd(t *testing.T) {
	srv := startAEServer(t, "e2e", "")
	cfg := aesql.Config{Primary: srv.Addr(), AlwaysEncrypted: true, TrustName: "e2e"}
	db := sql.OpenDB(aesql.NewConnector(cfg))
	defer db.Close()
	ctx := context.Background()

	if err := db.PingContext(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, err := db.ExecContext(ctx, "CREATE TABLE patients (id int PRIMARY KEY, name varchar(32), ssn varchar(11) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))"); err != nil {
		t.Fatal(err)
	}

	// Named parameters encrypt transparently on the way in.
	res, err := db.ExecContext(ctx, "INSERT INTO patients (id, name, ssn) VALUES (@id, @name, @ssn)",
		sql.Named("id", 1), sql.Named("name", "alice"), sql.Named("ssn", "123-45-6789"))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.RowsAffected(); n != 1 {
		t.Fatalf("rows affected = %d", n)
	}

	// Positional arguments bind to distinct placeholders in appearance order.
	if _, err := db.ExecContext(ctx, "INSERT INTO patients (id, name, ssn) VALUES (@id, @name, @ssn)",
		2, "bob", "987-65-4321"); err != nil {
		t.Fatal(err)
	}

	// Reads decrypt transparently on the way out — including a predicate on
	// the encrypted column itself (enclave expression under the covers).
	var name string
	if err := db.QueryRowContext(ctx, "SELECT name FROM patients WHERE ssn = @ssn",
		sql.Named("ssn", "987-65-4321")).Scan(&name); err != nil {
		t.Fatal(err)
	}
	if name != "bob" {
		t.Fatalf("name = %q, want bob", name)
	}

	// Prepared statement, reused with different arguments.
	stmt, err := db.PrepareContext(ctx, "SELECT ssn FROM patients WHERE id = @id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for id, want := range map[int]string{1: "123-45-6789", 2: "987-65-4321"} {
		var ssn string
		if err := stmt.QueryRowContext(ctx, id).Scan(&ssn); err != nil {
			t.Fatal(err)
		}
		if ssn != want {
			t.Fatalf("ssn(%d) = %q, want %q", id, ssn, want)
		}
	}

	// Multi-row iteration.
	rows, err := db.QueryContext(ctx, "SELECT id, ssn FROM patients")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]string{}
	for rows.Next() {
		var id int64
		var ssn string
		if err := rows.Scan(&id, &ssn); err != nil {
			t.Fatal(err)
		}
		got[id] = ssn
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "123-45-6789" {
		t.Fatalf("scan = %v", got)
	}

	// A committed transaction's writes stick; a rolled-back one's vanish.
	tx, err := db.BeginTx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecContext(ctx, "INSERT INTO patients (id, name, ssn) VALUES (@id, @name, @ssn)",
		sql.Named("id", 3), sql.Named("name", "carol"), sql.Named("ssn", "111-22-3333")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, err = db.BeginTx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecContext(ctx, "DELETE FROM patients WHERE id = @id", sql.Named("id", 3)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRowContext(ctx, "SELECT id FROM patients WHERE id = @id", 3).Scan(&n); err != nil {
		t.Fatalf("rolled-back delete removed the row: %v", err)
	}
}

func TestSQLRequiresRegisteredTrust(t *testing.T) {
	db := sql.OpenDB(aesql.NewConnector(aesql.Config{
		Primary: "127.0.0.1:1", AlwaysEncrypted: true, TrustName: "never-registered",
	}))
	defer db.Close()
	err := db.Ping()
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("ping err = %v, want unregistered-trust error", err)
	}
}

// ErrIndeterminate must survive the trip through database/sql: an in-flight
// INSERT on a dying primary is the application's call to resolve, not the
// stack's to retry.
func TestSQLFailoverIndeterminate(t *testing.T) {
	srv, err := core.StartServer(core.ServerConfig{EnclaveThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	admin, err := srv.Connect(core.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if _, err := admin.Exec("CREATE TABLE t (id int PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}

	db := sql.OpenDB(aesql.NewConnector(aesql.Config{
		Primary:  startHalfDeadServer(t),
		Replicas: []string{srv.Addr()},
	}))
	defer db.Close()
	ctx := context.Background()

	_, err = db.ExecContext(ctx, "INSERT INTO t (id) VALUES (@id)", 1)
	if !errors.Is(err, aedriver.ErrIndeterminate) {
		t.Fatalf("in-flight DML err = %v, want ErrIndeterminate", err)
	}
	// The application retries on the failed-over connection; reads confirm
	// exactly one row.
	if _, err := db.ExecContext(ctx, "INSERT INTO t (id) VALUES (@id)", 1); err != nil {
		t.Fatalf("app retry: %v", err)
	}
	var id int64
	if err := db.QueryRowContext(ctx, "SELECT id FROM t WHERE id = @id", 1).Scan(&id); err != nil {
		t.Fatal(err)
	}
}

// Read-your-writes as a session guarantee under database/sql: within one
// sql.Conn, a read issued right after a write never returns stale data — it
// falls back to the primary while the replica lags and rides the replica once
// it has applied the write.
func TestSQLReadYourWrites(t *testing.T) {
	srv := startAEServer(t, "ryw", "127.0.0.1:0")
	trust := srv.Trust()
	rs, err := core.StartReplicaServer(core.ReplicaConfig{
		Primary: srv.ReplAddr(), EnclaveThreads: 2, Trust: &trust,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// The trust bundle also carries the obs registry the pool's routing
	// counters record into (plaintext session, so no policy is needed).
	connector := aesql.NewConnector(aesql.Config{
		Primary:        srv.Addr(),
		Replicas:       []string{rs.Addr()},
		TrustName:      "ryw",
		HealthInterval: -1, // drive the watermark refresh by hand
	})
	db := sql.OpenDB(connector)
	defer db.Close()
	ctx := context.Background()

	sc, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	if _, err := sc.ExecContext(ctx, "CREATE TABLE t (id int PRIMARY KEY, v int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ExecContext(ctx, "INSERT INTO t (id, v) VALUES (@id, @v)", 1, 42); err != nil {
		t.Fatal(err)
	}
	// Immediately read back: the replica has not been observed at the write's
	// LSN, so the session must fall back to the primary rather than risk a
	// stale row.
	var v int64
	if err := sc.QueryRowContext(ctx, "SELECT v FROM t WHERE id = @id", 1).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("read-your-writes returned %d, want 42", v)
	}
	p, err := connector.Pool()
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.StalenessFallbacks == 0 {
		t.Errorf("stats = %+v, want the lagging replica counted as a staleness fallback", st)
	}

	// Catch the replica up, refresh the pool's watermark, and the same
	// session's reads move to the replica — still seeing the write.
	if err := rs.Replication.WaitForLSN(srv.Engine.WAL().NextLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	p.PingReplicas()
	before := p.Stats().ReplicaReads
	if err := sc.QueryRowContext(ctx, "SELECT v FROM t WHERE id = @id", 1).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("replica read returned %d, want 42", v)
	}
	if after := p.Stats().ReplicaReads; after != before+1 {
		t.Errorf("replica reads %d -> %d, want the caught-up read routed to the replica", before, after)
	}
}
