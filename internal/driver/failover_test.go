package driver

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"alwaysencrypted/internal/sqltypes"
)

// startHalfDeadServer accepts connections, reads exactly one request frame
// and then closes the connection without responding — the transport failure
// where the statement may or may not have executed on the dying primary.
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

// startDeadOnArrivalServer accepts and immediately closes: every round trip
// fails before the request can have been processed.
func startDeadOnArrivalServer(t *testing.T) string {
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
			conn.Close()
		}
	}()
	return l.Addr().String()
}

// A SELECT that dies mid-flight is transparently retried on the next address:
// re-reading cannot duplicate effects.
func TestFailoverRetriesReads(t *testing.T) {
	env := newServerEnv(t)
	admin := env.dial(Config{})
	if _, err := admin.Exec("CREATE TABLE t (id int PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec("INSERT INTO t (id) VALUES (@i)",
		map[string]sqltypes.Value{"i": sqltypes.Int(1)}); err != nil {
		t.Fatal(err)
	}

	c, err := DialMulti([]string{startHalfDeadServer(t), env.addr}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Exec("SELECT id FROM t", nil)
	if err != nil {
		t.Fatalf("read retry after failover: %v", err)
	}
	if len(rows.Values) != 1 || rows.Values[0][0].I != 1 {
		t.Fatalf("rows = %+v", rows.Values)
	}
	if c.Failovers != 1 {
		t.Fatalf("failovers = %d", c.Failovers)
	}
}

// A DML statement that may have executed before the connection died is NOT
// silently re-executed — the promoted replica may already have replayed it,
// and a retry would double-apply. The driver fails over (the connection stays
// usable) but surfaces ErrIndeterminate for the application to resolve.
func TestFailoverDMLIsIndeterminate(t *testing.T) {
	env := newServerEnv(t)
	admin := env.dial(Config{})
	if _, err := admin.Exec("CREATE TABLE t (id int PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}

	c, err := DialMulti([]string{startHalfDeadServer(t), env.addr}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("INSERT INTO t (id) VALUES (@i)", map[string]sqltypes.Value{"i": sqltypes.Int(1)})
	if !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("in-flight DML err = %v, want ErrIndeterminate", err)
	}
	if c.Failovers != 1 {
		t.Fatalf("failovers = %d", c.Failovers)
	}
	// The row was never applied anywhere; the application's retry (its
	// decision, not the driver's) succeeds exactly once on the new server.
	if _, err := c.Exec("INSERT INTO t (id) VALUES (@i)",
		map[string]sqltypes.Value{"i": sqltypes.Int(1)}); err != nil {
		t.Fatalf("post-failover retry: %v", err)
	}
	rows, err := c.Exec("SELECT id FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Values) != 1 {
		t.Fatalf("rows after app retry = %d, want 1", len(rows.Values))
	}
}

// DML whose failure happened before the execute request could reach the wire
// (here: the describe round trip dies) IS retried transparently — the
// statement cannot have taken effect anywhere.
func TestFailoverRetriesUnsentDML(t *testing.T) {
	env := newServerEnv(t)
	admin := env.dial(Config{})
	if _, err := admin.Exec("CREATE TABLE t (id int PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}

	c, err := DialMulti([]string{startDeadOnArrivalServer(t), env.addr},
		Config{AlwaysEncrypted: true, Providers: env.reg, Policy: &env.policy}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// AE mode fails in describe, before the statement is sent: safe to retry.
	if _, err := c.Exec("INSERT INTO t (id) VALUES (@i)",
		map[string]sqltypes.Value{"i": sqltypes.Int(7)}); err != nil {
		t.Fatalf("unsent DML retry: %v", err)
	}
	if c.Failovers != 1 {
		t.Fatalf("failovers = %d", c.Failovers)
	}
	rows, err := c.Exec("SELECT id FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Values) != 1 || rows.Values[0][0].I != 7 {
		t.Fatalf("rows = %+v", rows.Values)
	}
}

// BulkInsert goes through the same retry rules as Exec: a load whose describe
// dies before any row is on the wire is retried on the next address, and one
// whose chunk was in flight when the connection died is ErrIndeterminate.
func TestFailoverBulkInsert(t *testing.T) {
	env := newServerEnv(t)
	admin := env.dial(Config{})
	if _, err := admin.Exec("CREATE TABLE t (id int PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}
	rows := func(ids ...int64) [][]sqltypes.Value {
		out := make([][]sqltypes.Value, len(ids))
		for i, id := range ids {
			out[i] = []sqltypes.Value{sqltypes.Int(id)}
		}
		return out
	}
	count := func(c *Conn) int {
		t.Helper()
		got, err := c.Exec("SELECT id FROM t", nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(got.Values)
	}

	unsent, err := DialMulti([]string{startDeadOnArrivalServer(t), env.addr},
		Config{AlwaysEncrypted: true, Providers: env.reg, Policy: &env.policy}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer unsent.Close()
	if n, err := unsent.BulkInsert("t", []string{"id"}, rows(1, 2, 3)); err != nil || n != 3 {
		t.Fatalf("unsent bulk retry = %d, %v; want 3, nil", n, err)
	}
	if unsent.Failovers != 1 {
		t.Fatalf("failovers = %d", unsent.Failovers)
	}
	if got := count(unsent); got != 3 {
		t.Fatalf("rows after unsent retry = %d, want 3", got)
	}

	inflight, err := DialMulti([]string{startHalfDeadServer(t), env.addr}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Close()
	n, err := inflight.BulkInsert("t", []string{"id"}, rows(4, 5))
	if !errors.Is(err, ErrIndeterminate) || n != 0 {
		t.Fatalf("in-flight bulk = %d, %v; want 0, ErrIndeterminate", n, err)
	}
	if inflight.Failovers != 1 {
		t.Fatalf("failovers = %d", inflight.Failovers)
	}
	// Not re-sent by the driver: the new server holds only the first load.
	if got := count(inflight); got != 3 {
		t.Fatalf("rows after indeterminate bulk = %d, want 3", got)
	}
}
