package aesql

import (
	"context"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	aedriver "alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/pool"
	"alwaysencrypted/internal/sqltypes"
)

// conn is one database/sql driver connection: a virtual session over the
// connector's shared pool. It holds no transport connection between
// statements — each Exec/Query checks one out, runs, and releases it — so
// replica routing stays per-statement even though database/sql pins a driver
// connection per logical session. An explicit transaction pins a primary
// transport connection for its whole extent.
//
// lastWrite is the session's read-your-writes watermark: the LSN of the
// session's most recent primary statement. Reads route to a replica only
// when its applied LSN has reached this bound (under consistency=session).
type conn struct {
	pool *pool.Pool
	cfg  Config

	lastWrite uint64
	// txn is the pinned primary connection while a transaction is open.
	txn    *pool.PooledConn
	closed bool
}

var (
	errClosed = errors.New("aesql: connection closed")
	errInTxn  = errors.New("aesql: transaction already open")
)

// minLSN is the freshness bound a replica must satisfy to serve this
// session's next read.
func (c *conn) minLSN() uint64 {
	switch c.cfg.Consistency {
	case ConsistencyGlobal:
		return c.pool.LastWrite()
	default:
		return c.lastWrite
	}
}

// readOnly reports statements safe to route to a read replica: plain
// SELECTs. Everything else — DML, DDL, transaction control — needs the
// primary.
func readOnly(query string) bool {
	return aedriver.StartsWithFold(query, "SELECT")
}

// exec is the single statement path: route, check out, run, fold the
// response LSN into the session watermark, release.
func (c *conn) exec(ctx context.Context, query string, args []driver.NamedValue) (*aedriver.Rows, error) {
	if c.closed {
		return nil, errClosed
	}
	params, err := bindParams(query, args)
	if err != nil {
		return nil, err
	}
	if c.txn != nil {
		rows, err := c.txn.Exec(query, params)
		if err == nil {
			c.lastWrite = c.txn.LastLSN()
		}
		return rows, err
	}

	var pc *pool.PooledConn
	if readOnly(query) && c.cfg.Consistency != ConsistencyPrimary {
		pc, err = c.pool.AcquireRead(ctx, c.minLSN())
	} else {
		pc, err = c.pool.Acquire(ctx)
	}
	if err != nil {
		return nil, err
	}
	rows, err := pc.Exec(query, params)
	if err == nil && !pc.Replica() {
		// Primary statements move the session watermark; replica reads never
		// do (their LSN is the replica's position, not a write of ours).
		c.lastWrite = pc.LastLSN()
	}
	pc.Release()
	return rows, err
}

// ExecContext implements driver.ExecerContext.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	rows, err := c.exec(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return result{affected: int64(rows.Affected)}, nil
}

// QueryContext implements driver.QueryerContext.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	r, err := c.exec(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return &rows{rs: r}, nil
}

// Prepare implements driver.Conn. Statements re-route per execution; the
// describe metadata is already cached pool-wide, so "preparing" is just
// binding the text.
func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext.
func (c *conn) PrepareContext(_ context.Context, query string) (driver.Stmt, error) {
	if c.closed {
		return nil, errClosed
	}
	return &stmt{conn: c, query: query}, nil
}

// Begin implements driver.Conn (legacy path).
func (c *conn) Begin() (driver.Tx, error) {
	return c.BeginTx(context.Background(), driver.TxOptions{})
}

// BeginTx implements driver.ConnBeginTx: pin a primary connection and open
// an explicit transaction on it. Failover never silently retries half a
// transaction (PR 4); a mid-transaction primary death surfaces as an error
// and the application restarts the transaction.
func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if c.closed {
		return nil, errClosed
	}
	if c.txn != nil {
		return nil, errInTxn
	}
	if opts.Isolation != 0 {
		return nil, fmt.Errorf("aesql: isolation level %d not supported", opts.Isolation)
	}
	pc, err := c.pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	if err := pc.Begin(); err != nil {
		pc.Release()
		return nil, err
	}
	c.txn = pc
	return &tx{conn: c}, nil
}

// Ping implements driver.Pinger via a primary round trip.
func (c *conn) Ping(ctx context.Context) error {
	if c.closed {
		return driver.ErrBadConn
	}
	pc, err := c.pool.Acquire(ctx)
	if err != nil {
		return err
	}
	_, err = pc.Conn().Ping()
	pc.Release()
	return err
}

// ResetSession implements driver.SessionResetter. The session watermark is
// deliberately kept: carrying it across reuse can only cause a spurious
// primary read for the next logical session, never a stale one.
func (c *conn) ResetSession(context.Context) error {
	if c.closed {
		return driver.ErrBadConn
	}
	return nil
}

// IsValid implements driver.Validator.
func (c *conn) IsValid() bool { return !c.closed }

// CheckNamedValue implements driver.NamedValueChecker: convert eagerly so
// unsupported types fail before any transport work.
func (c *conn) CheckNamedValue(nv *driver.NamedValue) error {
	v, err := toValue(nv.Value)
	if err != nil {
		return err
	}
	nv.Value = v
	return nil
}

// Close implements driver.Conn. A leaked transaction is rolled back so its
// pinned transport connection returns to the pool.
func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.txn != nil {
		err := c.txn.Rollback()
		c.txn.Release()
		c.txn = nil
		return err
	}
	return nil
}

// tx implements driver.Tx over the conn's pinned primary connection.
type tx struct{ conn *conn }

func (t *tx) Commit() error {
	c := t.conn
	if c.txn == nil {
		return errors.New("aesql: commit outside transaction")
	}
	err := c.txn.Commit()
	if err == nil {
		c.lastWrite = c.txn.LastLSN()
	}
	c.txn.Release()
	c.txn = nil
	return err
}

func (t *tx) Rollback() error {
	c := t.conn
	if c.txn == nil {
		return errors.New("aesql: rollback outside transaction")
	}
	err := c.txn.Rollback()
	c.txn.Release()
	c.txn = nil
	return err
}

// stmt implements driver.Stmt + context variants. Routing happens per
// execution, exactly as for direct Exec/Query.
type stmt struct {
	conn  *conn
	query string
}

func (s *stmt) Close() error { return nil }

// NumInput returns -1: the driver binds by name and cannot know the
// placeholder count without the server's describe output.
func (s *stmt) NumInput() int { return -1 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), ordinalArgs(args))
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), ordinalArgs(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.conn.ExecContext(ctx, s.query, args)
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.conn.QueryContext(ctx, s.query, args)
}

// CheckNamedValue lets prepared statements accept the same types as the conn.
func (s *stmt) CheckNamedValue(nv *driver.NamedValue) error {
	return s.conn.CheckNamedValue(nv)
}

func ordinalArgs(args []driver.Value) []driver.NamedValue {
	nvs := make([]driver.NamedValue, len(args))
	for i, v := range args {
		nvs[i] = driver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return nvs
}

// result implements driver.Result. The engine has no auto-increment ids.
type result struct{ affected int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("aesql: LastInsertId not supported")
}
func (r result) RowsAffected() (int64, error) { return r.affected, nil }

// rows adapts the driver's fully-materialized result set to driver.Rows.
// Decryption already happened in aedriver before this sees the data.
type rows struct {
	rs  *aedriver.Rows
	pos int
}

func (r *rows) Columns() []string { return r.rs.Columns }

func (r *rows) Close() error { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.rs.Values) {
		return io.EOF
	}
	row := r.rs.Values[r.pos]
	r.pos++
	for i, v := range row {
		dest[i] = fromValue(v)
	}
	return nil
}

// ParamNames returns the distinct @name placeholders of a statement in
// first-appearance order — the order positional (ordinal) arguments bind in.
// Quoted string literals are skipped, so '@' inside a literal is data.
func ParamNames(query string) []string {
	var names []string
	seen := map[string]bool{}
	inStr := false
	for i := 0; i < len(query); i++ {
		ch := query[i]
		if inStr {
			if ch == '\'' {
				inStr = false
			}
			continue
		}
		switch {
		case ch == '\'':
			inStr = true
		case ch == '@':
			j := i + 1
			for j < len(query) && isIdentByte(query[j]) {
				j++
			}
			if j > i+1 {
				name := query[i+1 : j]
				if !seen[name] {
					seen[name] = true
					names = append(names, name)
				}
				i = j - 1
			}
		}
	}
	return names
}

func isIdentByte(b byte) bool {
	return b == '_' || (b >= '0' && b <= '9') || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// bindParams maps database/sql arguments onto the engine's named-parameter
// map: sql.Named args bind by name, positional args bind to the statement's
// distinct placeholders in first-appearance order (go-sqlparams style).
func bindParams(query string, args []driver.NamedValue) (map[string]sqltypes.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	var names []string
	params := make(map[string]sqltypes.Value, len(args))
	for _, nv := range args {
		name := nv.Name
		if name == "" {
			if names == nil {
				names = ParamNames(query)
			}
			if nv.Ordinal < 1 || nv.Ordinal > len(names) {
				return nil, fmt.Errorf("aesql: statement has %d named placeholders, no position for arg %d",
					len(names), nv.Ordinal)
			}
			name = names[nv.Ordinal-1]
		}
		name = strings.TrimPrefix(name, "@")
		v, err := toValue(nv.Value)
		if err != nil {
			return nil, fmt.Errorf("aesql: arg @%s: %w", name, err)
		}
		sv, ok := v.(sqltypes.Value)
		if !ok {
			// CheckNamedValue already converted on the database/sql path;
			// this covers direct driver use.
			return nil, fmt.Errorf("aesql: arg @%s: unexpected %T", name, v)
		}
		params[name] = sv
	}
	return params, nil
}

// toValue converts a Go value into the engine's value model. time.Time maps
// to DATETIME microseconds (UTC).
func toValue(v any) (driver.Value, error) {
	switch x := v.(type) {
	case nil:
		return sqltypes.Null(), nil
	case sqltypes.Value:
		return x, nil
	case int64:
		return sqltypes.Int(x), nil
	case int:
		return sqltypes.Int(int64(x)), nil
	case float64:
		return sqltypes.Float(x), nil
	case bool:
		return sqltypes.Bool(x), nil
	case string:
		return sqltypes.Str(x), nil
	case []byte:
		return sqltypes.Bytes(append([]byte(nil), x...)), nil
	case time.Time:
		return sqltypes.Datetime(x.UTC().UnixMicro()), nil
	default:
		return nil, fmt.Errorf("unsupported argument type %T", v)
	}
}

// fromValue converts an engine value to the database/sql value model.
func fromValue(v sqltypes.Value) driver.Value {
	switch v.Kind {
	case sqltypes.KindNull:
		return nil
	case sqltypes.KindInt:
		return v.I
	case sqltypes.KindFloat:
		return v.F
	case sqltypes.KindString:
		return v.S
	case sqltypes.KindBytes:
		return v.B
	case sqltypes.KindBool:
		return v.Bool_
	case sqltypes.KindDatetime:
		return time.UnixMicro(v.I).UTC()
	default:
		return nil
	}
}
