package main

import (
	"context"
	"crypto/sha256"
	"database/sql"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"alwaysencrypted/internal/aesql"
	"alwaysencrypted/internal/sqltypes"
)

// The enc_* schema: three RND-encrypted columns under one enclave-enabled
// CEK, range indexes on two of them (every seek and every index insert costs
// O(log n) enclave comparisons), and an unindexed encrypted column whose
// LIKE predicate is evaluated row-batch by row-batch in the enclave.
var encSchema = []string{
	fmt.Sprintf(`CREATE TABLE accounts (id int PRIMARY KEY,
		acct varchar(12) %[1]s, owner varchar(24) %[1]s, balance int %[1]s,
		region int, note varchar(40))`,
		"ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = "+encCEK+", ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"),
	"CREATE INDEX accounts_balance ON accounts (balance)",
	"CREATE INDEX accounts_acct ON accounts (acct)",
}

var encCols = []string{"id", "acct", "owner", "balance", "region", "note"}

const (
	encBalanceDomain = 1_000_000
	encRangeLimit    = 20
	encBulkRows      = 64

	sqlEncRange  = "SELECT id, balance FROM accounts WHERE balance BETWEEN @lo AND @hi LIMIT 20"
	sqlEncPoint  = "SELECT id, owner, balance FROM accounts WHERE acct = @a"
	sqlEncLike   = "SELECT id, owner FROM accounts WHERE owner LIKE @p LIMIT 20"
	sqlEncInsert = "INSERT INTO accounts (id, acct, owner, balance, region, note) VALUES (@id, @acct, @owner, @balance, @region, @note)"
	sqlEncUpdate = "UPDATE accounts SET balance = @b WHERE id = @id"
	sqlEncDelete = "DELETE FROM accounts WHERE id = @id"
	sqlEncAll    = "SELECT id, acct, owner, balance, region, note FROM accounts"
)

// encKind is an operation kind of the two enc_* mixes. enc_range draws from
// the first three, enc_ingest from the last four; a client reports
// kind - base as the operation's type index within its workload.
type encKind int

const (
	encRange encKind = iota
	encPoint
	encLike
	encInsert
	encUpdate
	encDelete
	encBulk
)

var (
	encRangeOpNames  = []string{"range", "point", "like"}
	encIngestOpNames = []string{"insert", "update", "delete", "bulk"}
)

// account is one plaintext row of the shadow model.
type account struct {
	id      int64
	acct    string
	owner   string
	balance int64
	region  int64
	note    string
}

func (a account) cells() []any {
	return []any{a.id, a.acct, a.owner, a.balance, a.region, a.note}
}

// userBytes is the size of the row's plaintext in the engine's canonical
// value encoding — the denominator of stored_bytes_per_user_byte.
func (a account) userBytes() int64 {
	n := 0
	for _, v := range []sqltypes.Value{sqltypes.Int(a.id), sqltypes.Str(a.acct), sqltypes.Str(a.owner),
		sqltypes.Int(a.balance), sqltypes.Int(a.region), sqltypes.Str(a.note)} {
		n += len(v.Encode())
	}
	return int64(n)
}

// putInt64 appends v to h in a fixed byte order.
func putInt64(h hash.Hash, v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func (a account) hashInto(h hash.Hash) {
	for _, v := range []int64{a.id, a.balance, a.region} {
		putInt64(h, v)
	}
	for _, s := range []string{a.acct, a.owner, a.note} {
		putInt64(h, int64(len(s)))
		h.Write([]byte(s))
	}
}

// ownerNames is the owner-name vocabulary: LIKE predicates use one of these
// as the prefix, so each matches about 1/len(ownerNames) of the table.
var ownerNames = func() []string {
	syl := []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}
	var out []string
	for _, a := range syl {
		for _, b := range syl[:5] {
			out = append(out, a+b)
		}
	}
	return out
}()

func genAccount(rng *rand.Rand, id int64) account {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	note := make([]byte, 20+rng.Intn(21))
	for i := range note {
		note[i] = alpha[rng.Intn(len(alpha))]
	}
	return account{
		id:      id,
		acct:    fmt.Sprintf("AC%010d", id*7919%10_000_000_000),
		owner:   fmt.Sprintf("%s-%05d", ownerNames[rng.Intn(len(ownerNames))], rng.Intn(100000)),
		balance: rng.Int63n(encBalanceDomain),
		region:  rng.Int63n(50),
		note:    string(note),
	}
}

// encDB is the database/sql handle the enc_* clients share, layered
// aesql → pool → driver exactly as an application would use it.
type encDB struct {
	db        *sql.DB
	connector *aesql.Connector
}

var trustSeq atomic.Int64

func openEncDB(w *world) *encDB {
	// Trust bundles are registered process-wide by name; a fresh name per
	// world keeps repeated set-ups in one process from sharing anchors.
	name := fmt.Sprintf("bench-%d", trustSeq.Add(1))
	aesql.RegisterTrust(name, aesql.Trust{Policy: &w.policy, Providers: w.providers, Obs: w.obs})
	connector := aesql.NewConnector(aesql.Config{
		Primary: w.addr, AlwaysEncrypted: true, TrustName: name,
		// No replicas: keep the pool's health loop out of the measurement.
		HealthInterval: -1,
	})
	return &encDB{db: sql.OpenDB(connector), connector: connector}
}

// primeConnections checks n transport connections out of the pool at once
// and runs one enclave statement on each, so each has attested and installed
// the CEK before the clients start. Without it a client whose first enclave
// operation is a bulk batch can fail with "enclave: unknown session": the
// pool-wide describe cache serves a connection that never attested the
// metadata another connection's attestation produced. driver.Conn.Exec
// recovers by dropping the entry and describing again; BulkInsert has no
// such retry. The benchmark may only run workloads on which nothing fails,
// so it warms the connections the way an application hitting this would.
func (e *encDB) primeConnections(n int) error {
	p, err := e.connector.Pool()
	if err != nil {
		return err
	}
	for held := 0; held < n; held++ {
		pc, err := p.Acquire(context.Background())
		if err != nil {
			return err
		}
		// Released only when the function returns, so every Acquire dials a
		// further connection.
		defer pc.Release()
		if _, err := pc.Exec(sqlEncPoint, args{"a": sv("AC0000000000")}); err != nil {
			return fmt.Errorf("priming pooled connection %d: %w", held+1, err)
		}
	}
	return nil
}

// bulkInsert sends rows through the aesql bulk-load fast path.
func (e *encDB) bulkInsert(ctx context.Context, rows []account) error {
	conn, err := e.db.Conn(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	cells := make([][]any, len(rows))
	for i, r := range rows {
		cells[i] = r.cells()
	}
	return conn.Raw(func(dc any) error {
		n, err := dc.(aesql.BulkInserter).BulkInsert(ctx, "accounts", encCols, cells)
		if err == nil && int(n) != len(rows) {
			err = fmt.Errorf("bulk insert acknowledged %d of %d rows", n, len(rows))
		}
		return err
	})
}

// createEncSchema issues the DDL over an in-process connection.
func createEncSchema(w *world) error {
	conn := w.pipe()
	defer conn.Close()
	for _, ddl := range encSchema {
		if _, err := conn.Exec(strings.Join(strings.Fields(ddl), " "), nil); err != nil {
			return fmt.Errorf("enc schema: %w", err)
		}
	}
	return nil
}

// shadow is the plaintext model of the accounts table the correctness gate
// compares the decrypted table against.
type shadow struct {
	rows map[int64]account
}

func newShadow(rows []account) *shadow {
	s := &shadow{rows: make(map[int64]account, len(rows))}
	for _, r := range rows {
		s.rows[r.id] = r
	}
	return s
}

// apply folds one executed write into the model; reads leave it unchanged.
func (s *shadow) apply(op *encOp) {
	switch op.kind {
	case encInsert:
		s.rows[op.a.id] = op.a
	case encUpdate:
		a := s.rows[op.a.id]
		a.balance = op.a.balance
		s.rows[op.a.id] = a
	case encDelete:
		delete(s.rows, op.a.id)
	case encBulk:
		for _, r := range op.rows {
			s.rows[r.id] = r
		}
	}
}

func (s *shadow) digest() (int, string) {
	ids := make([]int64, 0, len(s.rows))
	for id := range s.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	for _, id := range ids {
		s.rows[id].hashInto(h)
	}
	return len(ids), hex.EncodeToString(h.Sum(nil)[:16])
}

// diff describes how other differs from s, for the gate's error message.
func (s *shadow) diff(other *shadow) string {
	var missing, extra, changed []int64
	for id, want := range s.rows {
		got, ok := other.rows[id]
		switch {
		case !ok:
			missing = append(missing, id)
		case got != want:
			changed = append(changed, id)
		}
	}
	for id := range other.rows {
		if _, ok := s.rows[id]; !ok {
			extra = append(extra, id)
		}
	}
	for _, l := range [][]int64{missing, extra, changed} {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}
	head := func(l []int64) []int64 { return l[:min(len(l), 8)] }
	return fmt.Sprintf("%d rows missing (first ids %v), %d unexpected (%v), %d with other contents (%v)",
		len(missing), head(missing), len(extra), head(extra), len(changed), head(changed))
}

// readTable reads the whole table back through database/sql, decrypting
// every cell.
func readTable(ctx context.Context, db *sql.DB) (*shadow, error) {
	rs, err := db.QueryContext(ctx, sqlEncAll)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	var rows []account
	for rs.Next() {
		var a account
		if err := rs.Scan(&a.id, &a.acct, &a.owner, &a.balance, &a.region, &a.note); err != nil {
			return nil, err
		}
		rows = append(rows, a)
	}
	if err := rs.Err(); err != nil {
		return nil, err
	}
	s := newShadow(rows)
	if len(s.rows) != len(rows) {
		return nil, fmt.Errorf("accounts holds duplicate ids: %d rows, %d distinct", len(rows), len(s.rows))
	}
	return s, nil
}

// encOp is one pre-generated operation: everything the server will see is
// fixed before the clock starts.
type encOp struct {
	kind encKind
	a    account // insert: the row; update: id and new balance; delete: id; point: the expected row
	lo   int64   // range bounds
	hi   int64
	like string    // LIKE prefix
	rows []account // bulk batch
	want int       // expected row count of a read
}

// encClient plays its pre-generated operations against the shared
// database/sql handle and checks every result against the shadow model.
type encClient struct {
	db    *encDB
	ops   []encOp
	base  encKind // first kind of the workload's mix
	pos   int
	calls callTimer
	ctx   context.Context
}

func (c *encClient) timer() *callTimer { return &c.calls }

func (c *encClient) call(fn func() error) error {
	defer c.calls.since(time.Now())
	return fn()
}

func (c *encClient) next() (int, error) {
	if c.pos >= len(c.ops) {
		return 0, fmt.Errorf("enc client ran out of its %d generated operations", len(c.ops))
	}
	op := &c.ops[c.pos]
	c.pos++
	var err error
	switch op.kind {
	case encRange:
		err = c.query(op, sqlEncRange, sql.Named("lo", op.lo), sql.Named("hi", op.hi))
	case encPoint:
		err = c.query(op, sqlEncPoint, sql.Named("a", op.a.acct))
	case encLike:
		err = c.query(op, sqlEncLike, sql.Named("p", op.like+"%"))
	case encInsert:
		a := op.a
		err = c.exec(sqlEncInsert, sql.Named("id", a.id), sql.Named("acct", a.acct), sql.Named("owner", a.owner),
			sql.Named("balance", a.balance), sql.Named("region", a.region), sql.Named("note", a.note))
	case encUpdate:
		err = c.exec(sqlEncUpdate, sql.Named("b", op.a.balance), sql.Named("id", op.a.id))
	case encDelete:
		err = c.exec(sqlEncDelete, sql.Named("id", op.a.id))
	case encBulk:
		err = c.call(func() error { return c.db.bulkInsert(c.ctx, op.rows) })
	}
	return int(op.kind - c.base), err
}

// exec runs one single-row write and checks it touched exactly one row.
func (c *encClient) exec(query string, params ...any) error {
	return c.call(func() error {
		res, err := c.db.db.ExecContext(c.ctx, query, params...)
		if err != nil {
			return err
		}
		if n, _ := res.RowsAffected(); n != 1 {
			return fmt.Errorf("%s affected %d rows, want 1", query, n)
		}
		return nil
	})
}

// query runs one read and checks the result: every row satisfies the
// predicate (decrypted client-side) and the row count is what the shadow
// model predicts.
func (c *encClient) query(op *encOp, query string, params ...any) error {
	got := 0
	err := c.call(func() error {
		rs, err := c.db.db.QueryContext(c.ctx, query, params...)
		if err != nil {
			return err
		}
		defer rs.Close()
		for rs.Next() {
			var id, balance int64
			var owner string
			switch op.kind {
			case encRange:
				err = rs.Scan(&id, &balance)
				if err == nil && (balance < op.lo || balance > op.hi) {
					err = fmt.Errorf("range [%d,%d] returned balance %d", op.lo, op.hi, balance)
				}
			case encPoint:
				err = rs.Scan(&id, &owner, &balance)
				if err == nil && (id != op.a.id || owner != op.a.owner || balance != op.a.balance) {
					err = fmt.Errorf("point lookup of %s returned id %d", op.a.acct, id)
				}
			case encLike:
				err = rs.Scan(&id, &owner)
				if err == nil && !strings.HasPrefix(owner, op.like) {
					err = fmt.Errorf("LIKE %s%% returned owner %s", op.like, owner)
				}
			}
			if err != nil {
				return err
			}
			got++
		}
		return rs.Err()
	})
	if err == nil && got != op.want {
		err = fmt.Errorf("%s returned %d rows, want %d", query, got, op.want)
	}
	return err
}

// genRangeOps pre-generates a read-only mix over the loaded table: 60% range
// over balance, 25% point on acct, 15% LIKE on owner, dealt from a deck.
// Keys are drawn Zipfian so the buffer pool sees a hot set and a cold tail.
// Which keys are hot is fixed (rank r is row r, balance window r, name r):
// the seed changes the order of the operations, not what each one costs.
func genRangeOps(rng *rand.Rand, rows []account, n int) []encOp {
	balances := make([]int64, len(rows))
	prefixCount := make(map[string]int)
	for i, r := range rows {
		balances[i] = r.balance
		prefixCount[r.owner[:strings.IndexByte(r.owner, '-')]]++
	}
	sort.Slice(balances, func(i, j int) bool { return balances[i] < balances[j] })
	inRange := func(lo, hi int64) int {
		a := sort.Search(len(balances), func(i int) bool { return balances[i] >= lo })
		b := sort.Search(len(balances), func(i int) bool { return balances[i] > hi })
		return b - a
	}
	// A window holds about half the LIMIT's worth of rows on average, so
	// most range queries return a variable, non-truncated row count.
	width := int64(encBalanceDomain / len(rows) * encRangeLimit / 2)
	if width < 1 {
		width = 1
	}
	zipfRow := rand.NewZipf(rng, 1.1, 1, uint64(len(rows)-1))
	zipfWindow := rand.NewZipf(rng, 1.1, 1, uint64(encBalanceDomain/width-1))
	zipfName := rand.NewZipf(rng, 1.1, 1, uint64(len(ownerNames)-1))
	kinds := newDeck(rng, 12, 5, 3)

	ops := make([]encOp, n)
	for i := range ops {
		switch encKind(kinds.next()) {
		case encRange:
			lo := int64(zipfWindow.Uint64()) * width
			hi := lo + width - 1
			ops[i] = encOp{kind: encRange, lo: lo, hi: hi, want: min(inRange(lo, hi), encRangeLimit)}
		case encPoint:
			ops[i] = encOp{kind: encPoint, a: rows[zipfRow.Uint64()], want: 1}
		case encLike:
			name := ownerNames[zipfName.Uint64()]
			ops[i] = encOp{kind: encLike, like: name, want: min(prefixCount[name], encRangeLimit)}
		}
	}
	return ops
}

// genIngestOps pre-generates one client's write mix and folds it into sh:
// 50% INSERT, 25% UPDATE balance, 10% DELETE, 15% bulk batches, dealt from a
// deck. Client k of m owns the ids congruent to k mod m — new ids and the
// targets of its updates and deletes alike — so the final table is the same
// whatever the interleaving. firstNew is the first id not in the loaded
// table.
func genIngestOps(rng *rand.Rand, sh *shadow, k, m int, firstNew int64, n int) []encOp {
	var own []int64 // live ids this client may update or delete
	for id := range sh.rows {
		if int(id)%m == k {
			own = append(own, id)
		}
	}
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	next := firstNew
	for int(next)%m != k {
		next++
	}
	newAccount := func() account {
		a := genAccount(rng, next)
		next += int64(m)
		own = append(own, a.id)
		return a
	}
	kinds := newDeck(rng, 10, 5, 2, 3)
	ops := make([]encOp, n)
	for i := range ops {
		switch encInsert + encKind(kinds.next()) {
		case encInsert:
			ops[i] = encOp{kind: encInsert, a: newAccount()}
		case encUpdate:
			a := sh.rows[own[rng.Intn(len(own))]]
			a.balance = rng.Int63n(encBalanceDomain)
			ops[i] = encOp{kind: encUpdate, a: a}
		case encDelete:
			j := rng.Intn(len(own))
			ops[i] = encOp{kind: encDelete, a: account{id: own[j]}}
			own[j] = own[len(own)-1]
			own = own[:len(own)-1]
		case encBulk:
			batch := make([]account, encBulkRows)
			for j := range batch {
				batch[j] = newAccount()
			}
			ops[i] = encOp{kind: encBulk, rows: batch}
		}
		sh.apply(&ops[i])
	}
	return ops
}

func hashOps(h hash.Hash, ops []encOp) {
	for i := range ops {
		op := &ops[i]
		putInt64(h, int64(op.kind))
		putInt64(h, op.lo)
		putInt64(h, op.hi)
		h.Write([]byte(op.like))
		op.a.hashInto(h)
		for _, r := range op.rows {
			r.hashInto(h)
		}
	}
}
