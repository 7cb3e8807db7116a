package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"

	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
	"alwaysencrypted/internal/tpcc"
)

// client is one closed-loop load generator: next runs one operation to
// completion and returns its type index within the workload; timer exposes
// the time it spent inside calls to the layer below.
type client interface {
	next() (typ int, err error)
	timer() *callTimer
}

// deck deals operation kinds in exact proportions: a hand holding each kind
// as many times as its weight, shuffled, dealt to the end and shuffled again
// (the card-deck method of TPC-C clause 5.2.4.2). A mix drawn independently
// per operation gives a run of a few thousand operations a different share
// of the expensive kinds every time — Delivery is ten transactions, a bulk
// batch 64 rows — and that variance lands on every per-operation metric.
type deck struct {
	cards []int
	pos   int
	rng   *rand.Rand
}

func newDeck(rng *rand.Rand, weights ...int) *deck {
	d := &deck{rng: rng}
	for kind, w := range weights {
		for i := 0; i < w; i++ {
			d.cards = append(d.cards, kind)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// sizing fixes a workload's scale. BENCHMARK.json admits no keys beyond the
// driver's contract, so the scales live here and are echoed into every
// result envelope.
type sizing struct {
	// OpsPerSecond is the workload's nominal committed-operation rate on the
	// reference host. A run asked to measure for S seconds executes exactly
	// OpsPerSecond×S operations, so operation count — and with it WAL length,
	// replay work and every per-operation count — repeats from run to run and
	// from commit to commit, while the measured phase lasts about S seconds
	// on the reference host.
	OpsPerSecond int `json:"ops_per_second_nominal"`
	// WarmupOps fill the plan, describe and CEK caches before measuring.
	WarmupOps int `json:"warmup_ops"`

	TPCC *tpcc.Scale `json:"tpcc_scale,omitempty"`

	// Rows is the accounts table's initial size (enc_* only); PoolPages caps
	// the buffer pool over a FileStore when non-zero.
	Rows      int `json:"rows,omitempty"`
	PoolPages int `json:"buffer_pool_pages,omitempty"`
}

// spec is one workload of the benchmark.
type spec struct {
	name    string
	opNames []string
	// pooled marks the workloads whose clients go through database/sql,
	// aesql and the pool rather than holding a driver.Conn.
	pooled bool
	// setups is how many times an end-to-end run builds the deployment;
	// setup_s is their median. TPC-C set-up is short enough that RSA key
	// generation is a large, random share of it, so it is built three
	// times; the enc_* set-ups are dominated by the deterministic index
	// build and are built once.
	setups int
	full   sizing // the committed scale
	smoke  sizing // tiny scale for the schema test
	build  func(p buildParams) (*instance, error)
}

type buildParams struct {
	size   sizing
	seed   int64
	traced bool
	ops    int    // total operations the clients must be able to run (warm-up and every measured pass)
	dir    string // scratch directory inside the checkout
}

var tpccFullScale = tpcc.Scale{
	Warehouses: 2, DistrictsPerWarehouse: 10, CustomersPerDistrict: 1000,
	Items: 5000, InitialOrdersPerDistrict: 30,
}

var tpccSmokeScale = tpcc.Scale{
	Warehouses: 2, DistrictsPerWarehouse: 10, CustomersPerDistrict: 30,
	Items: 100, InitialOrdersPerDistrict: 9,
}

var specs = []*spec{
	{
		name: "tpcc_pt", opNames: tpccOpNames, setups: 3,
		full:  sizing{OpsPerSecond: 680, WarmupOps: 600, TPCC: &tpccFullScale},
		smoke: sizing{OpsPerSecond: 30, WarmupOps: 20, TPCC: &tpccSmokeScale},
		build: func(p buildParams) (*instance, error) { return buildTPCC(tpcc.ModePlaintext, p) },
	},
	{
		name: "tpcc_rnd", opNames: tpccOpNames, setups: 3,
		full:  sizing{OpsPerSecond: 680, WarmupOps: 600, TPCC: &tpccFullScale},
		smoke: sizing{OpsPerSecond: 30, WarmupOps: 20, TPCC: &tpccSmokeScale},
		build: func(p buildParams) (*instance, error) { return buildTPCC(tpcc.ModeRND, p) },
	},
	{
		name: "enc_range", opNames: encRangeOpNames, pooled: true, setups: 1,
		full:  sizing{OpsPerSecond: 1100, WarmupOps: 1000, Rows: 8000, PoolPages: 80},
		smoke: sizing{OpsPerSecond: 40, WarmupOps: 20, Rows: 600, PoolPages: 8},
		build: buildEncRange,
	},
	{
		name: "enc_ingest", opNames: encIngestOpNames, pooled: true, setups: 1,
		full:  sizing{OpsPerSecond: 165, WarmupOps: 200, Rows: 5000},
		smoke: sizing{OpsPerSecond: 20, WarmupOps: 10, Rows: 300},
		build: buildEncIngest,
	},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// instance is one built, loaded and connected deployment of a workload.
type instance struct {
	world   *world
	clients []client
	// userBytes reports the plaintext bytes the load produced.
	userBytes func() (int64, error)
	// digest identifies the generated input: seed, scale and (where it is
	// fixed up front) the whole operation stream.
	digest string
	// gate is the primary-side correctness check, run after the measured
	// phase. Its result is what the replay replica must reproduce.
	gate func() (gateResult, error)
	// replicaGate recomputes on a replayed, key-less engine whatever part of
	// the gate is computable there.
	replicaGate func(e *engine.Engine) (gateResult, error)
	closers     []func()
}

// gateResult is the logical summary both the primary and the replica must
// agree on.
type gateResult struct {
	TPCC       *tpccSums `json:"tpcc_sums,omitempty"`
	Rows       int       `json:"rows,omitempty"`
	RowsDigest string    `json:"rows_digest,omitempty"`
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
	in.world.close()
}

func buildTPCC(mode tpcc.Mode, p buildParams) (*instance, error) {
	scale := *p.size.TPCC
	w, err := newTPCCWorld(mode, scale, p.traced)
	if err != nil {
		return nil, err
	}
	in := &instance{world: w}
	cache := driver.NewCache() // the process-wide driver caches of §4.1
	h := sha256.New()
	fmt.Fprintf(h, "tpcc %v %+v seed=%d clients=%d", mode, scale, p.seed, numClients())
	for i := 0; i < numClients(); i++ {
		conn, err := w.dial(cache)
		if err != nil {
			in.close()
			return nil, err
		}
		in.closers = append(in.closers, func() { conn.Close() })
		term := newTerminal(conn, scale, 1+i%scale.Warehouses, p.seed*1000+int64(i))
		term.traced = p.traced
		in.clients = append(in.clients, term)
	}
	in.digest = hex.EncodeToString(h.Sum(nil)[:16])

	verifyConn := w.pipe()
	in.closers = append(in.closers, func() { verifyConn.Close() })
	in.userBytes = func() (int64, error) { return tpccUserBytes(verifyConn, w.engine) }
	in.gate = func() (gateResult, error) {
		sums, err := checkTPCCConsistency(func(query string, a args) ([][]sqltypes.Value, error) {
			rows, err := verifyConn.Exec(query, a)
			if err != nil {
				return nil, err
			}
			return rows.Values, nil
		}, scale)
		return gateResult{TPCC: &sums}, err
	}
	in.replicaGate = func(e *engine.Engine) (gateResult, error) {
		sess := e.NewSession()
		sums, err := checkTPCCConsistency(func(query string, a args) ([][]sqltypes.Value, error) {
			return sessionQuery(sess, query, a)
		}, scale)
		return gateResult{TPCC: &sums}, err
	}
	return in, nil
}

// sessionQuery runs a statement over plaintext columns directly on an engine
// session, decoding the wire cells — how the key-less replica is queried.
func sessionQuery(sess *engine.Session, query string, a args) ([][]sqltypes.Value, error) {
	params := make(engine.Params, len(a))
	for name, v := range a {
		params[name] = v.Encode()
	}
	rs, err := sess.Execute(query, params)
	if err != nil {
		return nil, err
	}
	out := make([][]sqltypes.Value, len(rs.Rows))
	for i, row := range rs.Rows {
		out[i] = make([]sqltypes.Value, len(row))
		for j, cell := range row {
			if out[i][j], err = sqltypes.Decode(cell); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// tpccUserBytes reads every table back through the driver (decrypting
// encrypted cells) and sums the canonical encoding of every value: the
// plaintext the loader produced. tpcc.World.Load keeps its generator private,
// so the bytes are counted on the way out instead of on the way in.
func tpccUserBytes(conn *driver.Conn, e *engine.Engine) (int64, error) {
	var total int64
	for _, table := range e.Catalog().Tables() {
		rows, err := conn.Exec("SELECT * FROM "+table, nil)
		if err != nil {
			return 0, fmt.Errorf("reading %s: %w", table, err)
		}
		for _, row := range rows.Values {
			for _, v := range row {
				total += int64(len(v.Encode()))
			}
		}
	}
	return total, nil
}

// storedBytes is what the engine holds for the loaded data: heap pages that
// contain live rows at storage.PageSize each, plus every index entry's key
// cells and row pointer. The B+-trees are in-memory structures without a
// page image, so their entries are counted at their stored size. For an
// encrypted index the key cells are ciphertext envelopes.
func storedBytes(e *engine.Engine) (int64, error) {
	var total int64
	for _, name := range e.Catalog().Tables() {
		tbl, err := e.Catalog().Table(name)
		if err != nil {
			return 0, err
		}
		pages, last := int64(0), storage.InvalidPageID
		err = tbl.Heap.Scan(func(rid storage.RowID, _ []byte) (bool, error) {
			if rid.Page() != last {
				pages++
				last = rid.Page()
			}
			return true, nil
		})
		if err != nil {
			return 0, err
		}
		total += pages * storage.PageSize
		for _, idx := range tbl.Indexes {
			err := idx.Tree.Ascend(func(en btree.Entry) bool {
				total += 8
				for _, k := range en.Key {
					total += int64(len(k))
				}
				return true
			})
			if err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

// encBuild is a loaded enc_* deployment before its clients exist.
type encBuild struct {
	in   *instance
	db   *encDB
	rows []account  // the loaded table, in id order
	rng  *rand.Rand // the seeded stream the operations are drawn from
	h    hash.Hash  // input digest so far
}

// encDataSeed fixes the loaded table, as tpcc.World.Load fixes its own: the
// database is a function of the scale alone, so set-up work, stored bytes
// and the cost of each hot key are the same in every run, and -seed decides
// only the operations the clients send.
const encDataSeed = 7

// buildEnc assembles the enc_* deployment and loads rows through the bulk
// path.
func buildEnc(p buildParams, fileStore bool) (*encBuild, error) {
	opt := encWorldOptions{traced: p.traced}
	if fileStore {
		opt.fileStoreDir = p.dir
		opt.poolPages = p.size.PoolPages
	}
	w, err := newEncWorld(opt)
	if err != nil {
		return nil, err
	}
	b := &encBuild{in: &instance{world: w}, rng: rand.New(rand.NewSource(p.seed)), h: sha256.New()}
	if err := createEncSchema(w); err != nil {
		b.in.close()
		return nil, err
	}
	b.db = openEncDB(w)
	b.in.closers = append(b.in.closers, func() { b.db.db.Close() })

	data := rand.New(rand.NewSource(encDataSeed))
	b.rows = make([]account, p.size.Rows)
	var user int64
	for i := range b.rows {
		b.rows[i] = genAccount(data, int64(i+1))
		user += b.rows[i].userBytes()
	}
	const chunk = 1024
	for i := 0; i < len(b.rows); i += chunk {
		if err := b.db.bulkInsert(context.Background(), b.rows[i:min(i+chunk, len(b.rows))]); err != nil {
			b.in.close()
			return nil, fmt.Errorf("enc load: %w", err)
		}
	}
	b.in.userBytes = func() (int64, error) { return user, nil }
	if err := b.db.primeConnections(numClients()); err != nil {
		b.in.close()
		return nil, err
	}

	fmt.Fprintf(b.h, "enc %+v seed=%d clients=%d", p.size, p.seed, numClients())
	for _, r := range b.rows {
		r.hashInto(b.h)
	}
	b.in.replicaGate = func(e *engine.Engine) (gateResult, error) {
		tbl, err := e.Catalog().Table("accounts")
		if err != nil {
			return gateResult{}, err
		}
		return gateResult{Rows: int(tbl.Heap.Rows())}, nil
	}
	return b, nil
}

// addClients generates each client's operations with gen, wires the clients
// up and installs the correctness gate: the decrypted table must equal the
// loaded rows with every executed operation applied.
func (b *encBuild) addClients(p buildParams, base encKind, gen func(client int, n int) []encOp) *instance {
	perClient := (p.ops + numClients() - 1) / numClients()
	var clients []*encClient
	for i := 0; i < numClients(); i++ {
		ops := gen(i, perClient)
		hashOps(b.h, ops)
		c := &encClient{db: b.db, ops: ops, base: base, ctx: context.Background()}
		clients = append(clients, c)
		b.in.clients = append(b.in.clients, c)
	}
	b.in.digest = hex.EncodeToString(b.h.Sum(nil)[:16])
	b.in.gate = func() (gateResult, error) {
		sh := newShadow(b.rows)
		for _, c := range clients {
			for i := range c.ops[:c.pos] {
				sh.apply(&c.ops[i])
			}
		}
		table, err := readTable(context.Background(), b.db.db)
		if err != nil {
			return gateResult{}, err
		}
		wantN, wantD := sh.digest()
		if n, d := table.digest(); n != wantN || d != wantD {
			return gateResult{}, fmt.Errorf("accounts table diverged from the shadow model: %s", sh.diff(table))
		}
		return gateResult{Rows: wantN, RowsDigest: wantD}, nil
	}
	return b.in
}

func buildEncRange(p buildParams) (*instance, error) {
	b, err := buildEnc(p, true)
	if err != nil {
		return nil, err
	}
	return b.addClients(p, encRange, func(_, n int) []encOp { return genRangeOps(b.rng, b.rows, n) }), nil
}

func buildEncIngest(p buildParams) (*instance, error) {
	b, err := buildEnc(p, false)
	if err != nil {
		return nil, err
	}
	// The generation-time shadow tells the generator which rows are live; the
	// gate rebuilds its own from the operations that actually ran.
	sh := newShadow(b.rows)
	return b.addClients(p, encInsert, func(k, n int) []encOp {
		return genIngestOps(b.rng, sh, k, numClients(), int64(len(b.rows)+1), n)
	}), nil
}
