package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/driver"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/exprsvc"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
	"alwaysencrypted/internal/tds"
	"alwaysencrypted/internal/tpcc"
)

// The ladder times each layer's exported entry points in isolation: fixed
// iteration counts, five repetitions, the median reported. Inputs have the
// shape of the workload a rung hangs from (see the README's table), but the
// ladder needs none of the workload's state: it builds one small TPC-C
// deployment in the RND configuration plus free-standing storage structures,
// so every traced run can report every rung.

const ladderReps = 5

// rung runs fn iters times per repetition and returns the median time and
// the median number of heap allocations per call. Allocation counts are
// process-wide, which is exact here: nothing else allocates while a rung
// runs (idle enclave workers spin or park without allocating).
func rung(iters int, fn func(i int) error) (nsPerCall, allocsPerCall float64, err error) {
	ns := make([]float64, ladderReps)
	allocs := make([]float64, ladderReps)
	for r := 0; r < ladderReps; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(r*iters + i); err != nil {
				return 0, 0, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns[r] = float64(elapsed) / float64(iters)
		allocs[r] = float64(m1.Mallocs-m0.Mallocs) / float64(iters)
	}
	return median(ns), median(allocs), nil
}

// ladder accumulates rung results, stopping at the first failure.
type ladder struct {
	m   map[string]metric
	div int // divides every rung's iteration count
	err error
}

// size scales a fixture's element count the way time scales iterations.
func (l *ladder) size(n int) int { return max(n/l.div, 64) }

// time records fn's cost as name (in ns per unit, a call doing per units of
// work) and, when allocName is set, its allocations per call.
func (l *ladder) time(name, allocName string, iters int, per float64, fn func(i int) error) {
	if l.err != nil {
		return
	}
	iters = max(iters/l.div, 1)
	ns, allocs, err := rung(iters, fn)
	if err != nil {
		l.err = fmt.Errorf("ladder %s: %w", name, err)
		return
	}
	l.m[name] = metric{Value: ns / per, Unit: "ns", Samples: iters * ladderReps}
	if allocName != "" {
		l.m[allocName] = metric{Value: allocs, Unit: "count", Samples: iters * ladderReps}
	}
}

var ladderScale = tpcc.Scale{
	Warehouses: 1, DistrictsPerWarehouse: 10, CustomersPerDistrict: 60,
	Items: 200, InitialOrdersPerDistrict: 9,
}

// runLadder measures every rung. div divides every iteration count; the
// benchmark always passes 1, the schema test a large number.
func runLadder(div int, replica *replicaHost) (map[string]metric, error) {
	w, err := newTPCCWorld(tpcc.ModeRND, ladderScale, false)
	if err != nil {
		return nil, err
	}
	defer w.close()
	l := &ladder{m: map[string]metric{}, div: div}
	l.engineAndWire(w)
	l.driverAndCrypto(w)
	l.enclaveAndIndexReads(w)
	l.storageAndRedo(w, replica)
	if l.err != nil {
		return nil, l.err
	}
	return l.m, nil
}

// rescale re-expresses a rung timed in nanoseconds per call in another unit.
func (l *ladder) rescale(name, unit string, f func(ns float64) float64) {
	if l.err == nil {
		m := l.m[name]
		l.m[name] = metric{Value: f(m.Value), Unit: unit, Samples: m.Samples}
	}
}

func itemParam(i int) args { return args{"i": iv(int64(1 + i%ladderScale.Items))} }

func wireParams(a args) map[string][]byte {
	out := make(map[string][]byte, len(a))
	for k, v := range a {
		out[k] = v.Encode()
	}
	return out
}

// engineAndWire is the tpcc_pt group: statements with no AE work at all,
// first inside the engine, then across the wire.
func (l *ladder) engineAndWire(w *world) {
	l.time("engine.parse_ns", "engine.parse_allocs", 40*len(tpccStatements), 1, func(i int) error {
		_, err := engine.Parse(tpccStatements[i%len(tpccStatements)])
		return err
	})
	l.time("engine.describe_ns", "", 20000, 1, func(int) error {
		_, err := w.engine.Describe(sqlCustomerByName)
		return err
	})
	sess := w.engine.NewSession()
	l.time("engine.execute_point_ns", "engine.execute_point_allocs", 5000, 1, func(i int) error {
		_, err := sess.Execute(sqlItemPrice, engine.Params(wireParams(itemParam(i))))
		return err
	})
	conn, err := tds.Dial(w.addr)
	if err != nil {
		l.err = err
		return
	}
	defer conn.Close()
	// Same statement, same engine, over loopback TCP: the difference to the
	// rung above is the wire (framing, codec, socket, session dispatch).
	l.time("tds.exec_rtt_ns", "tds.exec_rtt_allocs", 2000, 1, func(i int) error {
		_, err := conn.Exec(sqlItemPrice, wireParams(itemParam(i)))
		return err
	})

	// A bulk batch shaped like 64 order lines.
	rows := make([][][]byte, 64)
	for r := range rows {
		for _, v := range []sqltypes.Value{iv(1), iv(int64(r % 10)), iv(int64(3000 + r)), iv(int64(r)), iv(int64(r * 7)),
			iv(1), sqltypes.Datetime(0), iv(5), fv(42.5), sv("dist-info-123456789012")} {
			rows[r] = append(rows[r], v.Encode())
		}
	}
	payload := tds.EncodeCellRows(rows)
	l.time("tds.cellrows_encode_ns_per_row", "", 2000, float64(len(rows)), func(int) error {
		payload = tds.EncodeCellRows(rows)
		return nil
	})
	l.time("tds.cellrows_decode_ns_per_row", "", 2000, float64(len(rows)), func(int) error {
		_, err := tds.DecodeCellRows(payload)
		return err
	})
}

// customerByName is an enclave-requiring statement: c_last is RND-encrypted.
func customerByName(i int) args {
	return args{"w": iv(1), "d": iv(int64(1 + i%10)), "l": sv(tpcc.LastName(i % nameSpace(ladderScale)))}
}

// driverAndCrypto is the tpcc_rnd group: what the AE connection adds.
func (l *ladder) driverAndCrypto(w *world) {
	if l.err != nil {
		return
	}
	cached, err := w.dial(nil)
	if err != nil {
		l.err = err
		return
	}
	defer cached.Close()
	l.time("driver.exec_cached_ns", "", 2000, 1, func(i int) error {
		_, err := cached.Exec(sqlItemPrice, itemParam(i))
		return err
	})
	cfg := w.driverConfig()
	cfg.DescribeCache = false
	uncached, err := driver.Dial(w.addr, cfg, nil)
	if err != nil {
		l.err = err
		return
	}
	defer uncached.Close()
	// Describe cache off: the extra sp_describe round trip of Fig. 8.
	l.time("driver.exec_describe_ns", "", 2000, 1, func(i int) error {
		_, err := uncached.Exec(sqlItemPrice, itemParam(i))
		return err
	})
	// Dial, attest, unwrap and install the CEK, run the first enclave
	// statement: what a fresh connection pays before its caches are warm.
	l.time("driver.connect_attest_us", "", 8, 1, func(i int) error {
		c, err := w.dial(nil)
		if err != nil {
			return err
		}
		defer c.Close()
		_, err = c.Exec(sqlCustomerByName, customerByName(i))
		return err
	})
	l.rescale("driver.connect_attest_us", "us", func(ns float64) float64 { return ns / 1e3 })

	key, err := ladderCellKey(w)
	if err != nil {
		l.err = err
		return
	}
	defer key.Zeroize()
	plain := sv("BARBARBAR").Encode()
	l.time("aecrypto.encrypt_rnd_ns", "aecrypto.encrypt_allocs", 20000, 1, func(int) error {
		_, err := key.Encrypt(plain, aecrypto.Randomized)
		return err
	})
	l.time("aecrypto.encrypt_det_ns", "", 20000, 1, func(int) error {
		_, err := key.Encrypt(plain, aecrypto.Deterministic)
		return err
	})
	ct, err := key.Encrypt(plain, aecrypto.Randomized)
	if err != nil {
		l.err = err
		return
	}
	l.time("aecrypto.decrypt_ns", "", 20000, 1, func(int) error {
		_, err := key.Decrypt(ct)
		return err
	})
}

// ladderCellKey unwraps the world's CEK through the vault, as a driver does.
func ladderCellKey(w *world) (*aecrypto.CellKey, error) {
	cek, err := w.engine.Catalog().CEK(tpcc.CEKName)
	if err != nil {
		return nil, err
	}
	cmk, err := w.engine.Catalog().CMK(tpcc.CMKName)
	if err != nil {
		return nil, err
	}
	root, err := w.vault.Unwrap(cmk.KeyPath, cek.PrimaryValue().EncryptedValue)
	if err != nil {
		return nil, err
	}
	defer aecrypto.Zeroize(root)
	return aecrypto.NewCellKey(root)
}

func rndInt(cek string) exprsvc.EncInfo {
	return exprsvc.EncInfo{Kind: sqltypes.KindInt, Enc: sqltypes.EncType{
		Scheme: sqltypes.SchemeRandomized, CEKName: cek, EnclaveEnabled: true}}
}

// encryptInts encrypts n distinct integers under key.
func encryptInts(key *aecrypto.CellKey, n int, typ aecrypto.EncryptionType) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		ct, err := key.Encrypt(iv(int64(i*37%n)).Encode(), typ)
		if err != nil {
			return nil, err
		}
		out[i] = ct
	}
	return out, nil
}

// enclaveAndIndexReads is the enc_range group: enclave evaluation, the
// expression service on both sides of the boundary, and index seeks with
// host-side and enclave-side ordering. The world's enclave already holds
// the CEK (the connect_attest rung installed it).
func (l *ladder) enclaveAndIndexReads(w *world) {
	if l.err != nil {
		return
	}
	key, err := ladderCellKey(w)
	if err != nil {
		l.err = err
		return
	}
	defer key.Zeroize()
	cts, err := encryptInts(key, l.size(2000), aecrypto.Randomized)
	if err != nil {
		l.err = err
		return
	}

	info := rndInt(tpcc.CEKName)
	eq := exprsvc.Cmp{Op: exprsvc.CmpEQ, L: exprsvc.SlotRef{Slot: 0, Info: info}, R: exprsvc.SlotRef{Slot: 1, Info: info}}
	prog, err := exprsvc.Compile("ladder-eq", eq, []exprsvc.EncInfo{info, info})
	if err != nil {
		l.err = err
		return
	}
	handle, err := w.encl.RegisterExpression(prog.Subs[0])
	if err != nil {
		l.err = err
		return
	}
	batch := make([][][]byte, 256)
	for i := range batch {
		batch[i] = [][]byte{cts[i%len(cts)], cts[(i+1)%len(cts)]}
	}
	evalBatch := func(n int) func(int) error {
		return func(int) error {
			_, errs, err := w.encl.EvalExpressionBatch(handle, batch[:n])
			if err == nil {
				err = errs[0]
			}
			return err
		}
	}
	l.time("enclave.eval_b1_ns_per_row", "", 3000, 1, evalBatch(1))
	l.time("enclave.eval_b256_ns_per_row", "", 30, 256, evalBatch(256))
	l.time("enclave.compare_ns", "enclave.compare_allocs", 3000, 1, func(i int) error {
		_, err := w.encl.Compare(tpcc.CEKName, cts[i%len(cts)], cts[(i+7)%len(cts)])
		return err
	})

	// DET equality stays on the host (ciphertext comparison); RND equality
	// crosses into the enclave.
	detInfo := exprsvc.EncInfo{Kind: sqltypes.KindInt, Enc: sqltypes.EncType{Scheme: sqltypes.SchemeDeterministic, CEKName: tpcc.CEKName}}
	detProg, err := exprsvc.Compile("ladder-det", exprsvc.Cmp{Op: exprsvc.CmpEQ,
		L: exprsvc.SlotRef{Slot: 0, Info: detInfo}, R: exprsvc.SlotRef{Slot: 1, Info: detInfo}}, []exprsvc.EncInfo{detInfo, detInfo})
	if err != nil {
		l.err = err
		return
	}
	detEval, err := exprsvc.NewEvaluator(detProg, nil, nil)
	if err != nil {
		l.err = err
		return
	}
	det, err := encryptInts(key, 2, aecrypto.Deterministic)
	if err != nil {
		l.err = err
		return
	}
	l.time("exprsvc.host_det_eq_ns", "", 20000, 1, func(int) error {
		_, err := detEval.EvalBool([][]byte{det[0], det[1]})
		return err
	})
	rndEval, err := exprsvc.NewEvaluator(prog, nil, w.encl)
	if err != nil {
		l.err = err
		return
	}
	l.time("exprsvc.enclave_rnd_eq_ns_per_row", "", 30, 256, func(int) error {
		_, errs, err := rndEval.EvalBoolBatch(batch)
		if err == nil {
			err = errs[0]
		}
		return err
	})

	plainTree := btree.New(&btree.KeyComparator{Cols: []btree.ColumnOrder{btree.BinaryOrder{}}}, false)
	plainKeys := make([][]byte, l.size(5000))
	for i := range plainKeys {
		plainKeys[i] = iv(int64(i * 7919 % 100003)).Encode()
		if err := plainTree.Insert([][]byte{plainKeys[i]}, storage.RowID(i+1)); err != nil {
			l.err = err
			return
		}
	}
	l.time("btree.seek_plain_ns", "", 20000, 1, func(i int) error {
		_, err := plainTree.SeekExact([][]byte{plainKeys[i%len(plainKeys)]}, 1)
		return err
	})
	encTree := btree.New(&btree.KeyComparator{Cols: []btree.ColumnOrder{
		btree.EnclaveOrder{CEK: tpcc.CEKName, Enclave: w.encl}}}, false)
	for i, ct := range cts {
		if err := encTree.Insert([][]byte{ct}, storage.RowID(i+1)); err != nil {
			l.err = err
			return
		}
	}
	l.time("btree.seek_enclave_ns", "", 300, 1, func(i int) error {
		_, err := encTree.SeekExact([][]byte{cts[(i*13)%len(cts)]}, 1)
		return err
	})
}

// storageAndRedo is the enc_ingest group: index maintenance with and without
// the enclave, then every storage-layer primitive a write touches, then the
// log's decode and redo paths.
func (l *ladder) storageAndRedo(w *world, host *replicaHost) {
	if l.err != nil {
		return
	}
	key, err := ladderCellKey(w)
	if err != nil {
		l.err = err
		return
	}
	defer key.Zeroize()

	plainTree := btree.New(&btree.KeyComparator{Cols: []btree.ColumnOrder{btree.BinaryOrder{}}}, false)
	l.time("btree.insert_plain_ns", "", 5000, 1, func(i int) error {
		return plainTree.Insert([][]byte{iv(int64(i * 7919 % 1000003)).Encode()}, storage.RowID(i+1))
	})
	const encInserts = 150
	base := l.size(1000)
	cts, err := encryptInts(key, base+encInserts*ladderReps, aecrypto.Randomized)
	if err != nil {
		l.err = err
		return
	}
	encTree := btree.New(&btree.KeyComparator{Cols: []btree.ColumnOrder{
		btree.EnclaveOrder{CEK: tpcc.CEKName, Enclave: w.encl}}}, false)
	for i := 0; i < base; i++ {
		if err := encTree.Insert([][]byte{cts[i]}, storage.RowID(i+1)); err != nil {
			l.err = err
			return
		}
	}
	l.time("btree.insert_enclave_ns", "btree.insert_enclave_allocs", encInserts, 1, func(i int) error {
		return encTree.Insert([][]byte{cts[base+i]}, storage.RowID(base+1+i))
	})

	pool := storage.NewBufferPool(storage.NewMemStore(), 4096)
	heap, err := storage.NewHeap(pool)
	if err != nil {
		l.err = err
		return
	}
	rec := make([]byte, 200)
	rand.New(rand.NewSource(1)).Read(rec)
	var rids []storage.RowID
	l.time("storage.heap_insert_ns", "", 5000, 1, func(int) error {
		rid, err := heap.Insert(rec)
		rids = append(rids, rid)
		return err
	})
	recs := make([][]byte, 64)
	for i := range recs {
		recs[i] = rec
	}
	l.time("storage.heap_insertbatch_ns_per_row", "", 100, float64(len(recs)), func(int) error {
		_, err := heap.InsertBatch(recs, nil)
		return err
	})
	l.time("storage.heap_get_ns", "", 20000, 1, func(i int) error {
		_, err := heap.Get(rids[(i*31)%len(rids)])
		return err
	})
	l.time("storage.pool_fetch_hit_ns", "", 20000, 1, func(i int) error {
		f, err := pool.Fetch(rids[(i*31)%len(rids)].Page())
		if err == nil {
			pool.Unpin(f, false)
		}
		return err
	})

	locks := storage.NewLockManager()
	l.time("storage.lock_cycle_ns", "", 20000, 1, func(i int) error {
		txn := uint64(i + 1)
		err := locks.Lock(txn, "accounts", storage.RowID(i%512+1))
		locks.ReleaseAll(txn)
		return err
	})
	versions := storage.NewVersionStore()
	l.time("storage.version_record_commit_ns", "", 20000, 1, func(i int) error {
		txn := uint64(i + 1)
		versions.Record(txn, "accounts", storage.RowID(i%512+1), rec)
		versions.Commit(txn)
		return nil
	})
	// A reader resolving a row some uncommitted writer has touched.
	versions.Record(1<<40, "accounts", 7, rec)
	snap := versions.Acquire(0)
	l.time("storage.snapshot_rowimage_ns", "", 20000, 1, func(int) error {
		if _, overridden := snap.RowImage("accounts", 7); !overridden {
			return fmt.Errorf("snapshot does not see the pending version")
		}
		return nil
	})
	snap.Release()

	wal := storage.NewWAL()
	l.time("storage.wal_append_ns", "", 20000, 1, func(i int) error {
		wal.Append(storage.Record{Txn: uint64(i), Type: storage.RecHeapInsert, Table: "accounts", Row: storage.RowID(i), New: rec})
		return nil
	})
	l.time("storage.wal_commitgroup_ns", "", 20000, 1, func(i int) error {
		wal.AppendCommitGroup(storage.Record{Txn: uint64(i), Type: storage.RecCommit}, 0)
		return nil
	})

	// Decode and redo the small world's own log: schema DDL, the bulk load
	// and the statements the rungs above ran.
	data := w.engine.WAL().Serialize()
	l.time("storage.wal_load_mb_s", "", 3, 1, func(int) error {
		_, err := storage.LoadWAL(data)
		return err
	})
	l.rescale("storage.wal_load_mb_s", "MiB/s", func(ns float64) float64 { return float64(len(data)) / (1 << 20) / (ns / 1e9) })
	log, err := storage.LoadWAL(data)
	if err != nil {
		l.err = err
		return
	}
	recsLog := log.Records()
	// Each repetition replays the whole log onto a fresh engine.
	var applier *engine.RedoApplier
	l.time("engine.redo_apply_ns", "", len(recsLog), 1, func(i int) error {
		n := i % len(recsLog)
		if n == 0 {
			applier = engine.NewRedoApplier(host.engine())
		}
		return applier.Apply(&recsLog[n])
	})
}
