package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/engine"
	"alwaysencrypted/internal/storage"
)

// replayStats describes the restart/failover pass: the primary's log is
// serialized, decoded, and replayed record by record onto a fresh replica
// that holds no keys, which is then recovered as a promotion would.
type replayStats struct {
	Seconds       float64   `json:"seconds"`       // median over Reps replays
	ApplySeconds  float64   `json:"apply_seconds"` // the redo loop alone, median
	Reps          int       `json:"reps"`
	RepSeconds    []float64 `json:"rep_seconds"` // every replay, in order
	LogBytes      int       `json:"log_bytes"`
	Records       int       `json:"records"`
	Commits       int       `json:"commits"`
	DeferredTxns  int       `json:"deferred_txns"`
	UndoneTxns    int       `json:"undone_txns"`
	TablesChecked int       `json:"tables_checked"`
}

// replicaHost is what a key-less replica engine runs on: its own enclave
// with no CEK installed (clients only release keys to an enclave they attest
// directly) and its own attestation material. Several engines may share one.
type replicaHost struct {
	cfg   engine.Config
	close func()
}

func newReplicaHost() (*replicaHost, error) {
	authorKey, err := aecrypto.GenerateRSAKey()
	if err != nil {
		return nil, err
	}
	image, err := enclave.SignImage(authorKey, []byte("bench-replica-enclave"), 2)
	if err != nil {
		return nil, err
	}
	encl, err := enclave.Load(image, 10, enclave.Options{
		Threads: 1, SpinDuration: enclaveSpin(), CrossingCost: crossingCost})
	if err != nil {
		return nil, err
	}
	hgs, err := attestation.NewHGS()
	if err != nil {
		encl.Close()
		return nil, err
	}
	tcg := []byte("bench-replica-boot")
	host, err := attestation.NewHost(tcg, 10)
	if err != nil {
		encl.Close()
		return nil, err
	}
	hgs.RegisterHost(tcg)
	return &replicaHost{cfg: engine.Config{Enclave: encl, Host: host, HGS: hgs, CTR: true}, close: encl.Close}, nil
}

// engine returns a fresh, empty, read-only engine over the default
// in-memory store.
func (h *replicaHost) engine() *engine.Engine {
	e := engine.New(h.cfg)
	e.SetReadOnly(true)
	return e
}

// replayOnce serializes the primary's log, decodes it and replays it onto a
// fresh key-less engine, then recovers that engine as a promotion would.
func replayOnce(primary *engine.Engine, host *replicaHost) (*engine.Engine, *replayStats, error) {
	rep := host.engine()
	start := time.Now()
	data := primary.WAL().Serialize()
	log, err := storage.LoadWAL(data)
	if err != nil {
		return nil, nil, err
	}
	recs := log.Records()
	applier := engine.NewRedoApplier(rep)
	applyStart := time.Now()
	st := &replayStats{LogBytes: len(data), Records: len(recs)}
	for i := range recs {
		// Mirror, then apply — what the replication loop and a restart do.
		rep.WAL().AppendAt(recs[i])
		if err := applier.Apply(&recs[i]); err != nil {
			return nil, nil, err
		}
		if recs[i].Type == storage.RecCommit {
			st.Commits++
		}
	}
	st.ApplySeconds = time.Since(applyStart).Seconds()
	rec := rep.Recover()
	st.Seconds = time.Since(start).Seconds()
	st.DeferredTxns = rep.DeferredCount()
	st.UndoneTxns = len(rec.UndoneTxns)
	// The clients are quiescent and every operation was acknowledged, so no
	// transaction may have been in flight in the log.
	if st.UndoneTxns != 0 || len(rec.DeferredTxns) != 0 {
		return nil, nil, fmt.Errorf("replay found %d in-flight transactions to undo and %d to defer; the log should hold only finished ones", st.UndoneTxns, len(rec.DeferredTxns))
	}
	return rep, st, nil
}

// A replay allocates a copy of the whole log and a whole database. The first
// one in a process grows the heap by as much — on tpcc_* from 0.4 to 1 GB —
// and spends a third of its time faulting fresh pages in; the later ones
// reuse that memory, but how much of it the runtime's scavenger has handed
// back in between, and where in a collection cycle a replay starts, still
// move one timing by tens of percent. All of that noise adds time and none
// removes any, so the replay is repeated — after a collection each time,
// which frees the previous replica — at least replayMinReps times and until
// replayMinTotal of replay time has been measured (a read-only workload's log
// replays in milliseconds), and the fastest replay is reported.
const (
	replayMinReps  = 5
	replayMaxReps  = 9
	replayMinTotal = 1500 * time.Millisecond
)

// replayAndCheck times the replay and then runs the durability check: the
// replica, built from the serialized log bytes alone, must hold every table
// byte for byte as the primary does (so every acknowledged commit is there
// and nothing else is) and must reproduce the primary's gate result wherever
// that is computable without keys.
func replayAndCheck(in *instance, host *replicaHost, primary gateResult) (*replayStats, error) {
	var (
		rep     *engine.Engine
		st      *replayStats
		best    *replayStats
		seconds []float64
		total   time.Duration
		err     error
	)
	for len(seconds) < replayMinReps || (total < replayMinTotal && len(seconds) < replayMaxReps) {
		rep = nil // the previous replica is garbage before the next is built
		runtime.GC()
		rep, st, err = replayOnce(in.world.engine, host)
		if err != nil {
			return nil, err
		}
		seconds = append(seconds, st.Seconds)
		total += time.Duration(st.Seconds * float64(time.Second))
		if best == nil || st.Seconds < best.Seconds {
			best = st
		}
	}
	st = best
	st.Reps, st.RepSeconds = len(seconds), seconds

	want, err := heapDigests(in.world.engine)
	if err != nil {
		return nil, err
	}
	got, err := heapDigests(rep)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(want, got) {
		return nil, fmt.Errorf("replica heaps differ from the primary's:\nprimary %v\nreplica %v", want, got)
	}
	st.TablesChecked = len(want)

	rg, err := in.replicaGate(rep)
	if err != nil {
		return nil, fmt.Errorf("replica gate: %w", err)
	}
	if rg.TPCC != nil && !reflect.DeepEqual(rg.TPCC, primary.TPCC) {
		return nil, fmt.Errorf("replica consistency sums %+v differ from the primary's %+v", *rg.TPCC, *primary.TPCC)
	}
	if rg.TPCC == nil && rg.Rows != primary.Rows {
		return nil, fmt.Errorf("replica holds %d rows, primary %d", rg.Rows, primary.Rows)
	}
	return st, nil
}

// tableDigestEntry is one table's physical content: live rows and a digest
// over (row id, record bytes) in heap order. Redo is physical, so a replica
// that applied the same log has identical entries — ciphertext included.
type tableDigestEntry struct {
	Table  string
	Rows   int64
	Digest string
}

func heapDigests(e *engine.Engine) ([]tableDigestEntry, error) {
	names := e.Catalog().Tables()
	sort.Strings(names)
	out := make([]tableDigestEntry, 0, len(names))
	for _, name := range names {
		tbl, err := e.Catalog().Table(name)
		if err != nil {
			return nil, err
		}
		h := sha256.New()
		var rows int64
		err = tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
			rows++
			putInt64(h, int64(rid))
			putInt64(h, int64(len(rec)))
			h.Write(rec)
			return true, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, tableDigestEntry{name, rows, hex.EncodeToString(h.Sum(nil)[:16])})
	}
	return out, nil
}
