package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/wire"
)

// RecType enumerates write-ahead log record types. Heap records carry
// physical before/after images (physical redo/undo); index records are
// logical — {key, rowid} pairs whose undo requires navigating the B+-tree,
// which for encrypted range indexes requires enclave comparisons. That split
// is precisely what creates the deferred-transaction problem of §4.5.
type RecType uint8

const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecHeapInsert  // Table, Row, New; CLR only: an exact-slot restore
	RecHeapDelete  // Table, Row, Old
	RecHeapUpdate  // Table, Row, Old, New (Row may move: NewRow set)
	RecIndexInsert // Index (in Table field), Key, Row
	RecIndexDelete // Index (in Table field), Key, Row
	RecCheckpoint
	RecDDL      // DDL statement text; Row carries the first heap page for CREATE TABLE
	RecAlterEnc // encryption-scheme change for one column (Table, DDL = encoded spec)
	// Forward inserts: one record carries the N >= 1 rows of a statement. The
	// packed payload rides in the New field.
	RecHeapInsertMulti  // Table, Row = first RowID, New = EncodeHeapRows payload
	RecIndexInsertMulti // Index (in Table field), New = EncodeIndexEntries payload
)

func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecHeapInsert:
		return "HEAP-INSERT"
	case RecHeapDelete:
		return "HEAP-DELETE"
	case RecHeapUpdate:
		return "HEAP-UPDATE"
	case RecIndexInsert:
		return "INDEX-INSERT"
	case RecIndexDelete:
		return "INDEX-DELETE"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecDDL:
		return "DDL"
	case RecAlterEnc:
		return "ALTER-ENC"
	case RecHeapInsertMulti:
		return "HEAP-INSERT-MULTI"
	case RecIndexInsertMulti:
		return "INDEX-INSERT-MULTI"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record is one WAL entry.
type Record struct {
	LSN    uint64
	Txn    uint64
	Type   RecType
	Table  string // table name, or index name for index records
	Row    RowID
	NewRow RowID    // for updates that relocated the row
	Key    [][]byte // index key components
	Old    []byte   // heap before image
	New    []byte   // heap after image
	DDL    string   // statement text for RecDDL / encoded spec for RecAlterEnc
	// CLR marks a compensation log record: an undo action logged during
	// rollback so that replicas can apply undo physically instead of
	// re-deriving it. A CLR heap insert restores into an exact slot
	// (RestoreAt) rather than appending at the tail.
	CLR bool
	// Trace is the trace ID of the statement that produced this record
	// (zero when untraced). It rides replication batches so replica redo
	// apply can link back to the originating statement's trace; it is an
	// opaque random ID — never derived from data — so shipping it leaks
	// nothing beyond "these records belong to one statement", which the
	// txn ID already reveals.
	Trace trace.ID
}

// WAL is the write-ahead log: an append-only record sequence with monotonic
// LSNs. Truncation is gated by a low-water mark that deferred transactions
// pin (§4.5: if the client never supplies keys, log truncation is blocked).
type WAL struct {
	mu      sync.Mutex
	records []Record
	nextLSN uint64
	// pinned holds LSNs that must survive truncation (deferred txn begins).
	pinned map[uint64]uint64 // txn -> begin LSN
	// streams holds per-replica progress: truncation may not pass the next
	// record a connected replica still needs.
	streams map[string]uint64 // replica id -> highest acked LSN
	base    uint64            // LSN of records[0]
	waiter  chan struct{}     // closed (and replaced) on every append

	// Group commit: concurrent committers enqueue under gcMu (rank 5, the
	// outermost storage lock) and one leader drains the queue into a single
	// append+publish round under mu — one lock acquisition and one waiter
	// wake per batch, and correspondingly fatter Follow batches for
	// replication.
	gcMu     sync.Mutex
	gcQueue  []*gcWaiter
	gcLeader bool

	// SyncDelay models the latency of forcing the log to stable media. The
	// in-memory log has no real device, so the cost group commit exists to
	// amortize — one flush round per batch instead of per commit — is
	// invisible unless the model charges it. Zero (the default) keeps the
	// log free, as every functional test expects; the write benchmark sets
	// it to study commit-path batching. Set before use; not synchronized.
	SyncDelay time.Duration

	// syncMu serializes simulated flushes (rank 15): a log device retires
	// one flush at a time, which is exactly why a per-commit flush is a
	// throughput ceiling and a per-batch flush is not.
	syncMu sync.Mutex
}

// gcWaiter is one queued commit append.
type gcWaiter struct {
	rec      Record
	lsn      uint64
	done     chan struct{}
	promoted bool // woken to take over leadership, not to return
}

// NewWAL returns an empty log.
func NewWAL() *WAL {
	return &WAL{nextLSN: 1, pinned: make(map[uint64]uint64), streams: make(map[string]uint64)}
}

// Append adds a record, assigning and returning its LSN.
func (w *WAL) Append(rec Record) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec.LSN = w.nextLSN
	w.nextLSN++
	if len(w.records) == 0 {
		w.base = rec.LSN
	}
	w.records = append(w.records, rec)
	w.wakeLocked()
	return rec.LSN
}

// sync charges one stable-media flush round, if the log models one.
// Sub-millisecond delays spin (time.Sleep overshoots by a timer tick, which
// at device scale is the whole budget — the enclave's crossing-cost model
// spins for the same reason); longer delays sleep and yield the CPU, as a
// real driver blocked on a device would.
func (w *WAL) sync() {
	if w.SyncDelay <= 0 {
		return
	}
	w.syncMu.Lock()
	if w.SyncDelay < time.Millisecond {
		for start := time.Now(); time.Since(start) < w.SyncDelay; {
		}
	} else {
		time.Sleep(w.SyncDelay)
	}
	w.syncMu.Unlock()
}

// AppendAt mirrors a record that already carries an LSN assigned elsewhere —
// the replica's local copy of the primary's log. Records whose LSN is below
// the local high-water mark are ignored, which makes replaying an overlapping
// stream after reconnect harmless.
func (w *WAL) AppendAt(rec Record) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if rec.LSN < w.nextLSN {
		return
	}
	if len(w.records) == 0 {
		w.base = rec.LSN
	}
	w.records = append(w.records, rec)
	w.nextLSN = rec.LSN + 1
	w.wakeLocked()
}

// AppendCommitGroup appends a commit record through the group-commit
// protocol: the caller enqueues and either becomes the leader — waiting out
// the window, then flushing every queued commit in one append round — or
// blocks until a leader has published its record. The returned LSN is
// assigned only after the record is in the log, so an acknowledged commit is
// always durable at acknowledgment time. window <= 0 coalesces whatever has
// queued behind the previous leader's round without adding latency.
func (w *WAL) AppendCommitGroup(rec Record, window time.Duration) uint64 {
	g := &gcWaiter{rec: rec, done: make(chan struct{})}
	w.gcMu.Lock()
	w.gcQueue = append(w.gcQueue, g)
	lead := !w.gcLeader
	w.gcLeader = true
	w.gcMu.Unlock()

	if !lead {
		<-g.done
		if !g.promoted {
			return g.lsn
		}
		// Promoted: the previous leader retired while this waiter's record
		// was still queued; it takes over the flush (its own record included).
	}
	if window > 0 {
		time.Sleep(window)
	}
	w.gcMu.Lock()
	batch := w.gcQueue
	w.gcQueue = nil
	// gcLeader stays set: commits arriving during the append become
	// followers of this round and are flushed by the next one.
	w.gcMu.Unlock()

	w.mu.Lock()
	for _, m := range batch {
		r := m.rec
		r.LSN = w.nextLSN
		w.nextLSN++
		if len(w.records) == 0 {
			w.base = r.LSN
		}
		w.records = append(w.records, r)
		m.lsn = r.LSN
	}
	w.wakeLocked()
	w.mu.Unlock()

	// One flush round covers the whole batch — the amortization that is the
	// point of the protocol. Commits arriving while the device is busy queue
	// behind this round and ride the next leader's (fatter) batch.
	w.sync()

	w.gcMu.Lock()
	if len(w.gcQueue) > 0 {
		next := w.gcQueue[0]
		next.promoted = true
		close(next.done)
	} else {
		w.gcLeader = false
	}
	w.gcMu.Unlock()

	for _, m := range batch {
		if m != g {
			close(m.done)
		}
	}
	return g.lsn
}

func (w *WAL) wakeLocked() {
	if w.waiter != nil {
		close(w.waiter)
		w.waiter = nil
	}
}

// NextLSN returns the LSN the next appended record will receive.
func (w *WAL) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Errors from the streaming reader.
var (
	// ErrLSNTruncated means the requested start LSN has already been
	// truncated away; the follower must re-seed from a full copy.
	ErrLSNTruncated = errors.New("storage: requested LSN already truncated")
	// ErrFollowStopped is returned when the stop channel fires mid-wait.
	ErrFollowStopped = errors.New("storage: follow stopped")
)

// Follow returns up to max records starting at LSN from, blocking until at
// least one is available. If wait > 0 and nothing arrives within it, Follow
// returns an empty batch with a nil error — a heartbeat carrying the current
// next-LSN so followers can measure lag on an idle primary. The second return
// is the log's next LSN at snapshot time.
func (w *WAL) Follow(from uint64, max int, stop <-chan struct{}, wait time.Duration) ([]Record, uint64, error) {
	for {
		w.mu.Lock()
		if from < w.base {
			low := w.base
			w.mu.Unlock()
			return nil, 0, fmt.Errorf("%w: LSN %d < retained base %d", ErrLSNTruncated, from, low)
		}
		if n := len(w.records); n > 0 && from <= w.records[n-1].LSN {
			i := sort.Search(n, func(i int) bool { return w.records[i].LSN >= from })
			end := n
			if max > 0 && i+max < end {
				end = i + max
			}
			out := make([]Record, end-i)
			copy(out, w.records[i:end])
			next := w.nextLSN
			w.mu.Unlock()
			return out, next, nil
		}
		// Caught up: wait for the next append.
		if w.waiter == nil {
			w.waiter = make(chan struct{})
		}
		ch := w.waiter
		next := w.nextLSN
		w.mu.Unlock()

		var timer *time.Timer
		var timeout <-chan time.Time
		if wait > 0 {
			timer = time.NewTimer(wait)
			timeout = timer.C
		}
		select {
		case <-ch:
			if timer != nil {
				timer.Stop()
			}
		case <-stop:
			if timer != nil {
				timer.Stop()
			}
			return nil, next, ErrFollowStopped
		case <-timeout:
			return nil, next, nil
		}
	}
}

// PinStream records a replica's replication progress: records after ack must
// survive truncation while the stream is registered.
func (w *WAL) PinStream(id string, ackLSN uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.streams[id] = ackLSN
}

// UnpinStream drops a replica's hold on the log (replica disconnected; if it
// returns after truncation it must re-seed).
func (w *WAL) UnpinStream(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.streams, id)
}

// MinStreamAck returns the lowest acked LSN across registered streams and
// whether any stream is registered.
func (w *WAL) MinStreamAck() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var min uint64
	found := false
	for _, ack := range w.streams {
		if !found || ack < min {
			min = ack
			found = true
		}
	}
	return min, found
}

// Records returns a snapshot copy of the retained log.
func (w *WAL) Records() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Record, len(w.records))
	copy(out, w.records)
	return out
}

// Len returns the number of retained records.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.records)
}

// PinTxn marks a transaction's begin LSN as required (deferred transaction).
func (w *WAL) PinTxn(txn, beginLSN uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pinned[txn] = beginLSN
}

// UnpinTxn releases a deferred transaction's hold on the log.
func (w *WAL) UnpinTxn(txn uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.pinned, txn)
}

// ErrTruncationBlocked is returned when deferred transactions pin log space.
var ErrTruncationBlocked = errors.New("storage: log truncation blocked by deferred transactions (§4.5)")

// TruncateBefore drops records with LSN < lsn. It fails if a pinned
// (deferred) transaction still needs older records.
func (w *WAL) TruncateBefore(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for txn, begin := range w.pinned {
		if begin < lsn {
			return fmt.Errorf("%w: txn %d pins LSN %d", ErrTruncationBlocked, txn, begin)
		}
	}
	for id, ack := range w.streams {
		if ack+1 < lsn {
			return fmt.Errorf("%w: replica %q acked only LSN %d", ErrTruncationBlocked, id, ack)
		}
	}
	i := 0
	for i < len(w.records) && w.records[i].LSN < lsn {
		i++
	}
	w.records = append([]Record(nil), w.records[i:]...)
	if len(w.records) > 0 {
		w.base = w.records[0].LSN
	} else {
		w.base = w.nextLSN
	}
	return nil
}

// RetainedBytes estimates the log space consumption — the resource that
// index invalidation policies can be keyed on (§4.5).
func (w *WAL) RetainedBytes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for i := range w.records {
		r := &w.records[i]
		total += 64 + len(r.Table) + len(r.Old) + len(r.New)
		for _, k := range r.Key {
			total += len(k)
		}
	}
	return total
}

// RecordMinLen is the encoded length of a record whose variable-length
// fields are all empty: the floor a record count is checked against.
const RecordMinLen = 90

// AppendRecord appends rec in the log's record layout, the one Serialize
// writes and the replication stream ships:
//
//	u64 LSN, u64 Txn, u8 Type, Table, u64 Row, u64 NewRow,
//	u64 key count then each component, Old, New, DDL,
//	u8 CLR (0 or 1), 16-byte Trace
//
// where every variable-length field is a u64 length and its bytes.
func AppendRecord(b []byte, rec *Record) []byte {
	b = wire.AppendU64(b, rec.LSN)
	b = wire.AppendU64(b, rec.Txn)
	b = append(b, byte(rec.Type))
	b = append64(b, rec.Table)
	b = wire.AppendU64(b, uint64(rec.Row))
	b = wire.AppendU64(b, uint64(rec.NewRow))
	b = wire.AppendU64(b, uint64(len(rec.Key)))
	for _, k := range rec.Key {
		b = append64(b, k)
	}
	b = append64(b, rec.Old)
	b = append64(b, rec.New)
	b = append64(b, rec.DDL)
	b = wire.AppendBool(b, rec.CLR)
	return append(b, rec.Trace[:]...)
}

func append64[T string | []byte](b []byte, v T) []byte {
	return append(wire.AppendU64(b, uint64(len(v))), v...)
}

// encodedLen is len(AppendRecord(nil, rec)).
func encodedLen(rec *Record) int {
	n := RecordMinLen + len(rec.Table) + len(rec.Old) + len(rec.New) + len(rec.DDL)
	for _, k := range rec.Key {
		n += 8 + len(k)
	}
	return n
}

// ReadRecord decodes one AppendRecord layout. Byte fields alias the input.
func ReadRecord(r *wire.Reader) Record {
	rec := Record{LSN: r.U64(), Txn: r.U64(), Type: RecType(r.U8())}
	rec.Table = string(r.Take(r.U64()))
	rec.Row = RowID(r.U64())
	rec.NewRow = RowID(r.U64())
	if n := r.Count64(8); n > 0 {
		rec.Key = make([][]byte, n)
		for i := range rec.Key {
			rec.Key[i] = r.Take(r.U64())
		}
	}
	rec.Old = r.Take(r.U64())
	rec.New = r.Take(r.U64())
	rec.DDL = string(r.Take(r.U64()))
	rec.CLR = r.Bool()
	copy(rec.Trace[:], r.Take(uint64(len(rec.Trace))))
	return rec
}

// Serialize encodes the retained log for durability: u64 next LSN, u64
// record count, then the records.
func (w *WAL) Serialize() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	size := 16
	for i := range w.records {
		size += encodedLen(&w.records[i])
	}
	b := make([]byte, 0, size)
	b = wire.AppendU64(b, w.nextLSN)
	b = wire.AppendU64(b, uint64(len(w.records)))
	for i := range w.records {
		b = AppendRecord(b, &w.records[i])
	}
	return b
}

// ErrBadWAL reports a corrupt serialized log.
var ErrBadWAL = errors.New("storage: malformed serialized WAL")

// LoadWAL decodes a log produced by Serialize. Record byte fields alias
// data, which the caller must not modify afterwards. LSNs must be strictly
// increasing and the next LSN must lie beyond the last record: a log that
// would hand out an LSN it already holds is corrupt.
func LoadWAL(data []byte) (*WAL, error) {
	r := wire.NewReader(data, ErrBadWAL)
	w := NewWAL()
	w.nextLSN = r.U64()
	w.records = make([]Record, 0, r.Count64(RecordMinLen))
	var last uint64
	for i := 0; i < cap(w.records); i++ {
		rec := ReadRecord(&r)
		if rec.LSN <= last {
			r.Fail("record LSN %d after %d", rec.LSN, last)
		}
		last = rec.LSN
		w.records = append(w.records, rec)
	}
	if w.nextLSN <= last {
		r.Fail("next LSN %d not past record LSN %d", w.nextLSN, last)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if len(w.records) > 0 {
		w.base = w.records[0].LSN
	}
	return w, nil
}
