package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/exprsvc"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// ColumnMeta describes one result column, including the key metadata the
// driver needs to decrypt it (§3: results return encrypted, along with key
// metadata).
type ColumnMeta struct {
	Name string
	Kind sqltypes.Kind
	Enc  sqltypes.EncType
}

// ResultSet is a query result: encrypted columns contain ciphertext cells.
type ResultSet struct {
	Columns  []ColumnMeta
	Rows     [][][]byte
	Affected int
}

// Params maps parameter names to their wire encodings: canonical value
// encodings for plaintext parameters, ciphertext envelopes for encrypted
// ones. The server never sees plaintext for encrypted parameters.
type Params map[string][]byte

// Execute runs one SQL statement on the session.
func (s *Session) Execute(query string, params Params) (*ResultSet, error) {
	return s.statement(trace.KindUnknown, func(act *trace.Active) (*ResultSet, error) {
		sp := act.StartSpan("plan")
		plan, err := s.engine.getPlan(query, act)
		sp.End()
		if err != nil {
			return nil, err
		}
		act.SetKind(stmtKind(plan.stmt))
		_, isSelect := plan.stmt.(SelectStmt)
		end, err := s.beginExec(act, isSelect)
		if err != nil {
			return nil, err
		}
		defer end()
		return s.execute(act, plan, query, params)
	})
}

// statement is the lifecycle every client statement runs under, SQL text and
// bulk batch alike. It owns the statement's trace: the trace starts here
// (under the client's trace context, if the TDS layer installed one), every
// lifecycle phase and crossing records spans against it, and Finish applies
// the sampling keep policy.
func (s *Session) statement(kind trace.Kind, body func(*trace.Active) (*ResultSet, error)) (*ResultSet, error) {
	act := s.engine.tracer.Start(s.traceID, kind)
	s.traceID = trace.ID{}
	s.act = act
	if s.txn != nil {
		s.txn.act = act // explicit txn: records log under this statement's trace
	}
	s.engine.execs.Inc()
	rs, err := body(act)
	if s.txn != nil {
		s.txn.act = nil
	}
	s.act = nil
	act.Finish(err)
	return rs, err
}

// beginExec admits a statement to execution and opens its "exec" span; the
// caller defers the returned end. A replica admits reads only: any mutation
// (including BEGIN, whose log record would fork the replica's mirrored log
// from the primary's) is rejected until promotion.
func (s *Session) beginExec(act *trace.Active, readOnly bool) (end func(), err error) {
	e := s.engine
	if !readOnly && e.ReadOnly() {
		return nil, ErrReadOnly
	}
	hsp := e.spanExec.StartSpan()
	execSp := act.StartSpan("exec")
	stall0 := e.pool.MissStallNS()
	return func() {
		// Buffer-pool miss stalls are attributed by cumulative delta: exact
		// for a single session, an upper bound when statements overlap (see
		// BufferPool.MissStallNS).
		if d := e.pool.MissStallNS() - stall0; d > 0 {
			execSp.Attr("bufpool.miss_stall_ns", d)
		}
		execSp.End()
		hsp.End()
	}, nil
}

// stmtKind classifies a parsed statement for the trace's closed kind enum —
// the only statement description a trace export ever carries.
func stmtKind(st Stmt) trace.Kind {
	switch st.(type) {
	case SelectStmt:
		return trace.KindSelect
	case InsertStmt:
		return trace.KindInsert
	case UpdateStmt:
		return trace.KindUpdate
	case DeleteStmt:
		return trace.KindDelete
	case BeginStmt:
		return trace.KindBegin
	case CommitStmt:
		return trace.KindCommit
	case RollbackStmt:
		return trace.KindRollback
	default:
		return trace.KindDDL
	}
}

// execute dispatches a planned statement.
func (s *Session) execute(act *trace.Active, plan *Plan, query string, params Params) (*ResultSet, error) {
	e := s.engine
	switch st := plan.stmt.(type) {
	case BeginStmt:
		return &ResultSet{}, s.Begin()
	case CommitStmt:
		return &ResultSet{}, s.Commit()
	case RollbackStmt:
		return &ResultSet{}, s.Rollback()
	case SelectStmt:
		return s.executeSelect(act, plan, st, params)
	case InsertStmt:
		return s.withTxn(func(t *Txn) (*ResultSet, error) {
			return e.executeInsert(t, plan, params)
		})
	case UpdateStmt:
		return s.withTxn(func(t *Txn) (*ResultSet, error) {
			return e.executeUpdate(t, plan, params)
		})
	case DeleteStmt:
		return s.withTxn(func(t *Txn) (*ResultSet, error) {
			return e.executeDelete(t, plan, params)
		})
	case CreateTableStmt:
		// DDL is logged by statement text; the first heap page id rides in
		// the Row field so a replica materializes the identical page. The
		// append runs inside the catalog's critical section, before the
		// object is visible: a concurrent session's records against the new
		// object can never sequence ahead of the record that creates it.
		_, err := e.createTable(st, storage.InvalidPageID, func(first storage.PageID) {
			e.wal.Append(storage.Record{Type: storage.RecDDL, DDL: query, Row: storage.NewRowID(first, 0)})
		})
		if err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case CreateIndexStmt:
		logDDL := func() { e.wal.Append(storage.Record{Type: storage.RecDDL, DDL: query}) }
		if err := e.executeCreateIndex(st, fillFromHeap, logDDL); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case CreateCMKStmt:
		logDDL := func() { e.wal.Append(storage.Record{Type: storage.RecDDL, DDL: query}) }
		if err := e.executeCreateCMK(st, logDDL); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case CreateCEKStmt:
		logDDL := func() { e.wal.Append(storage.Record{Type: storage.RecDDL, DDL: query}) }
		if err := e.executeCreateCEK(st, logDDL); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case AlterColumnStmt:
		// executeAlterColumn logs its own records: physical rewrites per
		// cell, then a RecAlterEnc carrying the catalog change.
		return &ResultSet{}, s.executeAlterColumn(st)
	default:
		return nil, fmt.Errorf("engine: cannot execute %T", plan.stmt)
	}
}

// withTxn runs a mutating statement's body in the session's transaction, or
// an autocommit one, and makes the statement atomic: if fn fails, everything
// it logged is undone (with CLRs) before the error returns. The row
// primitives below therefore never clean up after themselves. The tables
// they admitted stay busy until then, so no rebuild scans a half-done row.
func (s *Session) withTxn(fn func(t *Txn) (*ResultSet, error)) (*ResultSet, error) {
	e := s.engine
	if t := s.txn; t != nil {
		defer t.release()
		opStart := len(t.ops)
		rs, err := fn(t)
		if err != nil {
			uerr := e.undoOps(t.act, t.id, t.ops[opStart:])
			t.ops = t.ops[:opStart]
			if uerr != nil {
				return nil, fmt.Errorf("%w (statement undo also failed: %v)", err, uerr)
			}
			return nil, err
		}
		return rs, nil
	}
	t := e.beginTxn(s.act)
	defer t.release()
	rs, err := fn(t)
	if err != nil {
		if rbErr := e.rollbackTxn(t); rbErr != nil {
			return nil, fmt.Errorf("%w (rollback also failed: %v)", err, rbErr)
		}
		return nil, err
	}
	if err := e.commitTxn(t); err != nil {
		return nil, err
	}
	return rs, nil
}

// resolveValue materializes a ValueExpr into cell bytes under the given
// parameter assignment.
func resolveValue(v ValueExpr, params Params) ([]byte, error) {
	switch ve := v.(type) {
	case ParamExpr:
		b, ok := params[ve.Name]
		if !ok {
			return nil, fmt.Errorf("%w: @%s", ErrUnknownParam, ve.Name)
		}
		return b, nil
	case LiteralExpr:
		return ve.Val.Encode(), nil
	case keyBound:
		return ve, nil
	default:
		return nil, errors.New("engine: unresolvable value expression")
	}
}

// evaluator borrows a pooled evaluator for the plan's filter program.
func (p *Plan) evaluator() (*exprsvc.Evaluator, error) {
	if p.filter == nil {
		return nil, nil
	}
	got := p.evalPool.Get()
	if err, ok := got.(error); ok {
		return nil, err
	}
	return got.(*exprsvc.Evaluator), nil
}

// buildSlots assembles the evaluator input: outer cells, inner cells (join),
// then parameter values in plan order.
func (p *Plan) buildSlots(outer, inner [][]byte, params Params) ([][]byte, error) {
	slots := make([][]byte, p.numColSlots+len(p.paramOrder))
	copy(slots, outer)
	if p.join != nil {
		copy(slots[p.numOuterCols:], inner)
	}
	for _, name := range p.paramOrder {
		b, ok := params[name]
		if !ok {
			return nil, fmt.Errorf("%w: @%s", ErrUnknownParam, name)
		}
		slots[p.paramSlot[name]] = b
	}
	return slots, nil
}

// matchedRow is an outer-table row (or joined pair) that survived the
// residual filter. slots stay valid only for the duration of the consumer
// callback — copy anything that must outlive it.
type matchedRow struct {
	rid   storage.RowID
	slots [][]byte // combined slot row (join: outer+inner)
}

// iterateOuter streams outer-table rows through the access path and the
// batched residual filter: candidate rows accumulate in a rowBatcher and the
// filter program runs once per batch (one enclave crossing per batch for
// enclave predicates, §4.6). fn receives surviving rows — for joins, one
// call per joined pair — in the same order row-at-a-time execution would
// produce.
//
// Every read is a snapshot read: rows come from visibleRows, for the outer
// table here and for the inner table in probeJoin.
func (e *Engine) iterateOuter(act *trace.Active, plan *Plan, params Params, snap *storage.Snapshot, fn func(m *matchedRow) (bool, error)) error {
	ev, err := plan.evaluator()
	if err != nil {
		return err
	}
	if ev != nil {
		// The evaluator is pooled across sessions: attach the statement's
		// trace for the duration of this iteration and detach before Put.
		ev.SetTrace(act)
		defer func() {
			ev.SetTrace(nil)
			plan.evalPool.Put(ev)
		}()
	}
	b := &rowBatcher{plan: plan, ev: ev, fn: fn, size: e.batch}

	probe := func(rid storage.RowID, cells [][]byte) error {
		slots, err := plan.buildSlots(cells, nil, params)
		if err != nil {
			return err
		}
		return b.add(rid, slots)
	}
	if j := plan.join; j != nil {
		// The join's current outer row. addInner is built once per statement
		// and reads it, so probing allocates no closure per outer row.
		var outerRID storage.RowID
		var outerCells [][]byte
		addInner := func(_ storage.RowID, inner [][]byte) error {
			slots, err := plan.buildSlots(outerCells, inner, params)
			if err != nil {
				return err
			}
			return b.add(outerRID, slots)
		}
		probe = func(rid storage.RowID, cells [][]byte) error {
			outerRID, outerCells = rid, cells
			return e.probeJoin(act, j, b, cells, snap, addInner)
		}
	}

	side := &b.outer
	if a := &plan.access; a.index != nil {
		if err := side.seekIndex(act, a, params); err != nil {
			return err
		}
	} else {
		side.scanHeap()
	}
	if err := e.visibleRows(plan.table, side, snap, b, probe); err != nil {
		return err
	}
	if b.stopped {
		return nil
	}
	return b.flush()
}

// probeJoin probes the inner table for one outer row, feeding joined pairs
// into the shared batch. Pairs accumulate ACROSS outer rows — a per-outer
// batch would hold only the handful of pairs one outer row produces and
// amortize nothing.
//
// Inner ghosts are bounded by the join key only where the inner index orders
// it by its bytes on the host (hostOrdered); for an enclave-ordered column
// byte equality is not value equality, so those ghosts all go through the
// filter program, which carries the join equality conjunct and evaluates it
// correctly for every scheme.
func (e *Engine) probeJoin(act *trace.Active, j *joinPlan, b *rowBatcher, outer [][]byte, snap *storage.Snapshot,
	addInner func(storage.RowID, [][]byte) error) error {
	// The outer row's cells (arena-backed on the heap-scan path) are shared
	// by every pair this probe adds; pin the arena so an intermediate flush
	// cannot reclaim them while more pairs are coming.
	b.pinned = true
	defer func() {
		b.pinned = false
		b.maybeReset()
	}()

	// Without an inner index the join equality is left to the filter program.
	side := &b.inner
	if j.innerIndex == nil {
		side.scanHeap()
	} else {
		if j.outerCol >= len(outer) || len(outer[j.outerCol]) == 0 {
			return nil // NULL joins nothing
		}
		side.startSeek(j.innerIndex, j.innerHost)
		side.bounds.eq = append(side.bounds.eq, outer[j.outerCol])
		sp := j.innerIndex.crossingSpan(act, 1)
		var err error
		side.entries, err = side.bounds.seek(j.innerIndex.Tree)
		sp.End()
		if err != nil {
			return err
		}
	}
	return e.visibleRows(j.table, side, snap, b, addInner)
}

// readSide is one side of a read — the outer table, or a join's inner table
// — as visibleRows consumes it: the access path's result, and the buffers
// its ghost pass reuses across the probes of one statement.
type readSide struct {
	indexed bool
	// none marks an index seek that matches nothing (a NULL parameter).
	none    bool
	entries []btree.Entry // the index seek's result
	bounds  seekBounds    // the index seek's bounds
	// seen holds the row ids the access path resolved: every visited heap
	// row on the scan path; the index path fills it from entries only when
	// a ghost survives its bounds.
	seen   rowSet
	ghosts []storage.GhostRow
}

// scanHeap sets the side up for a full heap scan.
func (s *readSide) scanHeap() {
	s.indexed, s.none, s.entries = false, false, nil
	s.seen.reset()
}

// startSeek sets the side up for a seek of idx, with empty bounds.
func (s *readSide) startSeek(idx *Index, host []bool) {
	s.indexed, s.none, s.entries = true, false, nil
	s.seen.reset()
	s.bounds = seekBounds{colPos: idx.ColPos, host: host, eq: s.bounds.eq[:0]}
}

// seekIndex resolves the access path's bounds under params and seeks them.
func (s *readSide) seekIndex(act *trace.Active, a *accessPath, params Params) error {
	s.startSeek(a.index, a.host)
	sb := &s.bounds
	for _, v := range a.eqVals {
		c, err := resolveValue(v, params)
		if err != nil {
			return err
		}
		if len(c) == 0 {
			s.none = true // comparison with NULL matches nothing
			return nil
		}
		sb.eq = append(sb.eq, c)
	}
	if a.rangeOn >= 0 {
		sb.ranged = true
		var err error
		if a.rangeLo != nil {
			if sb.lo, err = resolveValue(a.rangeLo, params); err != nil {
				return err
			}
			s.none, sb.loInc = len(sb.lo) == 0, a.rangeOp != PredGT
		}
		if a.rangeHi != nil && !s.none {
			if sb.hi, err = resolveValue(a.rangeHi, params); err != nil {
				return err
			}
			s.none, sb.hiInc = len(sb.hi) == 0, a.rangeOp != PredLT
		}
		if s.none {
			return nil
		}
	}
	sp := a.index.crossingSpan(act, 1)
	defer sp.End()
	var err error
	s.entries, err = sb.seek(a.index.Tree)
	return err
}

// wantGhost reports whether the ghost pass should emit a row whose visible
// image is the pre-image img: on an indexed side, one the seek's bounds
// admit; and one the access path did not already resolve. It runs under the
// version store's read latch and only reads the side's own buffers.
func (s *readSide) wantGhost(rid storage.RowID, img []byte) bool {
	if !s.indexed {
		return !s.seen.has(rid)
	}
	if !s.bounds.admits(img) {
		return false
	}
	if len(s.seen.ids) == 0 {
		for _, ent := range s.entries {
			s.seen.add(ent.Row)
		}
	}
	return !s.seen.has(rid)
}

// seekBounds is an index seek's resolved key bounds: equality on the leading
// len(eq) components and, when ranged, a range on the next one (a nil lo or
// hi leaves that side open). The tree walk and the ghost pass read the same
// bounds.
type seekBounds struct {
	colPos       []int  // row position of each index component
	host         []bool // per component: hostOrdered
	eq           [][]byte
	ranged       bool
	lo, hi       []byte
	loInc, hiInc bool
}

// seek returns tree's entries within the bounds, in key order.
func (sb *seekBounds) seek(tree *btree.Tree) ([]btree.Entry, error) {
	if !sb.ranged {
		// Equality on every bound component: a point scan, which the tree
		// answers with one search per node.
		return tree.SeekExact(sb.eq, 0)
	}
	n := len(sb.eq)
	lo, hi := sb.eq, sb.eq
	loInc, hiInc := true, true
	if sb.lo != nil {
		lo, loInc = append(sb.eq[:n:n], sb.lo), sb.loInc
	}
	if sb.hi != nil {
		hi, hiInc = append(sb.eq[:n:n], sb.hi), sb.hiInc
	}
	if len(lo) == 0 {
		lo = nil
	}
	if len(hi) == 0 {
		hi = nil
	}
	return tree.ScanRange(lo, hi, loInc, hiInc, 0)
}

// admits reports whether seek would return a row encoded as rec if the
// row's key were in the tree, judged on the host-ordered components alone;
// every other component admits. On those components the tree compares
// bytes (btree.BinaryOrder), so bytes.Compare here orders exactly as the
// seek did — a NULL cell is empty and sorts first, below every bound, and
// equals no (non-NULL) probe. A malformed record admits, and its decode
// reports it.
func (sb *seekBounds) admits(rec []byte) bool {
	for c, want := range sb.eq {
		if !sb.host[c] {
			continue
		}
		if cell, ok := rowCell(rec, sb.colPos[c]); ok && !bytes.Equal(cell, want) {
			return false
		}
	}
	if !sb.ranged || !sb.host[len(sb.eq)] {
		return true
	}
	cell, ok := rowCell(rec, sb.colPos[len(sb.eq)])
	if !ok {
		return true
	}
	if sb.lo != nil {
		if c := bytes.Compare(cell, sb.lo); c < 0 || c == 0 && !sb.loInc {
			return false
		}
	}
	if sb.hi != nil {
		if c := bytes.Compare(cell, sb.hi); c > 0 || c == 0 && !sb.hiInc {
			return false
		}
	}
	return true
}

// rowSet is a reusable set of row ids: added in any order, sorted on the
// first membership test after an out-of-order add.
type rowSet struct {
	ids      []storage.RowID
	unsorted bool
}

func (s *rowSet) reset() { s.ids, s.unsorted = s.ids[:0], false }

func (s *rowSet) add(rid storage.RowID) {
	if n := len(s.ids); n > 0 && s.ids[n-1] > rid {
		s.unsorted = true
	}
	s.ids = append(s.ids, rid)
}

func (s *rowSet) has(rid storage.RowID) bool {
	if s.unsorted {
		slices.Sort(s.ids)
		s.unsorted = false
	}
	_, ok := slices.BinarySearch(s.ids, rid)
	return ok
}

// visibleRows is the engine's one row source: it passes emit every row of tbl
// that snap can see, with its cells. On an indexed side the candidates are
// the heap rows the seek's entries point at (possibly none); otherwise the
// whole heap is scanned. SELECT's outer and join-inner sides read through
// it, and so does UPDATE/DELETE target discovery.
//
// What callers may rely on:
//
//   - Heap before chain. The version chain is consulted strictly AFTER the
//     heap bytes were read (the scan callback runs under the page read latch).
//     Writers record pre-images before mutating the page, so a heap-then-chain
//     read can never observe an uncommitted mutation without also finding its
//     pre-image.
//   - Ghosts. Rows the access path no longer surfaces (deleted, or index keys
//     moved by post-snapshot commits) are recovered from the snapshot after
//     the live rows and emitted like them, so they run through the same
//     residual filter program — it carries every predicate, and a ghost that
//     no longer matches is rejected exactly like a live non-match. Only the
//     table's own chains are visited. On an indexed side a ghost whose
//     pre-image key falls outside the seek's bounds on a host-ordered
//     component is dropped before it is decoded: the seek would not have
//     returned that key for a live row either (seekBounds.admits), and the
//     filter would reject it. Enclave-ordered components are never compared
//     here — their ghosts reach the filter as before. Version chains can
//     appear mid-scan, so the scan path records every row it visits and the
//     ghost pass skips those.
//   - Cell lifetime. Scan cells alias page memory and are copied into b's
//     arena: they stay valid until the batch holding them drains (or, for a
//     join's outer row, until its probe unpins the arena) — one bump
//     allocation per batch instead of one heap allocation per cell whether or
//     not the row survives the filter. Index-path cells (Heap.Get copies) and
//     version-store images are stable memory and are passed through.
//
// Iteration ends early, without error, once b's consumer has stopped.
func (e *Engine) visibleRows(tbl *Table, side *readSide, snap *storage.Snapshot,
	b *rowBatcher, emit func(storage.RowID, [][]byte) error) error {
	// visit resolves one candidate: rec is the raw heap record, or nil when
	// the heap no longer surfaces the row.
	visit := func(rid storage.RowID, rec []byte, aliased bool) error {
		img, overridden := snap.RowImage(tbl.Name, rid)
		if !overridden {
			img = rec
		}
		if img == nil {
			return nil // uncommitted insert, or deleted before the snapshot
		}
		cells, err := decodeRow(img)
		if err != nil {
			return err
		}
		if aliased && !overridden {
			cells = b.arena.copyRow(cells)
		}
		return emit(rid, cells)
	}

	if side.indexed {
		e.seeks.Add(1)
		if side.none {
			return nil
		}
		for _, ent := range side.entries {
			// The index may briefly point at rows deleted by concurrent
			// transactions; the snapshot chain decides whether a pre-image
			// is still visible.
			rec, err := tbl.Heap.Get(ent.Row)
			if err != nil {
				rec = nil
			}
			if err := visit(ent.Row, rec, false); err != nil {
				return err
			}
			if b.stopped {
				return nil
			}
		}
	} else {
		e.scans.Add(1)
		err := tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
			side.seen.add(rid)
			if err := visit(rid, rec, true); err != nil {
				return false, err
			}
			return !b.stopped, nil
		})
		if err != nil || b.stopped {
			return err
		}
	}

	side.ghosts = snap.Ghosts(tbl.Name, side.ghosts[:0], side.wantGhost)
	// The images stay referenced by the buffer only for this pass.
	defer clear(side.ghosts)
	for _, g := range side.ghosts {
		cells, err := decodeRow(g.Data)
		if err != nil {
			return err
		}
		if err := emit(g.Row, cells); err != nil {
			return err
		}
		if b.stopped {
			return nil
		}
	}
	return nil
}

// executeSelect runs a SELECT and materializes the result set.
//
// Snapshot policy: inside an explicit transaction the SELECT reads through
// the transaction's snapshot (acquired lazily at the first read and held to
// commit/rollback — repeatable reads, plus visibility of the transaction's
// own writes). An autocommit SELECT takes a statement-local snapshot with no
// self transaction and releases it when the statement finishes. Readers
// never touch the lock manager — write-write conflicts remain its only job.
func (s *Session) executeSelect(act *trace.Active, plan *Plan, st SelectStmt, params Params) (*ResultSet, error) {
	e := s.engine
	var snap *storage.Snapshot
	if s.txn != nil {
		snap = s.txn.snapshot()
	} else {
		snap = e.versions.Acquire(0)
		defer snap.Release()
	}
	rs := &ResultSet{}
	for _, item := range plan.items {
		rs.Columns = append(rs.Columns, ColumnMeta{Name: item.name, Kind: item.kind, Enc: item.enc})
	}

	hasAgg := false
	for _, item := range plan.items {
		if item.agg != AggNone {
			hasAgg = true
			break
		}
	}

	if !hasAgg {
		err := e.iterateOuter(act, plan, params, snap, func(m *matchedRow) (bool, error) {
			row := make([][]byte, len(plan.items))
			for i, item := range plan.items {
				if item.slot < len(m.slots) && len(m.slots[item.slot]) > 0 {
					row[i] = append([]byte(nil), m.slots[item.slot]...)
				}
			}
			rs.Rows = append(rs.Rows, row)
			return st.Limit == 0 || len(rs.Rows) < st.Limit, nil
		})
		if err != nil {
			return nil, err
		}
		return rs, nil
	}

	// Single-group aggregation.
	aggs := make([]*aggState, len(plan.items))
	for i := range plan.items {
		aggs[i] = &aggState{distinct: make(map[string]bool)}
	}
	err := e.iterateOuter(act, plan, params, snap, func(m *matchedRow) (bool, error) {
		for i, item := range plan.items {
			var cell []byte
			if item.slot >= 0 && item.slot < len(m.slots) {
				cell = m.slots[item.slot]
			}
			if err := aggs[i].accumulate(item.agg, cell, item.slot < 0); err != nil {
				return false, err
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	row := make([][]byte, len(plan.items))
	for i, item := range plan.items {
		row[i] = aggs[i].result(item.agg)
	}
	rs.Rows = append(rs.Rows, row)
	return rs, nil
}

// aggState accumulates one aggregate.
type aggState struct {
	count    int64
	distinct map[string]bool
	min, max sqltypes.Value
	sum      float64
	seen     bool
}

func (a *aggState) accumulate(fn AggFunc, cell []byte, star bool) error {
	switch fn {
	case AggNone:
		return nil
	case AggCount:
		// COUNT(*) counts rows; COUNT(col) skips NULLs.
		if star || len(cell) > 0 {
			a.count++
		}
		return nil
	case AggCountDistinct:
		if len(cell) == 0 {
			return nil
		}
		a.distinct[string(cell)] = true
		return nil
	case AggMin, AggMax, AggSum:
		if len(cell) == 0 {
			return nil
		}
		v, err := sqltypes.Decode(cell)
		if err != nil {
			return err
		}
		if fn == AggSum {
			switch v.Kind {
			case sqltypes.KindInt:
				a.sum += float64(v.I)
			case sqltypes.KindFloat:
				a.sum += v.F
			default:
				return fmt.Errorf("engine: SUM over %s", v.Kind)
			}
			a.seen = true
			return nil
		}
		if !a.seen {
			a.min, a.max, a.seen = v, v, true
			return nil
		}
		if c, err := sqltypes.Compare(v, a.min); err == nil && c < 0 {
			a.min = v
		}
		if c, err := sqltypes.Compare(v, a.max); err == nil && c > 0 {
			a.max = v
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown aggregate %d", fn)
	}
}

func (a *aggState) result(fn AggFunc) []byte {
	switch fn {
	case AggCount:
		return sqltypes.Int(a.count).Encode()
	case AggCountDistinct:
		return sqltypes.Int(int64(len(a.distinct))).Encode()
	case AggMin:
		if !a.seen {
			return nil
		}
		return a.min.Encode()
	case AggMax:
		if !a.seen {
			return nil
		}
		return a.max.Encode()
	case AggSum:
		if !a.seen {
			return nil
		}
		return sqltypes.Float(a.sum).Encode()
	default:
		return nil
	}
}

// validateEncryptedCells rejects statement writes that contradict the column
// encryption metadata: a value bound to an encrypted column must be a
// well-formed ciphertext envelope. This is the server-side half of the §4.1
// describe protocol — a client whose sp_describe_parameter_encryption result
// went stale (the column was encrypted after the describe) sends plaintext,
// and the statement must fail rather than store plaintext in an encrypted
// column. Drivers treat the rejection as a cache-staleness signal: drop the
// cached describe entry and retry once with fresh metadata.
func validateEncryptedCells(tbl *Table, cells [][]byte) error {
	for i, cell := range cells {
		if cell == nil {
			continue
		}
		col := &tbl.Cols[i]
		if col.Enc.IsPlaintext() {
			continue
		}
		if !aecrypto.WellFormedCiphertext(cell) {
			return fmt.Errorf("engine: operand type clash: value for encrypted column %s.%s is not ciphertext (parameter encryption metadata may be stale)",
				tbl.Name, col.Name)
		}
	}
	return nil
}

// executeInsert binds the statement's one row and inserts it — a batch of
// one through the same primitive as a bulk batch.
func (e *Engine) executeInsert(t *Txn, plan *Plan, params Params) (*ResultSet, error) {
	cells := make([][]byte, len(plan.table.Cols))
	for _, bind := range plan.insertTo {
		b, err := resolveValue(bind.expr, params)
		if err != nil {
			return nil, err
		}
		cells[bind.colPos] = b
	}
	return e.insertBatch(t, plan.table, [][][]byte{cells})
}

// executeUpdate applies SET clauses to every matching row. Targets are
// discovered without locks, then re-read and re-validated after the row
// lock is acquired — the read-modify-write of `SET n = n + @d` must see the
// latest committed value or updates are lost.
func (e *Engine) executeUpdate(t *Txn, plan *Plan, params Params) (*ResultSet, error) {
	tbl := plan.table
	rids, err := e.collectTargetRIDs(t, plan, params)
	if err != nil {
		return nil, err
	}
	affected := 0
	for _, rid := range rids {
		cells, ok, err := e.lockAndRevalidate(t, plan, params, rid)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		newCells := make([][]byte, len(tbl.Cols))
		copy(newCells, cells)
		for _, set := range plan.sets {
			b, err := e.evalSetExpr(tbl, set.expr, cells, params)
			if err != nil {
				return nil, err
			}
			newCells[set.colPos] = b
		}
		if err := validateEncryptedCells(tbl, newCells); err != nil {
			return nil, err
		}
		if _, err := e.updateRow(t, tbl, rid, cells, newCells); err != nil {
			return nil, err
		}
		affected++
	}
	return &ResultSet{Affected: affected}, nil
}

// collectTargetRIDs materializes the row ids matching the plan (mutating
// while scanning is unsound). Discovery runs under a fresh statement
// snapshot keyed to the transaction — it sees the latest committed state
// plus the transaction's own writes — and every candidate is re-read and
// re-validated under its row lock before mutation, so a stale discovery can
// only skip work, never corrupt it.
func (e *Engine) collectTargetRIDs(t *Txn, plan *Plan, params Params) ([]storage.RowID, error) {
	snap := t.engine.versions.Acquire(t.id)
	defer snap.Release()
	var rids []storage.RowID
	err := t.engine.iterateOuter(t.act, plan, params, snap, func(m *matchedRow) (bool, error) {
		rids = append(rids, m.rid)
		return true, nil
	})
	return rids, err
}

// lockAndRevalidate acquires the row lock, re-reads the current cells and
// re-checks the predicate: between discovery and locking another transaction
// may have changed or deleted the row.
func (e *Engine) lockAndRevalidate(t *Txn, plan *Plan, params Params, rid storage.RowID) ([][]byte, bool, error) {
	if err := e.locks.Lock(t.id, plan.table.Name, rid); err != nil {
		return nil, false, err
	}
	rec, err := plan.table.Heap.Get(rid)
	if err != nil {
		return nil, false, nil // row vanished; predicate no longer matches
	}
	cells, err := decodeRow(rec)
	if err != nil {
		return nil, false, err
	}
	if plan.filter != nil {
		ev, err := plan.evaluator()
		if err != nil {
			return nil, false, err
		}
		ev.SetTrace(t.act)
		defer func() {
			ev.SetTrace(nil)
			plan.evalPool.Put(ev)
		}()
		slots, err := plan.buildSlots(cells, nil, params)
		if err != nil {
			return nil, false, err
		}
		ok, err := ev.EvalBool(slots)
		if err != nil || !ok {
			return nil, false, err
		}
	}
	return cells, true, nil
}

// evalSetExpr computes a SET right-hand side. Parameters and literals pass
// through as bytes; arithmetic decodes plaintext operands and re-encodes.
func (e *Engine) evalSetExpr(tbl *Table, expr ValueExpr, cells [][]byte, params Params) ([]byte, error) {
	switch v := expr.(type) {
	case ParamExpr, LiteralExpr:
		return resolveValue(v, params)
	case ColExpr:
		col, err := tbl.Col(v.Name)
		if err != nil {
			return nil, err
		}
		if col.Pos < len(cells) {
			return cells[col.Pos], nil
		}
		return nil, nil
	case ArithExpr:
		val, err := e.evalArith(tbl, v, cells, params)
		if err != nil {
			return nil, err
		}
		if val.IsNull() {
			return nil, nil
		}
		return val.Encode(), nil
	default:
		return nil, errors.New("engine: unsupported SET expression")
	}
}

func (e *Engine) evalArith(tbl *Table, expr ValueExpr, cells [][]byte, params Params) (sqltypes.Value, error) {
	switch v := expr.(type) {
	case LiteralExpr:
		return v.Val, nil
	case ParamExpr:
		b, ok := params[v.Name]
		if !ok {
			return sqltypes.Value{}, fmt.Errorf("%w: @%s", ErrUnknownParam, v.Name)
		}
		return sqltypes.Decode(b)
	case ColExpr:
		col, err := tbl.Col(v.Name)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if col.Pos >= len(cells) || len(cells[col.Pos]) == 0 {
			return sqltypes.Null(), nil
		}
		return sqltypes.Decode(cells[col.Pos])
	case ArithExpr:
		l, err := e.evalArith(tbl, v.L, cells, params)
		if err != nil {
			return sqltypes.Value{}, err
		}
		r, err := e.evalArith(tbl, v.R, cells, params)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null(), nil
		}
		return arith(v.Op, l, r)
	default:
		return sqltypes.Value{}, errors.New("engine: unsupported arithmetic operand")
	}
}

func arith(op byte, l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.Kind == sqltypes.KindInt && r.Kind == sqltypes.KindInt {
		switch op {
		case '+':
			return sqltypes.Int(l.I + r.I), nil
		case '-':
			return sqltypes.Int(l.I - r.I), nil
		case '*':
			return sqltypes.Int(l.I * r.I), nil
		}
	}
	lf, rf := toFloat(l), toFloat(r)
	switch op {
	case '+':
		return sqltypes.Float(lf + rf), nil
	case '-':
		return sqltypes.Float(lf - rf), nil
	case '*':
		return sqltypes.Float(lf * rf), nil
	}
	return sqltypes.Value{}, fmt.Errorf("engine: unsupported operator %c", op)
}

func toFloat(v sqltypes.Value) float64 {
	if v.Kind == sqltypes.KindInt {
		return float64(v.I)
	}
	return v.F
}

// executeDelete removes every matching row, re-validating under the lock.
func (e *Engine) executeDelete(t *Txn, plan *Plan, params Params) (*ResultSet, error) {
	tbl := plan.table
	rids, err := e.collectTargetRIDs(t, plan, params)
	if err != nil {
		return nil, err
	}
	affected := 0
	for _, rid := range rids {
		cells, ok, err := e.lockAndRevalidate(t, plan, params, rid)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if err := e.deleteRow(t, tbl, rid, cells); err != nil {
			return nil, err
		}
		affected++
	}
	return &ResultSet{Affected: affected}, nil
}
