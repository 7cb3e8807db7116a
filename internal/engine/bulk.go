package engine

import (
	"fmt"
	"slices"

	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/storage"
)

// The insert path. A row INSERT statement and a client bulk batch differ only
// in how their rows arrive — bound from SQL parameters, or N pre-encrypted
// rows in one request; both hand their cell rows to insertBatch, which appends
// them to the heap under a single table-mutex/heap-mutex acquisition and logs
// ONE multi-row WAL record per structure (heap, each index). The
// transaction's undo list mirrors per-row operations, so rollback, crash
// recovery and replica promotion are oblivious to batching.
//
// Trust boundary (§3): cells of encrypted columns arrive as ciphertext
// envelopes whichever way the rows came — the server validates envelope
// well-formedness and never sees plaintext. Bulk loading widens throughput,
// not visibility.

// BulkInsert inserts rows into table under the session's transaction (or an
// autocommit one). cols names the target columns, in the order the row cell
// slices are laid out; omitted columns are NULL. The whole batch is one
// statement: any failure undoes every row of the batch.
func (s *Session) BulkInsert(table string, cols []string, rows [][][]byte) (int, error) {
	rs, err := s.statement(trace.KindInsert, func(act *trace.Active) (*ResultSet, error) {
		end, err := s.beginExec(act, false)
		if err != nil {
			return nil, err
		}
		defer end()
		return s.bulkInsert(table, cols, rows)
	})
	if err != nil {
		return 0, err
	}
	return rs.Affected, nil
}

func (s *Session) bulkInsert(table string, cols []string, rows [][][]byte) (*ResultSet, error) {
	e := s.engine
	if len(rows) == 0 {
		return &ResultSet{}, nil
	}
	tbl, err := e.catalog.Table(table)
	if err != nil {
		return nil, err
	}
	colPos := make([]int, len(cols))
	for i, name := range cols {
		col, err := tbl.Col(name)
		if err != nil {
			return nil, err
		}
		colPos[i] = col.Pos
	}
	// One backing array serves every row's cell slice — batches are tens of
	// thousands of rows, and per-row allocations here show up directly in
	// load throughput.
	cellRows := make([][][]byte, len(rows))
	backing := make([][]byte, len(rows)*len(tbl.Cols))
	for r, row := range rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("engine: bulk row %d has %d cells, want %d", r, len(row), len(cols))
		}
		cells := backing[r*len(tbl.Cols) : (r+1)*len(tbl.Cols) : (r+1)*len(tbl.Cols)]
		for i, pos := range colPos {
			cells[pos] = row[i]
		}
		cellRows[r] = cells
	}
	return s.withTxn(func(t *Txn) (*ResultSet, error) {
		return e.insertBatch(t, tbl, cellRows)
	})
}

// insertBatch inserts one statement's rows — full-width cell slices in table
// column order — under an open transaction, maintaining all indexes. Every
// row is validated and encoded before the first one is placed. A later
// failure (lock, uniqueness) leaves the applied prefix in the undo list and
// withTxn undoes the statement through the normal CLR-logging path.
func (e *Engine) insertBatch(t *Txn, tbl *Table, cellRows [][][]byte) (*ResultSet, error) {
	recs := make([][]byte, len(cellRows))
	for r, cells := range cellRows {
		for i := range tbl.Cols {
			if tbl.Cols[i].NotNull && len(cells[i]) == 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrNotNull, tbl.Name, tbl.Cols[i].Name)
			}
		}
		if err := validateEncryptedCells(tbl, cells); err != nil {
			return nil, err
		}
		recs[r] = encodeRow(cells)
	}
	tbl.mu.Lock()
	// The index list is taken in the same critical section that places the
	// rows: CREATE INDEX backfills and publishes under tbl.mu too, so a new
	// index either saw these rows in the heap or is in this list.
	indexes := tbl.Indexes
	// The undo list grows by one op per row per structure; reserving that in
	// one step keeps the appends below from re-copying it.
	t.ops = slices.Grow(t.ops, len(recs)*(1+len(indexes)))
	// Version chains register under the page write latch, before any row is
	// scannable: a nil pre-image marks "invisible before this txn", so
	// concurrent snapshots never see the uncommitted rows.
	rids, err := tbl.Heap.InsertBatch(recs, func(rid storage.RowID) {
		e.versions.Record(t.id, tbl.Name, rid, nil)
	})
	if err != nil {
		tbl.mu.Unlock()
		// InsertBatch rolled the heap back itself. The version chains the
		// observer registered for the briefly-existing rows stay: a nil image
		// marks the row invisible, which remains true, and they evict with
		// the transaction. (Dropping them here would be wrong — Drop is
		// txn-wide and would discard pre-images of earlier statements.)
		return nil, err
	}
	// One WAL record for the statement's heap rows, appended under the table
	// mutex so log order matches page mutation order; the undo list mirrors
	// per-row inserts so undoOne needs no multi-row case.
	t.logRecord(storage.Record{
		Type: storage.RecHeapInsertMulti, Table: tbl.Name,
		Row: rids[0], New: storage.EncodeHeapRows(rids, recs),
	})
	for i, rid := range rids {
		t.ops = append(t.ops, txnOp{typ: storage.RecHeapInsert, table: tbl.Name, row: rid, new: recs[i]})
	}
	tbl.mu.Unlock()

	// The rids were just allocated under the table mutex: nobody else can
	// hold or wait on them, so the whole batch locks in one acquisition.
	if err := e.locks.LockNew(t.id, tbl.Name, rids); err != nil {
		return nil, err
	}

	for _, idx := range indexes {
		// The tree retains every key forever, so keys must not alias the
		// request payload (a small key pinning a whole batch buffer). All key
		// bytes of the statement go into a single exactly-sized arena: append
		// never reallocates, so the subslices taken below stay valid.
		nc := len(idx.ColPos)
		var total int
		for i := range rids {
			for _, pos := range idx.ColPos {
				total += len(cellRows[i][pos])
			}
		}
		arena := make([]byte, 0, total)
		cellBacking := make([][]byte, len(rids)*nc)
		keys := make([][][]byte, len(rids))
		for i := range rids {
			key := cellBacking[i*nc : (i+1)*nc : (i+1)*nc]
			for j, pos := range idx.ColPos {
				cell := cellRows[i][pos]
				if len(cell) == 0 {
					continue // NULL component: a nil key cell
				}
				start := len(arena)
				arena = append(arena, cell...)
				key[j] = arena[start:len(arena):len(arena)]
			}
			keys[i] = key
		}
		sp := idx.crossingSpan(t.act, len(rids))
		for i := range rids {
			if err := idx.Tree.Insert(keys[i], rids[i]); err != nil {
				sp.End()
				// Mirror what the tree already holds, so the statement undo
				// removes exactly the applied prefix.
				for j := 0; j < i; j++ {
					t.ops = append(t.ops, txnOp{typ: storage.RecIndexInsert, table: idx.Name, row: rids[j], key: keys[j]})
				}
				return nil, err
			}
		}
		sp.End()
		t.logRecord(storage.Record{
			Type: storage.RecIndexInsertMulti, Table: idx.Name,
			Row: rids[0], New: storage.EncodeIndexEntries(keys, rids),
		})
		for i := range rids {
			t.ops = append(t.ops, txnOp{typ: storage.RecIndexInsert, table: idx.Name, row: rids[i], key: keys[i]})
		}
	}
	return &ResultSet{Affected: len(rids)}, nil
}
