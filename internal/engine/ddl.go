package engine

import (
	"errors"
	"fmt"

	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// createTable is the shared CREATE TABLE body: firstPage == InvalidPageID
// allocates fresh (primary); otherwise the heap's first page is materialized
// at that id (replica redo). logDDL, when non-nil, receives the first heap
// page id and must append the creating RecDDL; it runs inside the catalog's
// critical section, before the table becomes visible, so no concurrent
// session can log operations against the table ahead of the record that
// creates it. Replica redo passes nil — the replica mirrors the primary's
// log verbatim and never appends its own records.
func (e *Engine) createTable(st CreateTableStmt, firstPage storage.PageID, logDDL func(storage.PageID)) (storage.PageID, error) {
	cols := make([]Column, len(st.Cols))
	var pkCols []int
	for i, def := range st.Cols {
		enc, err := e.catalog.EncTypeFor(def.Enc)
		if err != nil {
			return storage.InvalidPageID, err
		}
		cols[i] = Column{
			Name: def.Name, Kind: def.Kind,
			PrimaryKey: def.PrimaryKey, NotNull: def.NotNull || def.PrimaryKey,
			Enc: enc,
		}
		if def.PrimaryKey {
			pkCols = append(pkCols, i)
		}
	}
	tbl := &Table{Name: st.Name, Cols: cols}
	if len(pkCols) > 0 {
		names := make([]string, len(pkCols))
		for i, pos := range pkCols {
			names[i] = cols[pos].Name
		}
		// The implicit PK index is published with the table, in the same
		// catalog critical section: a session that can see the table can see
		// its primary key, so no row is ever inserted past it. The table's
		// RecDDL covers the index; no separate record.
		idx, err := e.newIndex(tbl, "pk_"+st.Name, pkCols, names, true, true)
		if err != nil {
			return storage.InvalidPageID, err
		}
		tbl.Indexes = []*Index{idx}
	}
	var err error
	if firstPage == storage.InvalidPageID {
		tbl.Heap, err = storage.NewHeap(e.pool)
	} else {
		tbl.Heap, err = storage.NewHeapAt(e.pool, firstPage)
	}
	if err != nil {
		return storage.InvalidPageID, err
	}
	var log func()
	if logDDL != nil {
		first := tbl.Heap.FirstPage()
		log = func() { logDDL(first) }
	}
	if err := e.catalog.AddTableLogged(tbl, log); err != nil {
		return storage.InvalidPageID, err
	}
	e.InvalidatePlans()
	return tbl.Heap.FirstPage(), nil
}

// executeCreateIndex builds an index, populating it from existing rows.
// Clustered indexes on encrypted columns are refused: invalidating one would
// lose data (§4.5). logDDL (nil on replicas) appends the creating RecDDL
// before the index becomes visible in the catalog.
func (e *Engine) executeCreateIndex(st CreateIndexStmt, logDDL func()) error {
	tbl, err := e.catalog.Table(st.Table)
	if err != nil {
		return err
	}
	pos := make([]int, len(st.Cols))
	names := make([]string, len(st.Cols))
	anyEncrypted := false
	for i, name := range st.Cols {
		col, err := tbl.Col(name)
		if err != nil {
			return err
		}
		pos[i] = col.Pos
		names[i] = col.Name
		if !col.Enc.IsPlaintext() {
			anyEncrypted = true
		}
	}
	if st.Clustered && anyEncrypted {
		return errors.New("engine: clustered indexes on encrypted columns are not supported (§4.5)")
	}
	if err := e.addIndex(tbl, st.Name, pos, names, st.Unique, logDDL); err != nil {
		return err
	}
	e.InvalidatePlans()
	return nil
}

// addIndex creates, registers and backfills an index. Building an index on
// an encrypted range column sorts the data via enclave comparisons — the
// index-build ordering leakage of Figure 5.
func (e *Engine) addIndex(tbl *Table, name string, pos []int, names []string, unique bool, logDDL func()) error {
	idx, err := e.newIndex(tbl, name, pos, names, unique, false)
	if err != nil {
		return err
	}
	// Backfill from the heap.
	err = tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
		cells, err := decodeRow(rec)
		if err != nil {
			return false, err
		}
		if err := idx.Tree.Insert(copyKey(idx.indexKeyFor(cells)), rid); err != nil {
			return false, err
		}
		return true, nil
	})
	if err != nil {
		return err
	}
	return e.catalog.AddIndexLogged(idx, logDDL)
}

// newIndex builds an empty, unregistered index over tbl's columns at pos.
func (e *Engine) newIndex(tbl *Table, name string, pos []int, names []string, unique, primary bool) (*Index, error) {
	tree, rangeCapable, ceks, err := e.buildIndexTree(tbl, pos, unique)
	if err != nil {
		return nil, err
	}
	return &Index{
		Name: name, Table: tbl.Name, ColPos: pos, ColNames: names,
		Unique: unique, IsPrimary: primary, Tree: tree,
		RangeCapable: rangeCapable, CEKs: ceks,
	}, nil
}

// executeCreateCMK stores column master key metadata. The signature is
// validated client-side (the server cannot: it has no key material); the
// engine stores it verbatim so clients can verify it later (§2.2). logDDL
// (nil on replicas) appends the creating RecDDL before visibility.
func (e *Engine) executeCreateCMK(st CreateCMKStmt, logDDL func()) error {
	return e.catalog.AddCMKLogged(&keys.CMKMetadata{
		Name:           st.Name,
		ProviderName:   st.ProviderName,
		KeyPath:        st.KeyPath,
		EnclaveEnabled: st.EnclaveComputations,
		Signature:      st.Signature,
	}, logDDL)
}

// executeCreateCEK stores column encryption key metadata: the RSA-OAEP
// wrapped value and its signature, bound to a CMK.
func (e *Engine) executeCreateCEK(st CreateCEKStmt, logDDL func()) error {
	if _, err := e.catalog.CMK(st.CMK); err != nil {
		return err
	}
	return e.catalog.AddCEKLogged(&keys.CEKMetadata{
		Name: st.Name,
		Values: []keys.CEKValue{{
			CMKName:        st.CMK,
			Algorithm:      st.Algorithm,
			EncryptedValue: st.EncryptedValue,
			Signature:      st.Signature,
		}},
	}, logDDL)
}

// executeAlterColumn performs online initial encryption, key rotation or
// decryption of a column through the enclave (§2.4.2): every cell is
// converted by enclave.ConvertCells under a client authorization proof
// (§3.2), indexes over the column are rebuilt, and the catalog is updated.
// No client round trip of data occurs.
func (s *Session) executeAlterColumn(st AlterColumnStmt) error {
	e := s.engine
	if e.cfg.Enclave == nil {
		return errors.New("engine: ALTER COLUMN encryption requires an enclave (use client-side tools otherwise)")
	}
	if s.EnclaveSID == 0 {
		return errors.New("engine: no enclave session; run sp_describe_parameter_encryption with attestation first")
	}
	tbl, err := e.catalog.Table(st.Table)
	if err != nil {
		return err
	}
	col, err := tbl.Col(st.Column)
	if err != nil {
		return err
	}
	from := col.Enc
	to, err := e.catalog.EncTypeFor(st.Enc)
	if err != nil {
		return err
	}
	if !from.IsPlaintext() && !from.EnclaveEnabled {
		return errors.New("engine: source CEK is not enclave-enabled; use client-side tools (§2.4.2)")
	}
	if !to.IsPlaintext() && !to.EnclaveEnabled {
		return errors.New("engine: target CEK is not enclave-enabled; use client-side tools (§2.4.2)")
	}

	proof := &enclave.ConversionProof{
		QueryText: st.RawText,
		Parse: enclave.ConversionParse{
			Table:    st.Table,
			Column:   st.Column,
			ToCEK:    to.CEKName,
			ToScheme: to.Scheme,
		},
	}

	// Serialize with other structural changes on the table; clients keep
	// reading throughout (reads only take page latches).
	tbl.mu.Lock()
	defer tbl.mu.Unlock()

	// Collect cells, convert in enclave batches, rewrite rows.
	type rowRef struct {
		rid   storage.RowID
		cells [][]byte
	}
	var rows []rowRef
	err = tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
		cells, err := decodeRow(rec)
		if err != nil {
			return false, err
		}
		cp := make([][]byte, len(cells))
		for i, c := range cells {
			if c != nil {
				cp[i] = append([]byte(nil), c...)
			}
		}
		rows = append(rows, rowRef{rid: rid, cells: cp})
		return true, nil
	})
	if err != nil {
		return err
	}

	// One enclave crossing converts a whole batch of cells; the batch size
	// is the same knob the executor's filter pipeline amortizes over.
	for lo := 0; lo < len(rows); lo += e.batch {
		hi := lo + e.batch
		if hi > len(rows) {
			hi = len(rows)
		}
		in := make([][]byte, 0, hi-lo)
		for _, r := range rows[lo:hi] {
			var cell []byte
			if col.Pos < len(r.cells) {
				cell = r.cells[col.Pos]
			}
			in = append(in, cell)
		}
		out, err := e.cfg.Enclave.ConvertCells(s.EnclaveSID, proof, from, to, in)
		if err != nil {
			return fmt.Errorf("engine: enclave conversion: %w", err)
		}
		for i := range out {
			r := &rows[lo+i]
			for len(r.cells) <= col.Pos {
				r.cells = append(r.cells, nil)
			}
			r.cells[col.Pos] = out[i]
			rec := encodeRow(r.cells)
			rid2, err := tbl.Heap.Update(r.rid, rec, nil)
			if err != nil {
				return err
			}
			// Redo-only rewrite (Txn 0): replicas re-encrypt nothing — they
			// apply the ciphertext rewrite physically.
			e.wal.Append(storage.Record{
				Type: storage.RecHeapUpdate, Table: tbl.Name,
				Row: r.rid, NewRow: rid2, New: rec,
			})
		}
	}

	// Update the catalog type and rebuild indexes containing the column.
	col.Enc = to
	e.wal.Append(storage.Record{
		Type: storage.RecAlterEnc, Table: tbl.Name, DDL: encodeAlterEnc(col.Name, to),
	})
	for _, idx := range tbl.Indexes {
		contains := false
		for _, pos := range idx.ColPos {
			if pos == col.Pos {
				contains = true
				break
			}
		}
		if !contains {
			continue
		}
		tree, rangeCapable, ceks, err := e.buildIndexTree(tbl, idx.ColPos, idx.Unique)
		if err != nil {
			return err
		}
		err = tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
			cells, err := decodeRow(rec)
			if err != nil {
				return false, err
			}
			if err := idx.Tree.Insert(copyKey(idx.indexKeyFor(cells)), rid); err != nil {
				return false, err
			}
			return true, nil
		})
		if err != nil {
			return err
		}
		idx.Tree = tree
		idx.RangeCapable = rangeCapable
		idx.CEKs = ceks
	}
	e.InvalidatePlans()
	return nil
}

// AlterColumnClientSide is the server-side half of the client-side initial
// encryption / key rotation tools of §2.4.2: when a CEK is enclave-disabled
// (AEv1), turning encryption on requires a round trip of the data to a
// client that holds the keys. The convert callback IS that round trip —
// every cell passes through client code (in the real product, via bcp
// out/in through the AE-aware driver). The server itself never sees keys.
func (e *Engine) AlterColumnClientSide(table, column string, to sqltypes.EncType,
	convert func(old []byte) ([]byte, error)) error {
	tbl, err := e.catalog.Table(table)
	if err != nil {
		return err
	}
	col, err := tbl.Col(column)
	if err != nil {
		return err
	}

	tbl.mu.Lock()
	defer tbl.mu.Unlock()

	type rowRef struct {
		rid   storage.RowID
		cells [][]byte
	}
	var rows []rowRef
	err = tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
		cells, err := decodeRow(rec)
		if err != nil {
			return false, err
		}
		cp := make([][]byte, len(cells))
		for i, c := range cells {
			if c != nil {
				cp[i] = append([]byte(nil), c...)
			}
		}
		rows = append(rows, rowRef{rid: rid, cells: cp})
		return true, nil
	})
	if err != nil {
		return err
	}
	for i := range rows {
		r := &rows[i]
		var cell []byte
		if col.Pos < len(r.cells) {
			cell = r.cells[col.Pos]
		}
		if len(cell) == 0 {
			continue // NULLs stay unencrypted
		}
		out, err := convert(cell)
		if err != nil {
			return fmt.Errorf("engine: client-side conversion: %w", err)
		}
		for len(r.cells) <= col.Pos {
			r.cells = append(r.cells, nil)
		}
		r.cells[col.Pos] = out
		rec := encodeRow(r.cells)
		rid2, err := tbl.Heap.Update(r.rid, rec, nil)
		if err != nil {
			return err
		}
		e.wal.Append(storage.Record{
			Type: storage.RecHeapUpdate, Table: tbl.Name,
			Row: r.rid, NewRow: rid2, New: rec,
		})
	}

	col.Enc = to
	e.wal.Append(storage.Record{
		Type: storage.RecAlterEnc, Table: tbl.Name, DDL: encodeAlterEnc(col.Name, to),
	})
	for _, idx := range tbl.Indexes {
		contains := false
		for _, pos := range idx.ColPos {
			if pos == col.Pos {
				contains = true
				break
			}
		}
		if !contains {
			continue
		}
		tree, rangeCapable, ceks, err := e.buildIndexTree(tbl, idx.ColPos, idx.Unique)
		if err != nil {
			return err
		}
		err = tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
			cells, err := decodeRow(rec)
			if err != nil {
				return false, err
			}
			return true, tree.Insert(copyKey(idx.indexKeyFor(cells)), rid)
		})
		if err != nil {
			return err
		}
		idx.Tree = tree
		idx.RangeCapable = rangeCapable
		idx.CEKs = ceks
	}
	e.InvalidatePlans()
	return nil
}

// DescribeWithAttestation is the full sp_describe_parameter_encryption call
// (§4.1): encryption type deduction output plus, when the query needs the
// enclave and the client supplied a DH public key, a fresh enclave session
// with the attestation chain of §4.2. The enclave session id is returned so
// the driver can target CEK installation.
func (s *Session) DescribeWithAttestation(query string, clientDHPub []byte) (*DescribeResult, *attestation.Info, uint64, error) {
	e := s.engine
	desc, err := e.Describe(query)
	if err != nil {
		return nil, nil, 0, err
	}
	if !desc.NeedsEnclave || clientDHPub == nil {
		return desc, nil, 0, nil
	}
	if e.cfg.Enclave == nil || e.cfg.Host == nil || e.cfg.HGS == nil {
		return nil, nil, 0, errors.New("engine: attestation requested but enclave/host/HGS not configured")
	}
	sid, report, dhSig, err := e.cfg.Enclave.NewSession(clientDHPub)
	if err != nil {
		return nil, nil, 0, err
	}
	cert, err := e.cfg.HGS.AttestHost(e.cfg.Host.TCGLog(), e.cfg.Host.SigningKey())
	if err != nil {
		return nil, nil, 0, err
	}
	reportSig, err := e.cfg.Host.SignReport(&report)
	if err != nil {
		return nil, nil, 0, err
	}
	info := &attestation.Info{
		HealthCert:      *cert,
		Report:          report,
		ReportSignature: reportSig,
		EnclaveKeyDER:   e.cfg.Enclave.IdentityKeyDER(),
		DHSignature:     dhSig,
	}
	s.EnclaveSID = sid
	return desc, info, sid, nil
}

// InstallCEK forwards a sealed CEK envelope from the driver to the enclave
// under this session's enclave session.
func (s *Session) InstallCEK(name string, nonce uint64, sealed []byte) error {
	if s.engine.cfg.Enclave == nil {
		return errors.New("engine: no enclave configured")
	}
	return s.engine.cfg.Enclave.InstallCEK(s.EnclaveSID, name, nonce, sealed)
}

// AuthorizeStatement forwards a sealed statement-hash authorization.
func (s *Session) AuthorizeStatement(nonce uint64, sealed []byte) error {
	if s.engine.cfg.Enclave == nil {
		return errors.New("engine: no enclave configured")
	}
	return s.engine.cfg.Enclave.AuthorizeStatement(s.EnclaveSID, nonce, sealed)
}
