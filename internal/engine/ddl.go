package engine

import (
	"errors"
	"fmt"
	"slices"

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
		idx := &Index{Name: "pk_" + st.Name, Table: tbl.Name, ColPos: pkCols, ColNames: names, Unique: true, IsPrimary: true}
		if _, err := e.buildIndex(tbl, idx, fillNone); err != nil {
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
// before the index becomes visible in the catalog. fill and the invalidated
// result are buildIndex's.
func (e *Engine) executeCreateIndex(st CreateIndexStmt, fill indexFill, logDDL func()) (invalidated bool, err error) {
	tbl, err := e.catalog.Table(st.Table)
	if err != nil {
		return false, err
	}
	idx := &Index{
		Name: st.Name, Table: tbl.Name, Unique: st.Unique,
		ColPos: make([]int, len(st.Cols)), ColNames: make([]string, len(st.Cols)),
	}
	anyEncrypted := false
	for i, name := range st.Cols {
		col, err := tbl.Col(name)
		if err != nil {
			return false, err
		}
		idx.ColPos[i] = col.Pos
		idx.ColNames[i] = col.Name
		if !col.Enc.IsPlaintext() {
			anyEncrypted = true
		}
	}
	if st.Clustered && anyEncrypted {
		return false, errors.New("engine: clustered indexes on encrypted columns are not supported (§4.5)")
	}
	// Backfill and publish are one tbl.mu critical section, and writers take
	// their index list inside theirs: a row is either already in the heap when
	// the backfill scans it, or its writer sees the new index and maintains
	// it — never neither.
	tbl.mu.Lock()
	invalidated, err = e.buildIndex(tbl, idx, fill)
	if err == nil {
		err = e.catalog.AddIndexLogged(idx, logDDL)
	}
	tbl.mu.Unlock()
	if err != nil {
		return false, err
	}
	e.InvalidatePlans()
	return invalidated, nil
}

// indexFill says how buildIndex populates the tree it constructs.
type indexFill int

const (
	// fillNone leaves the tree empty: the table is being created and has no
	// heap yet.
	fillNone indexFill = iota
	// fillFromHeap inserts every heap row; any failure fails the build and
	// leaves the index as it was.
	fillFromHeap
	// fillOrInvalidate is fillFromHeap for replica redo: ordering encrypted
	// keys takes enclave comparisons and a replica's enclave holds no CEKs, so
	// a missing key installs the tree invalidated instead of failing —
	// promotion plus RebuildIndex restores it from the heap, which physical
	// redo keeps complete.
	fillOrInvalidate
)

// buildIndex is the engine's one index build: it constructs the tree idx's
// columns call for under their current encryption types, fills it from the
// heap as fill directs, and installs it (with RangeCapable and CEKs) on idx.
// CREATE TABLE, CREATE INDEX, both ALTER COLUMN paths, their replica redo and
// RebuildIndex all build through it. Filling an index over an encrypted range
// column sorts the data via enclave comparisons — the index-build ordering
// leakage of Figure 5.
//
// The caller holds tbl.mu, except for a table not yet published: rows are
// placed in the heap under tbl.mu, so none can slip in behind the scan.
func (e *Engine) buildIndex(tbl *Table, idx *Index, fill indexFill) (invalidated bool, err error) {
	tree, rangeCapable, ceks, err := e.buildIndexTree(tbl, idx.ColPos, idx.Unique)
	if err != nil {
		return false, err
	}
	if fill != fillNone {
		err := tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
			cells, err := decodeRow(rec)
			if err != nil {
				return false, err
			}
			return true, tree.Insert(copyKey(idx.indexKeyFor(cells)), rid)
		})
		switch {
		case err == nil:
		case fill == fillOrInvalidate && IsKeyMissing(err):
			tree.Invalidate()
			invalidated = true
		default:
			return false, fmt.Errorf("engine: building index %s: %w", idx.Name, err)
		}
	}
	idx.Tree, idx.RangeCapable, idx.CEKs = tree, rangeCapable, ceks
	return invalidated, nil
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
	return e.rewriteColumn(tbl, col, to, func(cells [][]byte) ([][]byte, error) {
		out, err := e.cfg.Enclave.ConvertCells(s.EnclaveSID, proof, from, to, cells)
		if err != nil {
			return nil, fmt.Errorf("engine: enclave conversion: %w", err)
		}
		return out, nil
	})
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
	return e.rewriteColumn(tbl, col, to, func(cells [][]byte) ([][]byte, error) {
		out := make([][]byte, len(cells))
		for i, cell := range cells {
			var err error
			if out[i], err = convert(cell); err != nil {
				return nil, fmt.Errorf("engine: client-side conversion: %w", err)
			}
		}
		return out, nil
	})
}

// rewriteColumn re-encodes every cell of col under the encryption type to —
// the body both ALTER COLUMN paths share. convert maps a chunk of the
// column's current cells to their new encodings: one enclave crossing per
// chunk on the enclave path, so chunks are e.batch cells, the same knob the
// executor's filter pipeline amortizes over. NULL cells are not converted:
// NULLs are stored unencrypted as absent values.
//
// Rows are rewritten in place and logged as redo-only (Txn 0) heap updates —
// replicas re-encrypt nothing, they apply the ciphertext rewrite physically —
// followed by one RecAlterEnc carrying the catalog change; every index over
// the column is then rebuilt, since its entries hold the old encodings and
// its comparator the old key.
func (e *Engine) rewriteColumn(tbl *Table, col *Column, to sqltypes.EncType,
	convert func(cells [][]byte) ([][]byte, error)) error {
	// Serialize with other structural changes on the table; clients keep
	// reading throughout (reads only take page latches).
	tbl.mu.Lock()
	defer tbl.mu.Unlock()

	type rowRef struct {
		rid   storage.RowID
		cells [][]byte
	}
	var rows []rowRef
	err := tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
		// The record aliases page memory, which the rewrite below mutates.
		cells, err := decodeRow(append([]byte(nil), rec...))
		if err != nil {
			return false, err
		}
		if col.Pos < len(cells) && len(cells[col.Pos]) > 0 {
			rows = append(rows, rowRef{rid: rid, cells: cells})
		}
		return true, nil
	})
	if err != nil {
		return err
	}

	for len(rows) > 0 {
		chunk := rows[:min(e.batch, len(rows))]
		rows = rows[len(chunk):]
		in := make([][]byte, len(chunk))
		for i := range chunk {
			in[i] = chunk[i].cells[col.Pos]
		}
		out, err := convert(in)
		if err != nil {
			return err
		}
		for i, r := range chunk {
			r.cells[col.Pos] = out[i]
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
	}

	col.Enc = to
	e.wal.Append(storage.Record{
		Type: storage.RecAlterEnc, Table: tbl.Name, DDL: encodeAlterEnc(col.Name, to),
	})
	for _, idx := range tbl.Indexes {
		if !slices.Contains(idx.ColPos, col.Pos) {
			continue
		}
		if _, err := e.buildIndex(tbl, idx, fillFromHeap); err != nil {
			return err
		}
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
