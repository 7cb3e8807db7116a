package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// Column is one column's catalog entry. Encryption is an attribute of the
// type (§4.3): Enc carries the scheme, the CEK binding and the
// enclave-enabled bit derived from the wrapping CMK.
type Column struct {
	Name       string
	Kind       sqltypes.Kind
	PrimaryKey bool
	NotNull    bool
	Enc        sqltypes.EncType
	Pos        int
}

// Table is a catalog table: schema plus its heap and indexes. A table-level
// mutex serializes structural mutations; row-level isolation is the lock
// manager's job.
type Table struct {
	Name    string
	Cols    []Column
	colIdx  map[string]int
	Heap    *storage.Heap
	Indexes []*Index
	mu      sync.Mutex
}

// Col resolves a column by (case-insensitive) name.
func (t *Table) Col(name string) (*Column, error) {
	i, ok := t.colIdx[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown column %s.%s", t.Name, name)
	}
	return &t.Cols[i], nil
}

// PrimaryKeyIndex returns the implicit PK index if the table has one.
func (t *Table) PrimaryKeyIndex() *Index {
	for _, idx := range t.Indexes {
		if idx.IsPrimary {
			return idx
		}
	}
	return nil
}

// Index is a catalog index over one table.
type Index struct {
	Name      string
	Table     string
	ColPos    []int
	ColNames  []string
	Unique    bool
	IsPrimary bool
	Tree      *btree.Tree
	// RangeCapable reports, per component, whether range predicates can use
	// it (plaintext or enclave-ordered; DET components support equality
	// only, §3.1.1).
	RangeCapable []bool
	// CEKs lists enclave keys the index needs for comparisons.
	CEKs []string
}

// crossingSpan opens an "enclave.crossing" span on the statement's trace
// around a tree operation that puts rows keys to idx, when idx has an
// enclave-ordered component; for every other index it costs one length test.
// The span brackets the whole tree operation: the enclave calls (one per
// node searched) plus the tree-latch wait and the host walk between them.
func (idx *Index) crossingSpan(act *trace.Active, rows int) trace.SpanRef {
	if len(idx.CEKs) == 0 {
		return trace.SpanRef{}
	}
	sp := act.StartSpan("enclave.crossing")
	sp.Attr("rows", int64(rows))
	return sp
}

// insertKey adds one entry to the index's tree under crossingSpan.
func (idx *Index) insertKey(act *trace.Active, key [][]byte, row storage.RowID) error {
	sp := idx.crossingSpan(act, 1)
	defer sp.End()
	return idx.Tree.Insert(key, row)
}

// deleteKey removes one entry from the index's tree under crossingSpan.
func (idx *Index) deleteKey(act *trace.Active, key [][]byte, row storage.RowID) error {
	sp := idx.crossingSpan(act, 1)
	defer sp.End()
	_, err := idx.Tree.Delete(key, row)
	return err
}

// Catalog holds schema and key metadata — the system tables. Key metadata
// lives here so "the database is the single source of truth" and metadata is
// backed up with the data (§2.2); only the CMK key material stays in the
// client's provider.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	indexes map[string]*Index
	cmks    map[string]*keys.CMKMetadata
	ceks    map[string]*keys.CEKMetadata
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string]*Index),
		cmks:    make(map[string]*keys.CMKMetadata),
		ceks:    make(map[string]*keys.CEKMetadata),
	}
}

// Errors from catalog lookups.
var (
	ErrNoTable   = errors.New("engine: unknown table")
	ErrNoKeyMeta = errors.New("engine: unknown key metadata")
	ErrExists    = errors.New("engine: object already exists")
)

// Table resolves a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return t, nil
}

// AddTableLogged registers a table together with the indexes already attached
// to it (the implicit primary key), running log (when non-nil) inside the
// catalog's critical section after the uniqueness check and before the table
// becomes visible. Primaries log the creating RecDDL there: a concurrent
// session can only reach the table after the catalog lock is released, so its
// WAL records are guaranteed to sequence after the record that creates the
// table — otherwise replica redo would hit table-not-found and halt.
func (c *Catalog) AddTableLogged(t *Table, log func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("%w: table %s", ErrExists, t.Name)
	}
	for _, idx := range t.Indexes {
		if _, ok := c.indexes[strings.ToLower(idx.Name)]; ok {
			return fmt.Errorf("%w: index %s", ErrExists, idx.Name)
		}
	}
	t.colIdx = make(map[string]int, len(t.Cols))
	for i := range t.Cols {
		t.Cols[i].Pos = i
		t.colIdx[strings.ToLower(t.Cols[i].Name)] = i
	}
	if log != nil {
		log()
	}
	c.tables[key] = t
	for _, idx := range t.Indexes {
		c.indexes[strings.ToLower(idx.Name)] = idx
	}
	return nil
}

// AddIndexLogged registers an index and attaches it to its table, running log
// (when non-nil) before the index becomes visible — same ordering guarantee
// as AddTableLogged. The caller holds the table's mutex (executeCreateIndex).
func (c *Catalog) AddIndexLogged(idx *Index, log func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(idx.Name)
	if _, ok := c.indexes[key]; ok {
		return fmt.Errorf("%w: index %s", ErrExists, idx.Name)
	}
	t, ok := c.tables[strings.ToLower(idx.Table)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, idx.Table)
	}
	if log != nil {
		log()
	}
	c.indexes[key] = idx
	t.Indexes = append(t.Indexes, idx)
	return nil
}

// Index resolves an index by name.
func (c *Catalog) Index(name string) (*Index, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	idx, ok := c.indexes[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown index %s", name)
	}
	return idx, nil
}

// Tables lists table names (diagnostics).
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	return out
}

// AddCMK stores column master key metadata.
func (c *Catalog) AddCMK(m *keys.CMKMetadata) error { return c.AddCMKLogged(m, nil) }

// AddCMKLogged stores CMK metadata, logging before visibility (a CREATE CEK
// referencing this CMK must sequence after the record that creates it).
func (c *Catalog) AddCMKLogged(m *keys.CMKMetadata, log func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(m.Name)
	if _, ok := c.cmks[key]; ok {
		return fmt.Errorf("%w: CMK %s", ErrExists, m.Name)
	}
	if log != nil {
		log()
	}
	c.cmks[key] = m
	return nil
}

// AddCEK stores column encryption key metadata.
func (c *Catalog) AddCEK(m *keys.CEKMetadata) error { return c.AddCEKLogged(m, nil) }

// AddCEKLogged stores CEK metadata, logging before visibility — DDL that
// references the CEK (CREATE TABLE) must sequence after its creating record.
func (c *Catalog) AddCEKLogged(m *keys.CEKMetadata, log func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(m.Name)
	if _, ok := c.ceks[key]; ok {
		return fmt.Errorf("%w: CEK %s", ErrExists, m.Name)
	}
	if log != nil {
		log()
	}
	c.ceks[key] = m
	return nil
}

// ReplaceCEK overwrites CEK metadata (rotation).
func (c *Catalog) ReplaceCEK(m *keys.CEKMetadata) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ceks[strings.ToLower(m.Name)] = m
}

// CMK resolves CMK metadata.
func (c *Catalog) CMK(name string) (*keys.CMKMetadata, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.cmks[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: CMK %s", ErrNoKeyMeta, name)
	}
	return m, nil
}

// CEK resolves CEK metadata.
func (c *Catalog) CEK(name string) (*keys.CEKMetadata, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.ceks[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: CEK %s", ErrNoKeyMeta, name)
	}
	return m, nil
}

// EnclaveEnabled reports whether a CEK is enclave-enabled, i.e. whether its
// (primary) wrapping CMK was provisioned with ENCLAVE_COMPUTATIONS (§2.2).
func (c *Catalog) EnclaveEnabled(cekName string) (bool, error) {
	cek, err := c.CEK(cekName)
	if err != nil {
		return false, err
	}
	val := cek.PrimaryValue()
	if val == nil {
		return false, fmt.Errorf("engine: CEK %s has no values", cekName)
	}
	cmk, err := c.CMK(val.CMKName)
	if err != nil {
		return false, err
	}
	return cmk.EnclaveEnabled, nil
}

// EncTypeFor builds the full encryption type of a column from its spec.
func (c *Catalog) EncTypeFor(spec *EncSpec) (sqltypes.EncType, error) {
	if spec == nil {
		return sqltypes.PlaintextType, nil
	}
	enclave, err := c.EnclaveEnabled(spec.CEK)
	if err != nil {
		return sqltypes.EncType{}, err
	}
	// Resolve the canonical CEK name casing from the catalog.
	cek, err := c.CEK(spec.CEK)
	if err != nil {
		return sqltypes.EncType{}, err
	}
	return sqltypes.EncType{
		Scheme:         spec.Scheme,
		CEKName:        cek.Name,
		EnclaveEnabled: enclave,
	}, nil
}

// --- row codec ---
//
// Rows are stored as a cell vector: u16 cell count, then per cell a u32
// length (0 = SQL NULL) followed by the bytes. Encrypted cells hold the
// ciphertext envelope; plaintext cells hold the canonical value encoding.

// encodeRow serializes cells into a heap record.
func encodeRow(cells [][]byte) []byte {
	size := 2
	for _, c := range cells {
		size += 4 + len(c)
	}
	out := make([]byte, size)
	binary.LittleEndian.PutUint16(out, uint16(len(cells)))
	w := 2
	for _, c := range cells {
		binary.LittleEndian.PutUint32(out[w:], uint32(len(c)))
		w += 4
		copy(out[w:], c)
		w += len(c)
	}
	return out
}

// decodeRow parses a heap record into cells. The cells alias rec.
func decodeRow(rec []byte) ([][]byte, error) {
	if len(rec) < 2 {
		return nil, errors.New("engine: short row record")
	}
	n := int(binary.LittleEndian.Uint16(rec))
	// Every cell takes at least its length word: a count the record cannot
	// hold is rejected before it sizes an allocation.
	if n > (len(rec)-2)/4 {
		return nil, errors.New("engine: truncated row record")
	}
	cells := make([][]byte, n)
	r := 2
	for i := 0; i < n; i++ {
		if r+4 > len(rec) {
			return nil, errors.New("engine: truncated row record")
		}
		l := int(binary.LittleEndian.Uint32(rec[r:]))
		r += 4
		if r+l > len(rec) {
			return nil, errors.New("engine: truncated row cell")
		}
		if l > 0 {
			cells[i] = rec[r : r+l]
		}
		r += l
	}
	return cells, nil
}

// indexKeyFor extracts an index's composite key from a row's cells.
func (idx *Index) indexKeyFor(cells [][]byte) [][]byte {
	key := make([][]byte, len(idx.ColPos))
	for i, pos := range idx.ColPos {
		if pos < len(cells) {
			key[i] = cells[pos]
		}
	}
	return key
}

// rowIDKey is the composite key wrapper used when logging index operations.
func copyKey(key [][]byte) [][]byte {
	out := make([][]byte, len(key))
	for i, k := range key {
		if k != nil {
			out[i] = append([]byte(nil), k...)
		}
	}
	return out
}

var _ = storage.RowID(0) // storage is used throughout the package
