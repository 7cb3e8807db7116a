package driver

import (
	"errors"
	"fmt"
	"strings"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
)

// Bulk load: the client half of the bulkcopy fast path. The driver describes
// a synthetic single-row INSERT over the target columns — reusing the normal
// sp_describe_parameter_encryption pipeline, its cache, and attestation —
// resolves each encrypted column's CEK once, encrypts every cell
// client-side, and ships the rows in multi-row TDS requests. The server sees
// exactly what it sees for single-row inserts: ciphertext envelopes.

// bulkChunkRows bounds rows per wire request, keeping each request inside
// the server's frame budget and bounding the blast radius of a mid-load
// connection loss.
const bulkChunkRows = 256

// BulkInsert loads rows into table. cols names the target columns in cell
// order. Outside an explicit transaction each chunk of bulkChunkRows commits
// on its own (standard bulkcopy batch semantics); inside one, the whole load
// rides the transaction. Returns the number of rows the server acknowledged.
//
// Failures follow the same rules as Exec (see retry). A rerun resumes after
// the rows already acknowledged, so it never re-sends a committed chunk; when
// the outcome of the in-flight chunk is unknown the load stops with
// ErrIndeterminate and the return counts the chunks acknowledged before it.
func (c *Conn) BulkInsert(table string, cols []string, rows [][]sqltypes.Value) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	if len(cols) == 0 {
		return 0, errors.New("driver: bulk insert needs at least one column")
	}
	for r, row := range rows {
		if len(row) != len(cols) {
			return 0, fmt.Errorf("driver: bulk row %d has %d values, want %d", r, len(row), len(cols))
		}
	}
	n := 0
	err := c.retry(func() (bool, error) {
		got, applied, err := c.bulkInsertOnce(table, cols, rows[n:])
		n += got
		return applied, err
	})
	return n, err
}

// bulkDescribeQuery builds the synthetic statement whose describe output
// carries the per-column encryption metadata: parameter @p<i+1> stands for
// cols[i].
func bulkDescribeQuery(table string, cols []string) string {
	ps := make([]string, len(cols))
	for i := range cols {
		ps[i] = fmt.Sprintf("@p%d", i+1)
	}
	return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
		table, strings.Join(cols, ", "), strings.Join(ps, ", "))
}

func (c *Conn) bulkInsertOnce(table string, cols []string, rows [][]sqltypes.Value) (n int, applied bool, err error) {
	c.cachedDescribe = ""
	// Per-column encryption plan: a nil sealer means plaintext encoding. The
	// sealers schedule each column's key once for the whole call and are
	// retired when it returns.
	colSealers := make([]*aecrypto.Sealer, len(cols))
	colTypes := make([]aecrypto.EncryptionType, len(cols))
	defer func() {
		for _, s := range colSealers {
			if s != nil {
				s.Zeroize()
			}
		}
	}()

	if c.cfg.AlwaysEncrypted {
		query := bulkDescribeQuery(table, cols)
		desc, err := c.describe(query)
		if err != nil {
			return 0, false, err
		}
		if desc.Desc.NeedsEnclave {
			if err := c.prepareEnclave(query, desc); err != nil {
				return 0, false, err
			}
		}
		byName := make(map[string]int, len(desc.Desc.Params))
		for i, pi := range desc.Desc.Params {
			byName[pi.Name] = i
		}
		for i := range cols {
			pi, ok := byName[fmt.Sprintf("p%d", i+1)]
			if !ok {
				continue // column not described: plaintext
			}
			enc := desc.Desc.Params[pi].Enc
			if enc.IsPlaintext() {
				continue
			}
			_, cell, err := c.resolveCEK(enc.CEKName, &desc.Desc, false)
			if err != nil {
				return 0, false, err
			}
			if colSealers[i], err = cell.NewSealer(); err != nil {
				return 0, false, err
			}
			colTypes[i] = aecrypto.Randomized
			if enc.Scheme == sqltypes.SchemeDeterministic {
				colTypes[i] = aecrypto.Deterministic
			}
		}
	}

	for off := 0; off < len(rows); off += bulkChunkRows {
		end := off + bulkChunkRows
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[off:end]
		wire := make([][][]byte, len(chunk))
		for r, row := range chunk {
			cells := make([][]byte, len(cols))
			for i, v := range row {
				if v.IsNull() {
					continue
				}
				if colSealers[i] == nil {
					cells[i] = v.Encode()
					continue
				}
				ct, err := colSealers[i].Seal(v.Encode(), colTypes[i])
				if err != nil {
					return n, applied, err
				}
				cells[i] = ct
			}
			wire[r] = cells
		}
		c.lastTrace = trace.NewID()
		if c.collectTraces {
			c.traceLog = append(c.traceLog, c.lastTrace)
		}
		applied = true
		got, err := c.tds.BulkInsert(table, cols, wire, c.lastTrace)
		if err != nil {
			return n, applied, err
		}
		n += got
	}
	return n, applied, nil
}
