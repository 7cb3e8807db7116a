// Package engine is the relational database engine of the reproduction: the
// untrusted "SQL Server" of Figure 3. It hosts the catalog (including the
// CMK/CEK key metadata system tables), the SQL parser, the binder with
// encryption type deduction (§4.3), a plan cache, the executor built around
// expression services (§4.4), transactional storage with WAL and row locks,
// online DDL for initial encryption and key rotation through the enclave
// (§2.4.2), recovery with deferred transactions and constant-time recovery
// (§4.5), and sp_describe_parameter_encryption (§4.1).
//
// The engine never holds keys: encrypted cells flow through it as opaque
// bytes, and every computation over them happens in expression services
// (DET ciphertext equality on the host) or inside the enclave.
package engine

import (
	"alwaysencrypted/internal/sqltypes"
)

// Stmt is a parsed SQL statement.
type Stmt interface{ stmtNode() }

// EncSpec is the ENCRYPTED WITH clause of a column definition.
type EncSpec struct {
	CEK       string
	Scheme    sqltypes.EncScheme
	Algorithm string
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	TypeName   string
	Kind       sqltypes.Kind
	PrimaryKey bool
	NotNull    bool
	Enc        *EncSpec
}

// CreateTableStmt: CREATE TABLE name (cols...).
type CreateTableStmt struct {
	Name string
	Cols []ColumnDef
}

// CreateIndexStmt: CREATE [UNIQUE] INDEX name ON table (cols...).
type CreateIndexStmt struct {
	Name      string
	Table     string
	Cols      []string
	Unique    bool
	Clustered bool
}

// CreateCMKStmt: CREATE COLUMN MASTER KEY (Figure 1).
type CreateCMKStmt struct {
	Name                string
	ProviderName        string
	KeyPath             string
	EnclaveComputations bool
	Signature           []byte
}

// CreateCEKStmt: CREATE COLUMN ENCRYPTION KEY (Figure 1).
type CreateCEKStmt struct {
	Name           string
	CMK            string
	Algorithm      string
	EncryptedValue []byte
	Signature      []byte
}

// AlterColumnStmt: ALTER TABLE t ALTER COLUMN c type [ENCRYPTED WITH (...)];
// the online initial-encryption / key-rotation DDL (§2.4.2). A nil Enc means
// convert to plaintext.
type AlterColumnStmt struct {
	Table    string
	Column   string
	TypeName string
	Enc      *EncSpec
	// RawText is the statement text whose hash the client authorized; the
	// enclave validates it against the parse tree (§3.2).
	RawText string
}

// ValueExpr is a scalar source in predicates, INSERT values and SET clauses.
type ValueExpr interface{ valueNode() }

// ParamExpr references a named query parameter (@name).
type ParamExpr struct{ Name string }

// LiteralExpr is an inline literal.
type LiteralExpr struct{ Val sqltypes.Value }

// keyBound is a seek bound already in the canonical key encoding: the
// planner's bounds for a prefix LIKE, which no literal value encodes to.
type keyBound []byte

// ColExpr references a column (only valid in SET right-hand sides and
// SELECT items).
type ColExpr struct{ Name string }

// ArithExpr is plaintext-only arithmetic in SET clauses: col + @p etc.
type ArithExpr struct {
	Op   byte // '+', '-', '*'
	L, R ValueExpr
}

func (ParamExpr) valueNode()   {}
func (LiteralExpr) valueNode() {}
func (keyBound) valueNode()    {}
func (ColExpr) valueNode()     {}
func (ArithExpr) valueNode()   {}

// PredOp enumerates predicate operators in WHERE clauses.
type PredOp int

const (
	PredEQ PredOp = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
	PredLike
	PredBetween
	PredIsNull
	PredIsNotNull
)

// Predicate is one conjunct of a WHERE clause: column OP value(s).
type Predicate struct {
	Col  string // possibly qualified t.col
	Op   PredOp
	Val  ValueExpr // nil for IS [NOT] NULL
	Val2 ValueExpr // BETWEEN upper bound
}

// AggFunc enumerates supported aggregates.
type AggFunc int

const (
	AggNone AggFunc = iota
	AggCount
	AggCountDistinct
	AggMin
	AggMax
	AggSum
)

// SelectItem is one projection item.
type SelectItem struct {
	Star bool
	Col  string // possibly qualified
	Agg  AggFunc
}

// JoinClause is an inner equi-join: FROM a JOIN b ON a.x = b.y.
type JoinClause struct {
	Table    string
	LeftCol  string // qualified
	RightCol string // qualified
}

// SelectStmt: SELECT items FROM table [JOIN ...] [WHERE ...] [LIMIT n].
type SelectStmt struct {
	Items []SelectItem
	Table string
	Join  *JoinClause
	Where []Predicate
	Limit int // 0 = no limit
}

// InsertStmt: INSERT INTO t (cols) VALUES (exprs).
type InsertStmt struct {
	Table string
	Cols  []string
	Vals  []ValueExpr
}

// SetClause is one assignment in UPDATE.
type SetClause struct {
	Col  string
	Expr ValueExpr
}

// UpdateStmt: UPDATE t SET ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where []Predicate
}

// DeleteStmt: DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where []Predicate
}

// Transaction control statements.
type BeginStmt struct{}
type CommitStmt struct{}
type RollbackStmt struct{}

func (CreateTableStmt) stmtNode() {}
func (CreateIndexStmt) stmtNode() {}
func (CreateCMKStmt) stmtNode()   {}
func (CreateCEKStmt) stmtNode()   {}
func (AlterColumnStmt) stmtNode() {}
func (SelectStmt) stmtNode()      {}
func (InsertStmt) stmtNode()      {}
func (UpdateStmt) stmtNode()      {}
func (DeleteStmt) stmtNode()      {}
func (BeginStmt) stmtNode()       {}
func (CommitStmt) stmtNode()      {}
func (RollbackStmt) stmtNode()    {}
