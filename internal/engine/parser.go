package engine

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"alwaysencrypted/internal/sqltypes"
)

// ErrSyntax wraps all parse errors.
var ErrSyntax = errors.New("engine: syntax error")

// Parse turns one SQL statement into its AST. Only parameterized DML can
// reference encrypted columns (§2.5); that restriction is enforced by the
// binder, not the grammar.
func Parse(src string) (Stmt, error) {
	toks, err := lexTokens(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(src, toks)
}

// lexTokens is the lex phase of the statement lifecycle, wrapping lexer
// errors in ErrSyntax.
func lexTokens(src string) ([]token, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	return toks, nil
}

// parseTokens is the parse phase: token stream to AST.
func parseTokens(src string, toks []token) (Stmt, error) {
	p := &parser{src: src, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Optional trailing semicolon.
	if p.peek().kind == tokOp && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected %q after statement", p.peek().text)
	}
	return stmt, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

// next consumes a token. The closing EOF is never consumed, so a statement
// cut short anywhere ends in a syntax error, not a read past the tokens.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s (near position %d in %q)", ErrSyntax,
		fmt.Sprintf(format, args...), p.peek().pos, truncate(p.src, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// expectKeyword consumes the given keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf("expected %s, got %q", kw, t.text)
	}
	p.next()
	return nil
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	t := p.peek()
	if t.kind != tokOp || t.text != op {
		return p.errf("expected %q, got %q", op, t.text)
	}
	p.next()
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == op {
		p.next()
		return true
	}
	return false
}

// ident consumes an identifier (keywords usable as type names are allowed).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent && t.kind != tokKeyword {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.next()
	return t.text, nil
}

// qualifiedIdent parses ident[.ident].
func (p *parser) qualifiedIdent() (string, error) {
	first, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.acceptOp(".") {
		second, err := p.ident()
		if err != nil {
			return "", err
		}
		return first + "." + second, nil
	}
	return first, nil
}

func (p *parser) parseStatement() (Stmt, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "ALTER":
		return p.parseAlter()
	case "BEGIN":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return BeginStmt{}, nil
	case "COMMIT":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return CommitStmt{}, nil
	case "ROLLBACK":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return RollbackStmt{}, nil
	default:
		return nil, p.errf("unsupported statement %q", t.text)
	}
}

func (p *parser) parseSelect() (Stmt, error) {
	p.next() // SELECT
	stmt := SelectStmt{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = table

	if p.acceptKeyword("INNER") || p.peek().kind == tokKeyword && p.peek().text == "JOIN" {
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		jt, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		lc, err := p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		rc, err := p.qualifiedIdent()
		if err != nil {
			return nil, err
		}
		stmt.Join = &JoinClause{Table: jt, LeftCol: lc, RightCol: rc}
	}

	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	stmt.Where = where

	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected LIMIT count")
		}
		p.next()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind == tokOp && t.text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "COUNT":
			p.next()
			if err := p.expectOp("("); err != nil {
				return SelectItem{}, err
			}
			if p.acceptOp("*") {
				if err := p.expectOp(")"); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Agg: AggCount, Col: "*"}, nil
			}
			distinct := p.acceptKeyword("DISTINCT")
			col, err := p.qualifiedIdent()
			if err != nil {
				return SelectItem{}, err
			}
			if err := p.expectOp(")"); err != nil {
				return SelectItem{}, err
			}
			agg := AggCount
			if distinct {
				agg = AggCountDistinct
			}
			return SelectItem{Agg: agg, Col: col}, nil
		case "MIN", "MAX", "SUM":
			p.next()
			if err := p.expectOp("("); err != nil {
				return SelectItem{}, err
			}
			col, err := p.qualifiedIdent()
			if err != nil {
				return SelectItem{}, err
			}
			if err := p.expectOp(")"); err != nil {
				return SelectItem{}, err
			}
			agg := AggMin
			switch t.text {
			case "MAX":
				agg = AggMax
			case "SUM":
				agg = AggSum
			}
			return SelectItem{Agg: agg, Col: col}, nil
		}
	}
	col, err := p.qualifiedIdent()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

func (p *parser) parseWhere() ([]Predicate, error) {
	if !p.acceptKeyword("WHERE") {
		return nil, nil
	}
	var preds []Predicate
	for {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
		if !p.acceptKeyword("AND") {
			break
		}
	}
	return preds, nil
}

func (p *parser) parsePredicate() (Predicate, error) {
	col, err := p.qualifiedIdent()
	if err != nil {
		return Predicate{}, err
	}
	t := p.peek()
	switch {
	case t.kind == tokKeyword && t.text == "IS":
		p.next()
		notNull := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return Predicate{}, err
		}
		op := PredIsNull
		if notNull {
			op = PredIsNotNull
		}
		return Predicate{Col: col, Op: op}, nil
	case t.kind == tokKeyword && t.text == "LIKE":
		p.next()
		v, err := p.parseValueExpr()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Col: col, Op: PredLike, Val: v}, nil
	case t.kind == tokKeyword && t.text == "BETWEEN":
		p.next()
		lo, err := p.parseValueExpr()
		if err != nil {
			return Predicate{}, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return Predicate{}, err
		}
		hi, err := p.parseValueExpr()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Col: col, Op: PredBetween, Val: lo, Val2: hi}, nil
	case t.kind == tokOp:
		var op PredOp
		switch t.text {
		case "=":
			op = PredEQ
		case "<>":
			op = PredNE
		case "<":
			op = PredLT
		case "<=":
			op = PredLE
		case ">":
			op = PredGT
		case ">=":
			op = PredGE
		default:
			return Predicate{}, p.errf("unexpected operator %q in predicate", t.text)
		}
		p.next()
		v, err := p.parseValueExpr()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Col: col, Op: op, Val: v}, nil
	default:
		return Predicate{}, p.errf("expected predicate operator, got %q", t.text)
	}
}

// parseValueExpr parses a parameter or literal (predicates, VALUES).
func (p *parser) parseValueExpr() (ValueExpr, error) {
	t := p.peek()
	switch t.kind {
	case tokParam:
		p.next()
		return ParamExpr{Name: t.text}, nil
	case tokNumber:
		p.next()
		return numberLiteral(t.text)
	case tokString:
		p.next()
		return LiteralExpr{Val: sqltypes.Str(t.text)}, nil
	case tokHex:
		p.next()
		b, err := hex.DecodeString(evenHex(t.text))
		if err != nil {
			return nil, p.errf("bad hex literal")
		}
		return LiteralExpr{Val: sqltypes.Bytes(b)}, nil
	case tokKeyword:
		if t.text == "NULL" {
			p.next()
			return LiteralExpr{Val: sqltypes.Null()}, nil
		}
	}
	return nil, p.errf("expected parameter or literal, got %q", t.text)
}

// parseSetExpr parses the right-hand side of SET: term (('+'|'-'|'*') term)*
// where terms are columns, parameters or literals. Arithmetic is plaintext
// only; the binder enforces that.
func (p *parser) parseSetExpr() (ValueExpr, error) {
	left, err := p.parseSetTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-" && t.text != "*") {
			return left, nil
		}
		p.next()
		right, err := p.parseSetTerm()
		if err != nil {
			return nil, err
		}
		left = ArithExpr{Op: t.text[0], L: left, R: right}
	}
}

func (p *parser) parseSetTerm() (ValueExpr, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return ColExpr{Name: t.text}, nil
	}
	return p.parseValueExpr()
}

func numberLiteral(text string) (ValueExpr, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad number %q", ErrSyntax, text)
		}
		return LiteralExpr{Val: sqltypes.Float(f)}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad number %q", ErrSyntax, text)
	}
	return LiteralExpr{Val: sqltypes.Int(i)}, nil
}

func evenHex(s string) string {
	if len(s)%2 == 1 {
		return "0" + s
	}
	return s
}

func (p *parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := InsertStmt{Table: table}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		v, err := p.parseValueExpr()
		if err != nil {
			return nil, err
		}
		stmt.Vals = append(stmt.Vals, v)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(stmt.Cols) != len(stmt.Vals) {
		return nil, p.errf("INSERT has %d columns but %d values", len(stmt.Cols), len(stmt.Vals))
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		expr, err := p.parseSetExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Col: col, Expr: expr})
		if !p.acceptOp(",") {
			break
		}
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	stmt.Where = where
	return stmt, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	return DeleteStmt{Table: table, Where: where}, nil
}

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		return p.parseCreateTable()
	case p.acceptKeyword("UNIQUE"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true, false)
	case p.acceptKeyword("CLUSTERED"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(false, true)
	case p.acceptKeyword("NONCLUSTERED"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(false, false)
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(false, false)
	case p.acceptKeyword("COLUMN"):
		if p.acceptKeyword("MASTER") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			return p.parseCreateCMK()
		}
		if p.acceptKeyword("ENCRYPTION") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			return p.parseCreateCEK()
		}
		return nil, p.errf("expected MASTER KEY or ENCRYPTION KEY")
	default:
		return nil, p.errf("unsupported CREATE %q", p.peek().text)
	}
}

func (p *parser) parseCreateTable() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := CreateTableStmt{Name: name}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ColumnDef{}, err
	}
	typeName, err := p.parseTypeName()
	if err != nil {
		return ColumnDef{}, err
	}
	kind, err := sqltypes.KindFromTypeName(typeName)
	if err != nil {
		return ColumnDef{}, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	def := ColumnDef{Name: name, TypeName: typeName, Kind: kind}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			def.PrimaryKey = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
			def.NotNull = true
		case p.acceptKeyword("ENCRYPTED"):
			if err := p.expectKeyword("WITH"); err != nil {
				return ColumnDef{}, err
			}
			enc, err := p.parseEncSpec()
			if err != nil {
				return ColumnDef{}, err
			}
			def.Enc = enc
		default:
			return def, nil
		}
	}
}

// parseTypeName consumes "varchar(30)" style type names, discarding lengths.
func (p *parser) parseTypeName() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.acceptOp("(") {
		for !p.acceptOp(")") {
			if p.peek().kind == tokEOF {
				return "", p.errf("unterminated type length")
			}
			p.next()
		}
	}
	return name, nil
}

// parseEncSpec parses (COLUMN_ENCRYPTION_KEY = k, ENCRYPTION_TYPE = t,
// ALGORITHM = 'a'), in any order (Figure 1).
func (p *parser) parseEncSpec() (*EncSpec, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	spec := &EncSpec{}
	for {
		t := p.next()
		if t.kind != tokKeyword {
			return nil, p.errf("expected encryption attribute, got %q", t.text)
		}
		switch t.text {
		case "COLUMN_ENCRYPTION_KEY":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			spec.CEK = name
		case "ENCRYPTION_TYPE":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			tt := p.next()
			switch strings.ToUpper(tt.text) {
			case "RANDOMIZED":
				spec.Scheme = sqltypes.SchemeRandomized
			case "DETERMINISTIC":
				spec.Scheme = sqltypes.SchemeDeterministic
			default:
				return nil, p.errf("unknown ENCRYPTION_TYPE %q", tt.text)
			}
		case "ALGORITHM":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			tt := p.next()
			if tt.kind != tokString {
				return nil, p.errf("ALGORITHM must be a string literal")
			}
			spec.Algorithm = tt.text
		default:
			return nil, p.errf("unknown encryption attribute %q", t.text)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if spec.CEK == "" {
		return nil, p.errf("ENCRYPTED WITH requires COLUMN_ENCRYPTION_KEY")
	}
	if spec.Scheme == sqltypes.SchemePlaintext {
		return nil, p.errf("ENCRYPTED WITH requires ENCRYPTION_TYPE")
	}
	return spec, nil
}

func (p *parser) parseCreateIndex(unique, clustered bool) (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	stmt := CreateIndexStmt{Name: name, Table: table, Unique: unique, Clustered: clustered}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseCreateCMK() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := CreateCMKStmt{Name: name}
	if err := p.expectKeyword("WITH"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.kind != tokKeyword {
			return nil, p.errf("expected CMK attribute, got %q", t.text)
		}
		switch t.text {
		case "KEY_STORE_PROVIDER_NAME":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			tt := p.next()
			if tt.kind != tokString {
				return nil, p.errf("provider name must be a string")
			}
			stmt.ProviderName = tt.text
		case "KEY_PATH":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			tt := p.next()
			if tt.kind != tokString {
				return nil, p.errf("key path must be a string")
			}
			stmt.KeyPath = tt.text
		case "ENCLAVE_COMPUTATIONS":
			stmt.EnclaveComputations = true
			if p.acceptOp("(") {
				if err := p.expectKeyword("SIGNATURE"); err != nil {
					return nil, err
				}
				if err := p.expectOp("="); err != nil {
					return nil, err
				}
				tt := p.next()
				if tt.kind != tokHex {
					return nil, p.errf("SIGNATURE must be hex")
				}
				b, err := hex.DecodeString(evenHex(tt.text))
				if err != nil {
					return nil, p.errf("bad signature hex")
				}
				stmt.Signature = b
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
		default:
			return nil, p.errf("unknown CMK attribute %q", t.text)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseCreateCEK() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := CreateCEKStmt{Name: name}
	if err := p.expectKeyword("WITH"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.kind != tokKeyword {
			return nil, p.errf("expected CEK attribute, got %q", t.text)
		}
		switch t.text {
		case "COLUMN_MASTER_KEY":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			cmk, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.CMK = cmk
		case "ALGORITHM":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			tt := p.next()
			if tt.kind != tokString {
				return nil, p.errf("ALGORITHM must be a string")
			}
			stmt.Algorithm = tt.text
		case "ENCRYPTED_VALUE":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			tt := p.next()
			if tt.kind != tokHex {
				return nil, p.errf("ENCRYPTED_VALUE must be hex")
			}
			b, err := hex.DecodeString(evenHex(tt.text))
			if err != nil {
				return nil, p.errf("bad hex")
			}
			stmt.EncryptedValue = b
		case "SIGNATURE":
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			tt := p.next()
			if tt.kind != tokHex {
				return nil, p.errf("SIGNATURE must be hex")
			}
			b, err := hex.DecodeString(evenHex(tt.text))
			if err != nil {
				return nil, p.errf("bad hex")
			}
			stmt.Signature = b
		default:
			return nil, p.errf("unknown CEK attribute %q", t.text)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) parseAlter() (Stmt, error) {
	p.next() // ALTER
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ALTER"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("COLUMN"); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	typeName, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	stmt := AlterColumnStmt{Table: table, Column: col, TypeName: typeName, RawText: p.src}
	if p.acceptKeyword("ENCRYPTED") {
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		enc, err := p.parseEncSpec()
		if err != nil {
			return nil, err
		}
		stmt.Enc = enc
	}
	return stmt, nil
}
