package engine

import (
	"errors"
	"testing"

	"alwaysencrypted/internal/sqltypes"
)

func TestParseSelect(t *testing.T) {
	stmt, err := Parse("SELECT a, b FROM t WHERE a = @x AND b < 10 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(SelectStmt)
	if len(sel.Items) != 2 || sel.Table != "t" || sel.Limit != 5 {
		t.Fatalf("%+v", sel)
	}
	if len(sel.Where) != 2 {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.Where[0].Op != PredEQ || sel.Where[0].Col != "a" {
		t.Fatalf("pred0 = %+v", sel.Where[0])
	}
	if _, ok := sel.Where[0].Val.(ParamExpr); !ok {
		t.Fatal("expected param")
	}
	if sel.Where[1].Op != PredLT {
		t.Fatalf("pred1 = %+v", sel.Where[1])
	}
}

func TestParseSelectStarAndAggregates(t *testing.T) {
	stmt, err := Parse("SELECT *, COUNT(*), COUNT(DISTINCT c), MIN(a), MAX(b), SUM(d) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(SelectStmt)
	if !sel.Items[0].Star {
		t.Fatal("star missing")
	}
	wantAggs := []AggFunc{AggCount, AggCountDistinct, AggMin, AggMax, AggSum}
	for i, want := range wantAggs {
		if sel.Items[i+1].Agg != want {
			t.Fatalf("item %d agg = %v", i+1, sel.Items[i+1].Agg)
		}
	}
}

func TestParseJoin(t *testing.T) {
	stmt, err := Parse("SELECT a.x, b.y FROM a JOIN b ON a.id = b.aid WHERE a.x > @v")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(SelectStmt)
	if sel.Join == nil || sel.Join.Table != "b" || sel.Join.LeftCol != "a.id" || sel.Join.RightCol != "b.aid" {
		t.Fatalf("join = %+v", sel.Join)
	}
}

func TestParsePredicateVariants(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a BETWEEN @lo AND @hi AND b LIKE @p AND c IS NULL AND d IS NOT NULL AND e <> 3")
	if err != nil {
		t.Fatal(err)
	}
	w := stmt.(SelectStmt).Where
	if w[0].Op != PredBetween || w[1].Op != PredLike || w[2].Op != PredIsNull ||
		w[3].Op != PredIsNotNull || w[4].Op != PredNE {
		t.Fatalf("%+v", w)
	}
}

func TestParseInsertUpdateDelete(t *testing.T) {
	stmt, err := Parse("INSERT INTO t (a, b, c) VALUES (@a, 'text', 3.5)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(InsertStmt)
	if len(ins.Cols) != 3 || len(ins.Vals) != 3 {
		t.Fatalf("%+v", ins)
	}
	if lit, ok := ins.Vals[2].(LiteralExpr); !ok || lit.Val.Kind != sqltypes.KindFloat {
		t.Fatalf("val2 = %+v", ins.Vals[2])
	}

	stmt, err = Parse("UPDATE t SET a = a + @d, b = @b WHERE id = @id")
	if err != nil {
		t.Fatal(err)
	}
	upd := stmt.(UpdateStmt)
	if len(upd.Sets) != 2 {
		t.Fatalf("%+v", upd)
	}
	if _, ok := upd.Sets[0].Expr.(ArithExpr); !ok {
		t.Fatalf("set0 = %T", upd.Sets[0].Expr)
	}

	stmt, err = Parse("DELETE FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(DeleteStmt).Table != "t" {
		t.Fatal("bad delete")
	}
}

func TestParseCreateTableWithEncryption(t *testing.T) {
	stmt, err := Parse(`CREATE TABLE T(id int PRIMARY KEY,
		value int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = MyCEK,
		ENCRYPTION_TYPE = Randomized,
		ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'),
		name varchar(30) NOT NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(CreateTableStmt)
	if len(ct.Cols) != 3 || !ct.Cols[0].PrimaryKey || !ct.Cols[2].NotNull {
		t.Fatalf("%+v", ct)
	}
	enc := ct.Cols[1].Enc
	if enc == nil || enc.CEK != "MyCEK" || enc.Scheme != sqltypes.SchemeRandomized ||
		enc.Algorithm != "AEAD_AES_256_CBC_HMAC_SHA_256" {
		t.Fatalf("enc = %+v", enc)
	}
}

func TestParseFigure1DDL(t *testing.T) {
	stmt, err := Parse(`CREATE COLUMN MASTER KEY MyCMK WITH (
		KEY_STORE_PROVIDER_NAME = N'AZURE_KEY_VAULT_PROVIDER',
		KEY_PATH = N'https://vault.azure.net/keys/k1',
		ENCLAVE_COMPUTATIONS (SIGNATURE = 0x6FCF01))`)
	if err != nil {
		t.Fatal(err)
	}
	cmk := stmt.(CreateCMKStmt)
	if cmk.Name != "MyCMK" || cmk.ProviderName != "AZURE_KEY_VAULT_PROVIDER" ||
		!cmk.EnclaveComputations || len(cmk.Signature) != 3 {
		t.Fatalf("%+v", cmk)
	}

	stmt, err = Parse(`CREATE COLUMN ENCRYPTION KEY MyCEK
		WITH VALUES (COLUMN_MASTER_KEY = MyCMK,
		ALGORITHM = 'RSA_OAEP', ENCRYPTED_VALUE = 0x0170AB)`)
	if err != nil {
		t.Fatal(err)
	}
	cek := stmt.(CreateCEKStmt)
	if cek.Name != "MyCEK" || cek.CMK != "MyCMK" || cek.Algorithm != "RSA_OAEP" || len(cek.EncryptedValue) != 3 {
		t.Fatalf("%+v", cek)
	}
}

func TestParseCreateIndex(t *testing.T) {
	stmt, err := Parse("CREATE NONCLUSTERED INDEX CUSTOMER_NC1 ON CUSTOMER (C_W_ID, C_D_ID, C_LAST, C_FIRST, C_ID)")
	if err != nil {
		t.Fatal(err)
	}
	idx := stmt.(CreateIndexStmt)
	if idx.Name != "CUSTOMER_NC1" || len(idx.Cols) != 5 || idx.Unique || idx.Clustered {
		t.Fatalf("%+v", idx)
	}
	stmt, err = Parse("CREATE UNIQUE INDEX u1 ON t (a)")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(CreateIndexStmt).Unique {
		t.Fatal("unique lost")
	}
}

func TestParseAlterColumn(t *testing.T) {
	src := "ALTER TABLE Customer ALTER COLUMN c_last varchar(16) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	alt := stmt.(AlterColumnStmt)
	if alt.Table != "Customer" || alt.Column != "c_last" || alt.Enc == nil || alt.Enc.CEK != "CEK1" {
		t.Fatalf("%+v", alt)
	}
	if alt.RawText != src {
		t.Fatal("raw text not preserved (needed for the §3.2 authorization hash)")
	}
	// Decrypting form (no ENCRYPTED WITH).
	stmt, err = Parse("ALTER TABLE t ALTER COLUMN c int")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(AlterColumnStmt).Enc != nil {
		t.Fatal("expected plaintext target")
	}
}

func TestParseTransactionControl(t *testing.T) {
	for src, want := range map[string]Stmt{
		"BEGIN TRANSACTION": BeginStmt{},
		"COMMIT":            CommitStmt{},
		"ROLLBACK":          RollbackStmt{},
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if stmt != want {
			t.Fatalf("%s parsed to %T", src, stmt)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a ==",
		"INSERT INTO t (a, b) VALUES (@a)", // arity mismatch
		"UPDATE t SET",
		"CREATE TABLE t (a geography)",
		"SELECT a FROM t ORDER BY a", // ORDER BY unsupported (§5.3)
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a FROM t WHERE a = 'unterminated",
		"SELECT id FROM t WHERE x = @",     // a parameter needs a name
		"SELECT id FROM t WHERE x = @@x",   // so does the first of these
		"CREATE COLUMN MASTER KEY A WITH(", // cut short after a consumed token
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("accepted %q", src)
		} else if !errors.Is(err, ErrSyntax) {
			t.Fatalf("%q: err = %v, want ErrSyntax", src, err)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select a from t where a = @x"); err != nil {
		t.Fatal(err)
	}
}

func TestParseStringEscapes(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE b = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	lit := stmt.(SelectStmt).Where[0].Val.(LiteralExpr)
	if lit.Val.S != "it's" {
		t.Fatalf("escape: %q", lit.Val.S)
	}
}
