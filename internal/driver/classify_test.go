package driver

import (
	"strings"
	"testing"
)

// Reference definitions of the statement classifiers: upper-case the whole
// trimmed text, then compare. The corpus test holds the in-place
// classifiers equal to them.
func upperRetrySafe(q string) bool {
	u := strings.ToUpper(strings.TrimSpace(q))
	return strings.HasPrefix(u, "SELECT") || strings.HasPrefix(u, "BEGIN")
}

func upperSchemaChange(q string) bool {
	u := strings.ToUpper(strings.TrimSpace(q))
	return strings.HasPrefix(u, "CREATE ") || strings.HasPrefix(u, "DROP ") ||
		strings.HasPrefix(u, "ALTER ")
}

func upperAlterEncryption(q string) bool {
	u := strings.ToUpper(strings.TrimSpace(q))
	return strings.HasPrefix(u, "ALTER TABLE") && strings.Contains(u, "ALTER COLUMN")
}

func upperReadOnly(q string) bool {
	return strings.HasPrefix(strings.ToUpper(strings.TrimSpace(q)), "SELECT")
}

// TestStatementClassifiersMatchUpperCase checks retrySafe, isSchemaChange,
// isAlterEncryption and the replica-routing SELECT test against their
// upper-casing definitions over a corpus: leading white space, mixed case,
// keywords with no trailing space, and ALTER TABLE with a lower-case
// ALTER COLUMN clause.
func TestStatementClassifiersMatchUpperCase(t *testing.T) {
	corpus := []string{
		"", " ", "\t\n", "S", "SELEC", "SELECT", "select", "SeLeCt * FROM t",
		"  \t\nselect id FROM t", "SELECT*FROM t", "selectx", "(SELECT 1)",
		"BEGIN", "begin", "  Begin TRAN", "BEGINNING", "COMMIT", "rollback",
		"INSERT INTO t VALUES (@a)", "update t SET a = @a", "delete FROM t",
		"CREATE TABLE t (id int)", "create index ix ON t (a)", "CREATE\tTABLE t",
		"CREATE", "createtable", "  drop TABLE t", "DROP", "Drop index ix",
		"ALTER TABLE t ALTER COLUMN c varchar(10)",
		"alter table t alter column c varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = K)",
		"ALTER TABLE t alter column c int", "ALTER TABLE t Alter Column c int",
		"ALTER TABLE t ADD c int", "ALTER TABLE t ALTER  COLUMN c int",
		"ALTER  TABLE t ALTER COLUMN c int", "alter TABLEt alter COLUMNc",
		"ALTER INDEX ix REBUILD", "ALTER", "\n ALTER TABLE x ALTER COLUMN",
		"SELECT 'alter column' FROM t", "ALTER TABLE t ALTER COLUM",
	}
	for _, q := range corpus {
		if got, want := retrySafe(q), upperRetrySafe(q); got != want {
			t.Errorf("retrySafe(%q) = %v, upper-case definition %v", q, got, want)
		}
		if got, want := isSchemaChange(q), upperSchemaChange(q); got != want {
			t.Errorf("isSchemaChange(%q) = %v, upper-case definition %v", q, got, want)
		}
		if got, want := isAlterEncryption(q), upperAlterEncryption(q); got != want {
			t.Errorf("isAlterEncryption(%q) = %v, upper-case definition %v", q, got, want)
		}
		if got, want := StartsWithFold(q, "SELECT"), upperReadOnly(q); got != want {
			t.Errorf("StartsWithFold(%q, SELECT) = %v, upper-case definition %v", q, got, want)
		}
	}
}

// TestStartsWithFoldIsASCII: a non-ASCII letter that upper-cases to an ASCII
// one (U+017F long s, U+0131 dotless i) makes the upper-casing definitions
// call these statements SELECT and BEGIN; the server's lexer reads keywords
// from ASCII letters only, so neither is a keyword, and the classifier
// agrees with the lexer.
func TestStartsWithFoldIsASCII(t *testing.T) {
	for _, q := range []string{"ſelect 1", "begın"} {
		if retrySafe(q) || StartsWithFold(q, "SELECT") {
			t.Errorf("%q classified as a read", q)
		}
	}
}

// BenchmarkStatementClassify times the per-Exec classification of a
// lower-case statement.
func BenchmarkStatementClassify(b *testing.B) {
	const q = "update stock set s_quantity = @q, s_ytd = s_ytd + @n where s_w_id = @w and s_i_id = @i"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if isSchemaChange(q) || retrySafe(q) || StartsWithFold(q, "SELECT") {
			b.Fatal("misclassified")
		}
	}
}
