package engine

import (
	"fmt"
	"testing"
)

// TestFilteredScanAllocsFlat: a heap scan under a residual filter allocates
// per statement and per batch at most, never per row — the same statement
// over 4 000 rows allocates within a small constant of it over 500.
func TestFilteredScanAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	env := newTestEnv(t, false)
	load := func(table string, n int) {
		env.mustExec("CREATE TABLE "+table+" (id int PRIMARY KEY, tag int, body varchar(40))", nil)
		const chunk = 500
		for lo := 0; lo < n; lo += chunk {
			rows := make([][][]byte, 0, chunk)
			for i := lo; i < lo+chunk && i < n; i++ {
				rows = append(rows, [][]byte{intParam(int64(i)), intParam(int64(i % 7)), strParam(fmt.Sprintf("body-%06d", i))})
			}
			if _, err := env.session.BulkInsert(table, []string{"id", "tag", "body"}, rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	load("small", 500)
	load("big", 4000)

	// tag is not indexed, so the filter runs over every row of the heap;
	// it matches none, so the result set stays empty at both sizes.
	params := Params{"t": intParam(-1)}
	allocs := func(table string) float64 {
		q := "SELECT id, body FROM " + table + " WHERE tag = @t"
		run := func() {
			rs, err := env.session.Execute(q, params)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows) != 0 {
				t.Fatalf("%s: %d rows, want 0", table, len(rs.Rows))
			}
		}
		run() // plan cached, buffers grown
		return testing.AllocsPerRun(10, run)
	}
	small, big := allocs("small"), allocs("big")
	t.Logf("allocations per statement: %.0f over 500 rows, %.0f over 4000", small, big)
	if big > small+16 {
		t.Fatalf("filtered scan allocates %.0f objects over 4000 rows and %.0f over 500: allocations grow with rows", big, small)
	}
}
