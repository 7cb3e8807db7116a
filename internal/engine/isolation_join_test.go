package engine

import (
	"fmt"
	"slices"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// TestRepeatableJoinReads: a transaction's JOIN is stable while another
// session commits a delete of an inner row, a move of an inner row's join key
// away from a match and a move of another one into a match — and catches up
// after its own commit. The inner side resolves visibility and recovers
// ghosts through the same row source as the outer side; this drives it from
// that second call site, for an inner-index and an inner-scan plan, over
// plaintext and RND (enclave-compared) join columns.
func TestRepeatableJoinReads(t *testing.T) {
	const join = "SELECT o.oid, s.sid FROM o JOIN s ON o.k = s.k"
	for _, colEnc := range []string{"plaintext", "rnd"} {
		for _, inner := range []string{"index", "scan"} {
			t.Run(colEnc+"/inner-"+inner, func(t *testing.T) {
				forEachBatchSize(t, func(t *testing.T, batch int) {
					env := newTestEnv(t, false)
					env.engine.batch = batch
					colType := "int"
					key := intParam
					if colEnc == "rnd" {
						env.provisionKeys("CMK1", "CEK1", true)
						colType = fmt.Sprintf(rndIntCol, "CEK1")
						key = func(v int64) []byte { return env.enc("CEK1", sqltypes.Int(v), aecrypto.Randomized) }
					}
					env.mustExec("CREATE TABLE o (oid int PRIMARY KEY, k "+colType+")", nil)
					env.mustExec("CREATE TABLE s (sid int PRIMARY KEY, k "+colType+")", nil)
					if colEnc == "rnd" {
						env.attest(join)
						env.installCEKs("CEK1")
					}
					if inner == "index" {
						env.mustExec("CREATE INDEX ix_sk ON s (k)", nil)
					}
					for i := int64(1); i <= 3; i++ {
						env.mustExec("INSERT INTO o (oid, k) VALUES (@i, @k)", Params{"i": intParam(i), "k": key(i * 10)})
					}
					for i := int64(1); i <= 4; i++ {
						env.mustExec("INSERT INTO s (sid, k) VALUES (@i, @k)", Params{"i": intParam(i), "k": key(i * 10)})
					}

					pairs := func(s *Session) [][2]int64 {
						t.Helper()
						scans0, seeks0, _ := env.engine.Stats()
						rs, err := s.Execute(join, nil)
						if err != nil {
							t.Fatal(err)
						}
						scans, seeks, _ := env.engine.Stats()
						// One outer scan; each outer row probes the inner side.
						if inner == "index" && (scans != scans0+1 || seeks == seeks0) {
							t.Fatalf("inner side not probed through ix_sk (scans +%d, seeks +%d)", scans-scans0, seeks-seeks0)
						}
						if inner == "scan" && seeks != seeks0 {
							t.Fatalf("inner side probed through an index (seeks +%d)", seeks-seeks0)
						}
						out := make([][2]int64, len(rs.Rows))
						for i, row := range rs.Rows {
							a, _ := sqltypes.Decode(row[0])
							b, _ := sqltypes.Decode(row[1])
							out[i] = [2]int64{a.I, b.I}
						}
						slices.SortFunc(out, func(x, y [2]int64) int { return slices.Compare(x[:], y[:]) })
						return out
					}

					reader := env.engine.NewSession()
					if _, err := reader.Execute("BEGIN TRANSACTION", nil); err != nil {
						t.Fatal(err)
					}
					before := [][2]int64{{1, 1}, {2, 2}, {3, 3}}
					if got := pairs(reader); !slices.Equal(got, before) {
						t.Fatalf("initial join = %v, want %v", got, before)
					}

					env.mustExec("DELETE FROM s WHERE sid = @i", Params{"i": intParam(1)})
					env.mustExec("UPDATE s SET k = @k WHERE sid = @i", Params{"k": key(99), "i": intParam(2)})
					env.mustExec("UPDATE s SET k = @k WHERE sid = @i", Params{"k": key(30), "i": intParam(4)})

					if got := pairs(reader); !slices.Equal(got, before) {
						t.Fatalf("join under the open snapshot = %v, want %v", got, before)
					}
					if _, err := reader.Execute("COMMIT", nil); err != nil {
						t.Fatal(err)
					}
					after := [][2]int64{{3, 3}, {3, 4}}
					if got := pairs(reader); !slices.Equal(got, after) {
						t.Fatalf("post-commit join = %v, want %v", got, after)
					}
				})
			})
		}
	}
}
