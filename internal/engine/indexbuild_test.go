package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

const rndIntCol = "int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = %s, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"

// selIDs runs a single-column integer query and returns the values sorted.
func selIDs(t *testing.T, s *Session, query string, params Params) []int64 {
	t.Helper()
	rs, err := s.Execute(query, params)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	ids := make([]int64, len(rs.Rows))
	for i, row := range rs.Rows {
		v, err := sqltypes.Decode(row[0])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.I
	}
	slices.Sort(ids)
	return ids
}

// TestAlterIndexedColumnRebuildsIndex: ALTER COLUMN … ENCRYPTED on a column
// that HAS an index leaves that index complete, whichever way the rewrite
// ran — through the enclave, through the client-side tool, or replayed on a
// replica that is then promoted and rebuilds — for initial encryption and
// for key rotation. The index must hold every row, be well-formed, and
// answer an equality and a range query with the shadow's rows.
func TestAlterIndexedColumnRebuildsIndex(t *testing.T) {
	const n = 40
	val := func(id int64) int64 { return (id % 13) * 10 } // duplicates: the index is not unique
	for _, from := range []string{"plaintext", "CEK1"} {
		for _, path := range []string{"enclave", "client", "replica"} {
			t.Run(from+"/"+path, func(t *testing.T) {
				env := newTestEnv(t, true)
				env.provisionKeys("CMK1", "CEK1", true)
				env.provisionKeys("CMK2", "CEK2", true)
				colType := "int"
				if from != "plaintext" {
					colType = fmt.Sprintf(rndIntCol, from)
				}
				env.mustExec("CREATE TABLE a (id int PRIMARY KEY, v "+colType+")", nil)
				ddl := "ALTER TABLE a ALTER COLUMN v " + fmt.Sprintf(rndIntCol, "CEK2")
				env.attest(ddl)
				env.installCEKs("CEK1", "CEK2")
				env.mustExec("CREATE INDEX ix_av ON a (v)", nil)
				for id := int64(1); id <= n; id++ {
					v := intParam(val(id))
					if from != "plaintext" {
						v = env.enc(from, sqltypes.Int(val(id)), aecrypto.Randomized)
					}
					env.mustExec("INSERT INTO a (id, v) VALUES (@i, @v)", Params{"i": intParam(id), "v": v})
				}

				target := env // the deployment whose index is checked
				switch path {
				case "enclave", "replica":
					env.authorizeDDL(ddl)
					env.mustExec(ddl, nil)
				case "client":
					to := sqltypes.EncType{Scheme: sqltypes.SchemeRandomized, CEKName: "CEK2", EnclaveEnabled: true}
					err := env.engine.AlterColumnClientSide("a", "v", to, func(old []byte) ([]byte, error) {
						if from != "plaintext" {
							var err error
							if old, err = env.cellKeys[from].Decrypt(old); err != nil {
								return nil, err
							}
						}
						return env.cellKeys["CEK2"].Encrypt(old, aecrypto.Randomized)
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				if path == "replica" {
					// A second deployment with its own enclave and no keys
					// replays the primary's log, is promoted, and only then
					// receives CEKs from a client.
					rep := newTestEnv(t, true)
					rep.cekRoots, rep.cellKeys = env.cekRoots, env.cellKeys
					rep.engine.SetReadOnly(true)
					ra := NewRedoApplier(rep.engine)
					applyAll(t, rep.engine, ra, env.engine.WAL().Records())
					idx, err := rep.engine.Catalog().Index("ix_av")
					if err != nil {
						t.Fatal(err)
					}
					if !idx.Tree.Invalidated() {
						t.Fatal("replica rebuilt an enclave-ordered index without keys")
					}
					ra.DropInflightPending()
					rep.engine.Recover()
					rep.engine.SetReadOnly(false)
					rep.attest("SELECT id FROM a WHERE v = @v")
					rep.installCEKs("CEK2")
					if err := rep.engine.RebuildIndex("ix_av"); err != nil {
						t.Fatal(err)
					}
					target = rep
				}

				idx, err := target.engine.Catalog().Index("ix_av")
				if err != nil {
					t.Fatal(err)
				}
				if got := idx.Tree.Len(); got != n {
					t.Fatalf("index holds %d entries after ALTER, want %d", got, n)
				}
				if err := idx.Tree.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				encInt := func(v int64) []byte { return target.enc("CEK2", sqltypes.Int(v), aecrypto.Randomized) }
				var wantEq, wantRange []int64
				for id := int64(1); id <= n; id++ {
					if val(id) == 70 {
						wantEq = append(wantEq, id)
					}
					if val(id) >= 30 && val(id) <= 60 {
						wantRange = append(wantRange, id)
					}
				}
				_, seeks0, _ := target.engine.Stats()
				gotEq := selIDs(t, target.session, "SELECT id FROM a WHERE v = @v", Params{"v": encInt(70)})
				gotRange := selIDs(t, target.session, "SELECT id FROM a WHERE v BETWEEN @lo AND @hi",
					Params{"lo": encInt(30), "hi": encInt(60)})
				if _, seeks, _ := target.engine.Stats(); seeks != seeks0+2 {
					t.Fatalf("queries made %d index seeks, want 2: not planned through the index", seeks-seeks0)
				}
				if !slices.Equal(gotEq, wantEq) {
					t.Fatalf("equality through the index = %v, want %v", gotEq, wantEq)
				}
				if !slices.Equal(gotRange, wantRange) {
					t.Fatalf("range through the index = %v, want %v", gotRange, wantRange)
				}
			})
		}
	}
}

// TestCreateIndexRacesInserts: sessions keep committing INSERTs into a table
// while CREATE INDEX builds and publishes indexes over it, one after another.
// Every committed row must be reachable through every new index — no row may
// fall between a backfill scan and its publish — and under -race the writers'
// reads of the table's index list must be ordered with each publish.
func TestCreateIndexRacesInserts(t *testing.T) {
	const preload, workers, builds = 3000, 4, 4
	env := newTestEnv(t, false)
	env.mustExec("CREATE TABLE c (id int PRIMARY KEY, v int)", nil)
	rows := make([][][]byte, preload)
	for i := range rows {
		rows[i] = [][]byte{intParam(int64(i + 1)), intParam(int64(i + 1))}
	}
	if _, err := env.session.BulkInsert("c", []string{"id", "v"}, rows); err != nil {
		t.Fatal(err)
	}

	const insert = "INSERT INTO c (id, v) VALUES (@i, @v)"
	var wg sync.WaitGroup
	var nextID atomic.Int64
	nextID.Store(preload)
	var built atomic.Bool
	started := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := env.engine.NewSession()
			for first := true; !built.Load(); first = false {
				id := nextID.Add(1)
				if _, err := sess.Execute(insert, Params{"i": intParam(id), "v": intParam(id)}); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
				if first {
					started <- struct{}{}
				}
			}
		}()
	}
	// Every inserter has committed once (and the INSERT plan is cached)
	// before the first build starts, and they keep committing until the last
	// build has returned.
	for w := 0; w < workers; w++ {
		<-started
	}
	for i := 0; i < builds; i++ {
		env.mustExec(fmt.Sprintf("CREATE INDEX ix_cv%d ON c (v)", i), nil)
	}
	built.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	total := int(nextID.Load())
	for i := 0; i < builds; i++ {
		idx, err := env.engine.Catalog().Index(fmt.Sprintf("ix_cv%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if got := idx.Tree.Len(); got != total {
			t.Fatalf("%s holds %d entries, %d rows were committed", idx.Name, got, total)
		}
		if err := idx.Tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	_, seeks0, _ := env.engine.Stats()
	got := selIDs(t, env.session, "SELECT id FROM c WHERE v >= @lo", Params{"lo": intParam(1)})
	if _, seeks, _ := env.engine.Stats(); seeks != seeks0+1 {
		t.Fatal("range query did not plan through a new index")
	}
	if len(got) != total {
		t.Fatalf("%d rows reachable through the new index, want %d", len(got), total)
	}
	for i, id := range got {
		if id != int64(i+1) {
			t.Fatalf("row %d missing from the new index", i+1)
		}
	}
}
