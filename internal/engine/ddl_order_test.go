package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// The WAL invariant replication depends on: the RecDDL that creates an
// object sequences before every record that touches it. A session racing
// CREATE TABLE (inserting the instant the table becomes visible) must never
// get its heap/index records ahead of the DDL record — a replica replaying
// such a log would hit table-not-found and halt the redo stream.
func TestDDLLoggedBeforeDependentRecords(t *testing.T) {
	e := New(Config{})
	const tables = 25
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("race%d", i)
		done := make(chan error, 1)
		go func() {
			s := e.NewSession()
			deadline := time.Now().Add(10 * time.Second)
			for {
				_, err := s.Execute("INSERT INTO "+name+" (id) VALUES (@i)",
					Params{"i": sqltypes.Int(1).Encode()})
				if err == nil {
					done <- nil
					return
				}
				if time.Now().After(deadline) {
					done <- fmt.Errorf("insert into %s never succeeded: %w", name, err)
					return
				}
			}
		}()
		if _, err := e.NewSession().Execute(
			"CREATE TABLE "+name+" (id int PRIMARY KEY)", nil); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Replay the log in LSN order: every heap/index record must name an
	// object whose creating RecDDL already passed.
	created := map[string]bool{}
	checked := map[string]int{}
	for _, rec := range e.WAL().Records() {
		switch rec.Type {
		case storage.RecDDL:
			// "CREATE TABLE raceN (..." — the implicit pk_raceN index rides
			// on the same record.
			f := strings.Fields(rec.DDL)
			if len(f) >= 3 && strings.EqualFold(f[0], "CREATE") && strings.EqualFold(f[1], "TABLE") {
				created[strings.ToLower(f[2])] = true
				created["pk_"+strings.ToLower(f[2])] = true
			}
		case storage.RecHeapInsert, storage.RecHeapInsertMulti, storage.RecHeapUpdate,
			storage.RecHeapDelete, storage.RecIndexInsert, storage.RecIndexInsertMulti,
			storage.RecIndexDelete:
			if !created[strings.ToLower(rec.Table)] {
				t.Fatalf("LSN %d: %s record for %q precedes its creating DDL",
					rec.LSN, rec.Type, rec.Table)
			}
			checked[strings.ToLower(rec.Table)]++
		}
	}
	// Every table and every pk index must have had a dependent record pass
	// the check above, or the scan proved nothing.
	for i := 0; i < tables; i++ {
		for _, obj := range []string{fmt.Sprintf("race%d", i), fmt.Sprintf("pk_race%d", i)} {
			if checked[obj] == 0 {
				t.Fatalf("no heap/index record for %q was inspected", obj)
			}
		}
	}
	if len(created) != 2*tables {
		t.Fatalf("saw %d created objects in the log, want %d", len(created), 2*tables)
	}
}
