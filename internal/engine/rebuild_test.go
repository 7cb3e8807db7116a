package engine

import (
	"bytes"
	"cmp"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// TestRebuildRacesWriters: sessions insert, update and delete rows of a
// table whose RND index is invalidated while several other sessions install
// the CEK at once, each install rebuilding the index, the way every pooled
// connection re-attests after failover. Until the writers finish, the index
// is invalidated again after each round of installs, also under writers in
// flight, as ForceResolveDeferred may. Writes fail with ErrInvalidated while
// the index is invalidated and succeed otherwise; none may change the heap
// under a rebuild's scan, be indexed twice by two rebuilds, or leave an
// entry behind. Afterwards the index is well-formed and holds exactly the
// (key, row id) pair of every live row.
func TestRebuildRacesWriters(t *testing.T) {
	const workers, writes, preload, installers = 4, 40, 8, 3
	env := setupRNDTable(t, true)
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	cell := func(v int64) []byte {
		ct, err := env.cellKeys["CEK1"].Encrypt(sqltypes.Int(v).Encode(), aecrypto.Randomized)
		if err != nil {
			panic(err)
		}
		return ct
	}
	const insert = "INSERT INTO T (id, value) VALUES (@i, @v)"
	for w := range workers {
		for i := range preload {
			id := int64(1000*(w+1) + i)
			env.mustExec(insert, Params{"i": intParam(id), "v": cell(id % 7)})
		}
	}
	idx, err := env.engine.Catalog().Index("ix_val")
	if err != nil {
		t.Fatal(err)
	}
	install := make([]func() error, installers)
	for i := range install {
		install[i] = env.cekInstaller("CEK1")
	}
	env.engine.invalidateIndex(idx.Tree)

	var wg sync.WaitGroup
	started := make(chan struct{}, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := env.engine.NewSession()
			var live []int64
			for i := range preload {
				live = append(live, int64(1000*(w+1)+i))
			}
			next := int64(1000*(w+1) + preload)
			// Attempts cycle through the three statements, so updates and
			// deletes of existing rows race the rebuild too.
			for attempt, done, refused := 0, 0, 0; done < writes; attempt++ {
				var query string
				var params Params
				switch {
				case attempt%3 == 2 && len(live) > 0:
					query, params = "DELETE FROM T WHERE id = @i", Params{"i": intParam(live[0])}
				case attempt%3 == 1 && len(live) > 0:
					query, params = "UPDATE T SET value = @v WHERE id = @i", Params{"v": cell(int64(attempt) % 11), "i": intParam(live[len(live)-1])}
				default:
					query, params = insert, Params{"i": intParam(next), "v": cell(next % 7)}
				}
				_, err := sess.Execute(query, params)
				if errors.Is(err, btree.ErrInvalidated) {
					if refused++; refused == 1 {
						started <- struct{}{}
					}
					runtime.Gosched()
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", query, err)
					return
				}
				switch query[0] {
				case 'I':
					live = append(live, next)
					next++
				case 'D':
					live = live[1:]
				}
				done++
			}
		}()
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	// Every writer has been refused at least once before the first install.
	for range workers {
		<-started
	}
	for rounds := 1; ; rounds++ {
		var iw sync.WaitGroup
		for _, in := range install {
			iw.Add(1)
			go func() {
				defer iw.Done()
				if err := in(); err != nil {
					t.Errorf("install: %v", err)
				}
			}()
		}
		iw.Wait()
		select {
		case <-writersDone:
			t.Logf("%d install rounds", rounds)
		default:
			runtime.Gosched()
			env.engine.invalidateIndex(idx.Tree)
			continue
		}
		break
	}
	if t.Failed() {
		return
	}

	matchesHeap(t, env.engine, "ix_val")
}

// matchesHeap asserts that the named index is valid, well-formed and holds
// exactly the (key, row id) pair of every live heap row.
func matchesHeap(t *testing.T, e *Engine, name string) {
	t.Helper()
	idx, err := e.Catalog().Index(name)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Tree.Invalidated() {
		t.Fatalf("%s: key install did not rebuild the index", name)
	}
	if err := idx.Tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Catalog().Table(idx.Table)
	if err != nil {
		t.Fatal(err)
	}
	var heap []btree.Entry
	if err := tbl.Heap.Scan(func(rid storage.RowID, rec []byte) (bool, error) {
		cells, err := decodeRow(rec)
		if err != nil {
			return false, err
		}
		heap = append(heap, btree.Entry{Key: copyKey(idx.indexKeyFor(cells)), Row: rid})
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	entries := indexEntries(t, e, name)
	byRow := func(a, b btree.Entry) int { return cmp.Compare(a.Row, b.Row) }
	slices.SortFunc(heap, byRow)
	slices.SortFunc(entries, byRow)
	if !slices.EqualFunc(heap, entries, func(a, b btree.Entry) bool {
		return a.Row == b.Row && slices.EqualFunc(a.Key, b.Key, bytes.Equal)
	}) {
		t.Fatalf("%s holds %d entries, the heap %d live rows, and they differ", name, len(entries), len(heap))
	}
}

// gate is an EnclaveComparer that, once armed, parks the first search
// through it until released.
type gate struct {
	btree.EnclaveComparer
	armed           atomic.Bool
	parked, release chan struct{}
}

func (g *gate) EqualRange(cek string, probe []byte, cells [][]byte) (int, int, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.parked)
		<-g.release
	}
	return g.EnclaveComparer.EqualRange(cek, probe, cells)
}

// TestRebuildWaitsForStatementInFlight: an UPDATE has changed the heap and
// is part way through its index work when a second index of the table is
// invalidated, as ForceResolveDeferred may, and a key install asks for that
// index's rebuild. The rebuild waits for the statement, which fails on the
// invalidated index and is undone; the index is then rebuilt from the
// restored heap. A second rebuild of the now valid index leaves it as it is.
func TestRebuildWaitsForStatementInFlight(t *testing.T) {
	env := setupRNDTable(t, false)
	env.mustExec("CREATE INDEX ix_a ON T (value)", nil)
	env.mustExec("CREATE INDEX ix_b ON T (value)", nil)
	for i := int64(1); i <= 5; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@i, @v)",
			Params{"i": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i), aecrypto.Randomized)})
	}
	ixA, err := env.engine.Catalog().Index("ix_a")
	if err != nil {
		t.Fatal(err)
	}
	ixB, err := env.engine.Catalog().Index("ix_b")
	if err != nil {
		t.Fatal(err)
	}
	install := env.cekInstaller("CEK1")
	g := &gate{EnclaveComparer: env.encl, parked: make(chan struct{}), release: make(chan struct{})}
	ixA.Tree.SwapEnclave(g)
	g.armed.Store(true)

	stmt := make(chan error, 1)
	go func() {
		_, err := env.engine.NewSession().Execute("UPDATE T SET value = @v WHERE id = @i",
			Params{"v": env.enc("CEK1", sqltypes.Int(9), aecrypto.Randomized), "i": intParam(3)})
		stmt <- err
	}()
	<-g.parked // the heap holds the new value; ix_a's entry is being moved
	env.engine.invalidateIndex(ixB.Tree)
	installed := make(chan error, 1)
	go func() { installed <- install() }()
	select {
	case err := <-installed:
		t.Fatalf("key install returned (%v) while an UPDATE of the table was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	if err := <-stmt; !errors.Is(err, btree.ErrInvalidated) {
		t.Fatalf("UPDATE across the invalidation: %v, want ErrInvalidated", err)
	}
	if err := <-installed; err != nil {
		t.Fatal(err)
	}
	matchesHeap(t, env.engine, "ix_a")
	matchesHeap(t, env.engine, "ix_b")

	tbl, err := env.engine.Catalog().Table("T")
	if err != nil {
		t.Fatal(err)
	}
	row := encodeRow([][]byte{intParam(6), env.enc("CEK1", sqltypes.Int(6), aecrypto.Randomized)})
	if _, err := tbl.Heap.InsertBatch([][]byte{row}, nil); err != nil {
		t.Fatal(err)
	}
	if err := env.engine.RebuildIndex("ix_b"); err != nil {
		t.Fatal(err)
	}
	if got := len(indexEntries(t, env.engine, "ix_b")); got != 5 {
		t.Fatalf("rebuilding the valid ix_b left %d entries, want its 5", got)
	}
}

// TestRebuildFailureIsolated: a rebuild that fails for a reason other than a
// missing key leaves that one index invalidated and counts the failure; the
// other invalidated index still rebuilds, and the key install that triggered
// both succeeds. Writes to the table keep failing and reads scan.
func TestRebuildFailureIsolated(t *testing.T) {
	env := setupRNDTable(t, false)
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	for i := int64(1); i <= 5; i++ {
		env.mustExec("INSERT INTO T (id, value) VALUES (@i, @v)",
			Params{"i": intParam(i), "v": env.enc("CEK1", sqltypes.Int(i), aecrypto.Randomized)})
	}
	tbl, err := env.engine.Catalog().Table("T")
	if err != nil {
		t.Fatal(err)
	}
	pk := tbl.PrimaryKeyIndex()
	ix, err := env.engine.Catalog().Index("ix_val")
	if err != nil {
		t.Fatal(err)
	}
	env.engine.invalidateIndex(pk.Tree)
	env.engine.invalidateIndex(ix.Tree)
	// A second row with id 1 goes straight into the heap, so rebuilding the
	// unique primary key index fails.
	dup := encodeRow([][]byte{intParam(1), env.enc("CEK1", sqltypes.Int(1), aecrypto.Randomized)})
	if _, err := tbl.Heap.InsertBatch([][]byte{dup}, nil); err != nil {
		t.Fatal(err)
	}

	env.installCEKs("CEK1")
	if !pk.Tree.Invalidated() || ix.Tree.Invalidated() {
		t.Fatalf("after install: primary key invalidated %v, ix_val invalidated %v; want true, false",
			pk.Tree.Invalidated(), ix.Tree.Invalidated())
	}
	if got := env.engine.Obs().Snapshot().Counters["engine.rebuild_failures"]; got != 1 {
		t.Fatalf("engine.rebuild_failures = %d, want 1", got)
	}
	if got := len(indexEntries(t, env.engine, "ix_val")); got != 6 {
		t.Fatalf("ix_val holds %d entries, want all 6 heap rows", got)
	}
	_, err = env.session.Execute("INSERT INTO T (id, value) VALUES (@i, @v)",
		Params{"i": intParam(9), "v": env.enc("CEK1", sqltypes.Int(9), aecrypto.Randomized)})
	if !errors.Is(err, btree.ErrInvalidated) {
		t.Fatalf("insert into a table with an invalidated index: %v, want ErrInvalidated", err)
	}
	if rs := env.mustExec("SELECT id FROM T WHERE id = @i", Params{"i": intParam(1)}); len(rs.Rows) != 2 {
		t.Fatalf("scan for id 1 returned %d rows, want the 2 heap rows", len(rs.Rows))
	}
}

// BenchmarkRebuildOnInstall measures what the first key install after a
// failover costs when the replica had invalidated an RND index over an
// enc_ingest-sized table (5 000 rows): install_ms is the InstallCEK call,
// which rebuilds the index, and write_gap_ms is how long after the install
// starts a writer retrying an INSERT into the table first succeeds. Run
// with: go test ./internal/engine -run '^$' -bench RebuildOnInstall -benchtime 5x
func BenchmarkRebuildOnInstall(b *testing.B) {
	const rows, batch = 5000, 500
	env := setupRNDTable(b, false)
	env.mustExec("CREATE INDEX ix_val ON T (value)", nil)
	for lo := 0; lo < rows; lo += batch {
		var cells [][][]byte
		for id := lo; id < lo+batch; id++ {
			cells = append(cells, [][]byte{intParam(int64(id)),
				env.enc("CEK1", sqltypes.Int(int64(id*7919%rows)), aecrypto.Randomized)})
		}
		if _, err := env.session.BulkInsert("T", []string{"id", "value"}, cells); err != nil {
			b.Fatal(err)
		}
	}
	idx, err := env.engine.Catalog().Index("ix_val")
	if err != nil {
		b.Fatal(err)
	}
	install := env.cekInstaller("CEK1")
	writer := env.engine.NewSession()
	var installNs, gapNs time.Duration
	b.ResetTimer()
	for i := range b.N {
		env.engine.invalidateIndex(idx.Tree)
		done := make(chan time.Duration, 1)
		start := time.Now()
		go func() {
			if err := install(); err != nil {
				b.Error(err)
			}
			done <- time.Since(start)
		}()
		params := Params{"i": intParam(int64(rows + i)), "v": env.enc("CEK1", sqltypes.Int(1), aecrypto.Randomized)}
		for {
			_, err := writer.Execute("INSERT INTO T (id, value) VALUES (@i, @v)", params)
			if err == nil {
				break
			}
			if !errors.Is(err, btree.ErrInvalidated) {
				b.Fatal(err)
			}
			runtime.Gosched()
		}
		gapNs += time.Since(start)
		installNs += <-done
	}
	b.ReportMetric(float64(installNs)/1e6/float64(b.N), "install_ms")
	b.ReportMetric(float64(gapNs)/1e6/float64(b.N), "write_gap_ms")
}
