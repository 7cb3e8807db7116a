package storage

import (
	"sync"
	"testing"
	"time"
)

// TestGroupCommitConcurrent drives many concurrent committers through
// AppendCommitGroup and checks the fundamental guarantees: every caller
// gets a unique LSN, the LSN is assigned (durable) by return time, and the
// log holds exactly one commit record per caller.
func TestGroupCommitConcurrent(t *testing.T) {
	for _, window := range []time.Duration{0, 200 * time.Microsecond} {
		w := NewWAL()
		const n = 64
		lsns := make([]uint64, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lsns[i] = w.AppendCommitGroup(Record{Txn: uint64(i + 1), Type: RecCommit}, window)
			}(i)
		}
		wg.Wait()

		seen := make(map[uint64]bool, n)
		for i, lsn := range lsns {
			if lsn == 0 {
				t.Fatalf("window %v: committer %d returned LSN 0", window, i)
			}
			if seen[lsn] {
				t.Fatalf("window %v: duplicate LSN %d", window, lsn)
			}
			seen[lsn] = true
		}
		recs := w.Records()
		if len(recs) != n {
			t.Fatalf("window %v: %d records logged, want %d", window, len(recs), n)
		}
		for _, rec := range recs {
			if rec.Type != RecCommit || !seen[rec.LSN] {
				t.Fatalf("window %v: unexpected record %+v", window, rec)
			}
		}
	}
}

// TestGroupCommitSequential: a lone committer must not deadlock waiting for
// followers that never arrive, with and without a window.
func TestGroupCommitSequential(t *testing.T) {
	w := NewWAL()
	if lsn := w.AppendCommitGroup(Record{Txn: 1, Type: RecCommit}, 0); lsn != 1 {
		t.Fatalf("first commit LSN = %d, want 1", lsn)
	}
	if lsn := w.AppendCommitGroup(Record{Txn: 2, Type: RecCommit}, time.Millisecond); lsn != 2 {
		t.Fatalf("second commit LSN = %d, want 2", lsn)
	}
}

// TestGroupCommitAckAfterAppend: by the time AppendCommitGroup returns, the
// record is visible to Follow readers at the returned LSN — acknowledgment
// implies durability in the log.
func TestGroupCommitAckAfterAppend(t *testing.T) {
	w := NewWAL()
	lsn := w.AppendCommitGroup(Record{Txn: 42, Type: RecCommit}, 0)
	recs, _, err := w.Follow(lsn, 1, nil, 0)
	if err != nil || len(recs) != 1 || recs[0].Txn != 42 {
		t.Fatalf("Follow(%d) = %v recs, err %v", lsn, len(recs), err)
	}
}

// TestSyncDelayCharged: a sequential committer is its own group-commit
// leader and pays at least the configured flush latency per call, on both
// the spin (<1ms) and sleep (>=1ms) paths. Only lower bounds are asserted —
// upper bounds flake on loaded machines.
func TestSyncDelayCharged(t *testing.T) {
	for _, delay := range []time.Duration{200 * time.Microsecond, time.Millisecond} {
		w := NewWAL()
		w.SyncDelay = delay
		const n = 4
		start := time.Now()
		for i := 0; i < n; i++ {
			w.AppendCommitGroup(Record{Txn: uint64(i + 1), Type: RecCommit}, 0)
		}
		if elapsed := time.Since(start); elapsed < n*delay {
			t.Fatalf("delay %v: %d sequential commits took %v, want >= %v", delay, n, elapsed, n*delay)
		}
		if got := len(w.Records()); got != n {
			t.Fatalf("delay %v: %d records, want %d", delay, got, n)
		}
	}
}

// TestGroupCommitAmortizesSync: with a slow simulated log device, concurrent
// committers must share flush rounds — total wall time stays far below one
// flush per commit. The generous bound (half the per-commit cost) still
// requires real batching: commits arriving while the device is busy must
// ride a shared round, not each pay their own.
func TestGroupCommitAmortizesSync(t *testing.T) {
	w := NewWAL()
	w.SyncDelay = 2 * time.Millisecond
	const n = 32
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if lsn := w.AppendCommitGroup(Record{Txn: uint64(i + 1), Type: RecCommit}, 0); lsn == 0 {
				t.Errorf("committer %d returned LSN 0", i)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if got := len(w.Records()); got != n {
		t.Fatalf("%d records, want %d", got, n)
	}
	if limit := n * w.SyncDelay / 2; elapsed >= limit {
		t.Fatalf("%d commits took %v — no flush amortization (limit %v)", n, elapsed, limit)
	}
}

// TestGroupCommitInterleavedAppends: group commits interleaved with plain
// appends keep the LSN sequence dense and ordered.
func TestGroupCommitInterleavedAppends(t *testing.T) {
	w := NewWAL()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				w.Append(Record{Txn: uint64(100 + i), Type: RecHeapInsert})
			} else {
				w.AppendCommitGroup(Record{Txn: uint64(100 + i), Type: RecCommit}, 0)
			}
		}(i)
	}
	wg.Wait()
	recs := w.Records()
	if len(recs) != 16 {
		t.Fatalf("%d records, want 16", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want dense sequence", i, rec.LSN)
		}
	}
}
