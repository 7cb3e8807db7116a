// Package lockorder enforces the storage layer's documented lock hierarchy.
// Deadlock freedom in the buffer pool / heap / lock-manager stack depends on
// every code path acquiring locks in one global order (outermost first):
//
//	rank  5  WAL.gcMu                             (group-commit leader queue)
//	rank 10  LockManager.mu, Heap.mu, WAL.mu      (structure locks)
//	rank 15  WAL.syncMu                           (simulated log-device flush;
//	         held across the sleep, never over other locks)
//	rank 20  BufferPool.mu                        (pool map + LRU)
//	rank 30  Frame.Latch                          (per-page latch)
//	rank 35  VersionStore.mu                      (version chains; insert
//	         observers register chains under the page write latch)
//	rank 40  MemStore.mu, FileStore.mu            (PageStore I/O)
//
// A goroutine may only acquire a lock of strictly greater rank than any lock
// it already holds. The hierarchy is a typestate spec of ranked resources:
// a lock is held at a point only if held on every path to it, a same-package
// call is checked against the callee's transitive may-acquire set, and calls
// through the PageStore interface count as taking rank 40, since both
// implementations lock their own mutex.
//
// RLock counts as Lock: read/write flavors deadlock the same way when
// ordered inconsistently. A deferred Unlock keeps the lock held until the
// function returns — exactly right for ordering. A function literal or
// goroutine body starts with nothing held.
package lockorder

import (
	"alwaysencrypted/internal/lint/analysis"
	"alwaysencrypted/internal/lint/typestate"
)

// lock is the ranked resource of one Type.field mutex or RWMutex.
func lock(recv, field string, rank int) typestate.Resource {
	pat := func(name string) analysis.CallPat {
		return analysis.CallPat{Pkg: "storage", Recv: recv, Field: field, Name: name}
	}
	return typestate.Resource{
		Name:       recv + "." + field,
		Rank:       rank,
		Acquire:    []analysis.CallPat{pat("Lock"), pat("RLock")},
		AcquireKey: typestate.IdentSingleton,
		Release:    []analysis.CallPat{pat("Unlock"), pat("RUnlock")},
		ReleaseKey: typestate.IdentSingleton,
		Reentrant:  true,
	}
}

var spec = &typestate.Spec{
	Name:     "lockorder",
	Doc:      "storage locks must be acquired in the documented rank order",
	Packages: []string{"storage"},
	Resources: []typestate.Resource{
		lock("WAL", "gcMu", 5),
		lock("LockManager", "mu", 10),
		lock("Heap", "mu", 10),
		lock("WAL", "mu", 10),
		lock("WAL", "syncMu", 15),
		lock("BufferPool", "mu", 20),
		lock("Frame", "Latch", 30),
		lock("VersionStore", "mu", 35),
		lock("MemStore", "mu", 40),
		lock("FileStore", "mu", 40),
		{
			Name:    "PageStore",
			Rank:    40,
			Acquire: []analysis.CallPat{{Pkg: "storage", Recv: "PageStore", Name: "*"}},
		},
	},
}

// Analyzer is the lockorder pass.
var Analyzer *analysis.Analyzer = typestate.NewAnalyzer(spec)
