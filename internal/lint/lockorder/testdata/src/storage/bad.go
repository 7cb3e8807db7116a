package storage

// badInvert acquires the pool lock under a page latch: rank 20 under 30.
func badInvert(b *BufferPool, f *Frame) {
	f.Latch.Lock()
	b.mu.Lock() // want `acquires BufferPool\.mu \(rank 20\) while holding Frame\.Latch \(rank 30\)`
	b.mu.Unlock()
	f.Latch.Unlock()
}

// badRLock: read flavor is no excuse — RLock under a rank-40 store lock.
func (m *MemStore) badRLock(h *Heap) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h.mu.Lock() // want `acquires Heap\.mu \(rank 10\) while holding MemStore\.mu \(rank 40\)`
	h.mu.Unlock()
}

// lockWAL takes the WAL lock; its summary carries rank 10.
func lockWAL(w *WAL) {
	w.mu.Lock()
	w.lsn++
	w.mu.Unlock()
}

// badCall reaches the inversion through a call: the callee's may-acquire
// summary includes WAL.mu (rank 10), no greater than the held pool lock.
func badCall(b *BufferPool, w *WAL) {
	b.mu.Lock()
	defer b.mu.Unlock()
	lockWAL(w) // want `call to lockWAL may acquire WAL\.mu \(rank 10\) while holding BufferPool\.mu \(rank 20\)`
}

// badIface calls through PageStore (rank 40) while a store lock is held.
func (m *MemStore) badIface(b *BufferPool, id PageID, buf []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b.store.ReadPage(id, buf) // want `call to ReadPage may acquire PageStore \(rank 40\) while holding MemStore\.mu \(rank 40\)`
}

// badGroupCommit enqueues under the append lock: the group-commit queue
// lock is the outermost storage lock and may never be taken under WAL.mu.
func badGroupCommit(w *WAL) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gcMu.Lock() // want `acquires WAL\.gcMu \(rank 5\) while holding WAL\.mu \(rank 10\)`
	w.gcQueue = append(w.gcQueue, w.lsn)
	w.gcMu.Unlock()
}

// badVersionUnderStore registers a version chain during PageStore I/O:
// rank 35 under a rank-40 store lock.
func (m *MemStore) badVersionUnderStore(vs *VersionStore) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vs.mu.Lock() // want `acquires VersionStore\.mu \(rank 35\) while holding MemStore\.mu \(rank 40\)`
	vs.chains++
	vs.mu.Unlock()
}

// badLeakedBranch: the latch survives the if body (no return), so the
// fall-through acquisition is still under it.
func badLeakedBranch(b *BufferPool, f *Frame, cold bool) {
	if cold {
		f.Latch.Lock()
	} else {
		f.Latch.RLock()
	}
	b.mu.Lock() // want `acquires BufferPool\.mu \(rank 20\) while holding Frame\.Latch \(rank 30\)`
	b.mu.Unlock()
	f.Latch.Unlock()
}
