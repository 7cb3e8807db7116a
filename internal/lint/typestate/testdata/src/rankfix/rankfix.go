// Package rankfix exercises ranked resources: S.a (rank 10) before S.b
// (rank 20) before Store calls (rank 30, held only during the call) before
// S.c (rank 40).
package rankfix

import "sync"

type S struct {
	a, b, c sync.Mutex
	st      Store
}

type Store interface{ Read() }

func cond() bool { return false }

func Inverted(s *S) {
	s.b.Lock()
	s.a.Lock() // want `^acquires S\.a \(rank 10\) while holding S\.b \(rank 20\)`
}

func InOrder(s *S) {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

// Held at a merge only if held on every incoming path.
func OneBranch(s *S) {
	if cond() {
		s.b.Lock()
	}
	s.a.Lock()
}

func BothBranches(s *S) {
	if cond() {
		s.b.Lock()
	} else {
		s.b.Lock()
	}
	s.a.Lock() // want `^acquires S\.a \(rank 10\) while holding S\.b \(rank 20\)`
}

// A deferred unlock keeps the lock held for ordering.
func DeferredUnlock(s *S) {
	s.b.Lock()
	defer s.b.Unlock()
	s.a.Lock() // want `^acquires S\.a \(rank 10\) while holding S\.b \(rank 20\)`
}

func Unlocked(s *S) {
	s.b.Lock()
	s.b.Unlock()
	s.a.Lock()
}

func lockA(s *S) {
	s.a.Lock()
	s.a.Unlock()
}

func viaLockA(s *S) { lockA(s) }

// Same-package calls are checked against the callee's transitive
// may-acquire set.
func CallsLockA(s *S) {
	s.b.Lock()
	lockA(s)    // want `^call to lockA may acquire S\.a \(rank 10\) while holding S\.b \(rank 20\)`
	viaLockA(s) // want `^call to viaLockA may acquire S\.a \(rank 10\) while holding S\.b \(rank 20\)`
}

// A goroutine body starts with nothing held.
func Spawns(s *S) {
	s.b.Lock()
	go func() {
		s.a.Lock()
		s.a.Unlock()
	}()
}

// A ranked resource without release forms is held only during its call.
func StoreCalls(s *S) {
	s.st.Read()
	s.b.Lock()
	s.c.Lock()
	s.st.Read() // want `^call to Read may acquire Store \(rank 30\) while holding S\.c \(rank 40\)`
}
