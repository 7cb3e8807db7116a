package enclave

import (
	"sync"

	"aecrypto"
)

// cellKey declares the disposal protocol: it is secret-bearing.
type cellKey struct{ k []byte }

func (c *cellKey) Zeroize() {}

// leakyCache parks keys forever: no method ranges the map with a zeroize.
type leakyCache struct {
	keys map[string]*cellKey // want `leakyCache\.keys holds secret-bearing .*cellKey values with no Zeroize-on-evict path`
}

func (l *leakyCache) drop(name string) {
	delete(l.keys, name) // eviction without zeroization does not count
}

// entry is secret-bearing transitively: a struct holding a cellKey.
type entry struct {
	cell *cellKey
	hits int
}

// nestedLeak holds secret-bearing structs, not just direct keys.
type nestedLeak struct {
	entries []entry // want `nestedLeak\.entries holds secret-bearing .*entry values with no Zeroize-on-evict path`
}

// assignedPool gets its New from an assignment; it recycles secret holders.
type assignedPool struct {
	pool sync.Pool // want `assignedPool\.pool is a sync\.Pool recycling secret-bearing`
}

func newAssignedPool() *assignedPool {
	p := &assignedPool{}
	p.pool.New = func() interface{} { return &cellKey{} }
	return p
}

// literalPool gets its New from a composite literal.
type literalPool struct {
	pool sync.Pool // want `literalPool\.pool is a sync\.Pool recycling secret-bearing`
}

func newLiteralPool() *literalPool {
	return &literalPool{pool: sync.Pool{New: func() interface{} { return &entry{cell: &cellKey{}} }}}
}

// openerCache keeps openers — and the key schedules they carry — past the
// crossing that made them, with nothing that ever retires them.
type openerCache struct {
	byKey map[string]*aecrypto.Opener // want `openerCache\.byKey holds secret-bearing .*Opener values with no Zeroize-on-evict path`
}
