package enclave

import (
	"crypto/rsa"
	"sync"

	"aecrypto"
)

// goodCache ranges its key map and zeroizes entries on close: the evict
// path the analyzer demands.
type goodCache struct {
	keys  map[string]*cellKey
	names map[string]bool // non-secret values need no path
}

func (g *goodCache) Close() {
	for _, k := range g.keys {
		k.Zeroize()
	}
	g.keys = map[string]*cellKey{}
}

// vault wipes CMK material through a package-local zeroize… helper, which
// the name-based protocol accepts.
type vault struct {
	cmks map[string]*rsa.PrivateKey
}

func (v *vault) purge() {
	for _, k := range v.cmks {
		zeroizeRSA(k)
	}
}

func zeroizeRSA(k *rsa.PrivateKey) {}

// structEvict zeroizes through struct fields of the range value, like the
// driver cache does.
type structEvict struct {
	entries map[string]entry
}

func (s *structEvict) reset() {
	for _, e := range s.entries {
		e.cell.Zeroize()
	}
	s.entries = nil
}

// bufPool recycles plain buffers: nothing secret, no finding.
type bufPool struct {
	pool sync.Pool
}

func newBufPool() *bufPool {
	p := &bufPool{}
	p.pool.New = func() interface{} { return make([]byte, 64) }
	return p
}

// crossingOpeners holds a crossing's openers and retires every one where
// the crossing ends, as the expression evaluator does.
type crossingOpeners struct {
	openers []*aecrypto.Opener
}

func (c *crossingOpeners) end() {
	for _, op := range c.openers {
		op.Zeroize()
	}
	c.openers = c.openers[:0]
}
