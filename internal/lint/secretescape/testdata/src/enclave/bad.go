package enclave

import (
	"aecrypto"
	"hostobs"
)

func use(args ...interface{}) {}

// HostCallback registers a secret-capturing hook outside the trust domain.
func HostCallback(key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	hostobs.OnFlush(func() { use(pt) }) // want `secret from CellKey\.Decrypt is captured by a callback handed to hostobs\.OnFlush`
}

var (
	lastCell   []byte
	liveOpener *aecrypto.Opener
	liveSealer *aecrypto.Sealer
)

// OpenedToGlobal parks a cell opened through an opener in a global.
func OpenedToGlobal(op *aecrypto.Opener, arena, cell []byte) {
	pt, _ := op.Open(arena, cell)
	lastCell = pt // want `secret from Opener\.Open escapes to a package-level variable`
}

// OpenerToGlobal keeps a crossing's opener — and its key schedule — past
// the crossing.
func OpenerToGlobal(key *aecrypto.CellKey) {
	op, _ := key.NewOpener()
	liveOpener = op // want `secret from CellKey\.NewOpener escapes to a package-level variable`
}

// SealerIntoGoroutine hands a sealer to a spawned goroutine.
func SealerIntoGoroutine(key *aecrypto.CellKey) {
	s, _ := key.NewSealer()
	go func() { liveSealer = s }() // want `secret from CellKey\.NewSealer escapes into a spawned goroutine`
}
