package enclave

import (
	"aecrypto"
	"hostobs"
)

func use(args ...interface{}) {}

var lastKey []byte

// GlobalEscape parks key material in a package-level variable.
func GlobalEscape() {
	k, err := aecrypto.GenerateKey()
	if err != nil {
		return
	}
	lastKey = k // want `secret from aecrypto\.GenerateKey escapes to a package-level variable`
}

// SpawnCapture hands plaintext to a goroutine via closure capture.
func SpawnCapture(key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	go func() { use(pt) }() // want `secret from CellKey\.Decrypt escapes into a spawned goroutine`
}

// SpawnArg hands plaintext to a goroutine as a spawned-call argument.
func SpawnArg(key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	go use(pt) // want `secret from CellKey\.Decrypt escapes into a spawned goroutine`
}

// ForeignSend pushes plaintext into a channel the frame does not own.
func ForeignSend(key *aecrypto.CellKey, cell []byte, out chan []byte) {
	pt, _ := key.Decrypt(cell)
	out <- pt // want `secret from CellKey\.Decrypt is sent on a channel this frame does not own`
}

// HostCallback registers a secret-capturing hook outside the trust domain.
func HostCallback(key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	hostobs.OnFlush(func() { use(pt) }) // want `secret from CellKey\.Decrypt is captured by a callback handed to hostobs\.OnFlush`
}

// UnknownCallback hands a secret-capturing closure to an unresolved function
// value — which could go anywhere.
func UnknownCallback(key *aecrypto.CellKey, cell []byte, register func(func())) {
	pt, _ := key.Decrypt(cell)
	register(func() { use(pt) }) // want `secret from CellKey\.Decrypt is captured by a callback handed to an unresolved function value`
}

// MapAliasSpawn: the container aliases the key, so capturing the container
// spawns the key.
func MapAliasSpawn() {
	k, _ := aecrypto.GenerateKey()
	cache := map[string][]byte{}
	cache["cek"] = k
	go func() { use(cache) }() // want `secret from aecrypto\.GenerateKey escapes into a spawned goroutine`
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
