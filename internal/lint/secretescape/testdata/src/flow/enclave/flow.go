package enclave

import "aecrypto"

func use(args ...interface{}) {}

// KilledBeforeSpawn: flow-sensitivity — the secret is wiped and the binding
// rebound before the goroutine exists.
func KilledBeforeSpawn(key *aecrypto.CellKey, cell []byte) {
	pt, _ := key.Decrypt(cell)
	aecrypto.Zeroize(pt)
	pt = nil
	go func() { use(pt) }()
}

// DeadBranchClean: the secret reaches the spawn only on a path that
// returned first; the path that spawns rebound it.
func DeadBranchClean(key *aecrypto.CellKey, cell []byte, cond bool) {
	pt, _ := key.Decrypt(cell)
	if cond {
		use(pt)
		return
	}
	pt = nil
	go func() { use(pt) }()
}

// MapAliasSpawn: the container aliases the key, so capturing the container
// spawns the key.
func MapAliasSpawn() {
	k, _ := aecrypto.GenerateKey()
	cache := map[string][]byte{}
	cache["cek"] = k
	go func() { use(cache) }() // want `secret from aecrypto\.GenerateKey escapes into a spawned goroutine`
}
