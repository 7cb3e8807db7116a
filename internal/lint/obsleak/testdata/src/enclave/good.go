package enclave

import (
	"aecrypto"
	"obs"
)

// RecordSizes records only sizes of plaintext-derived data — the declared
// observable channel. len() sanitizes taint.
func RecordSizes(reg *obs.Registry, key *aecrypto.CellKey, cells [][]byte) {
	h := reg.Histogram("enclave.cell_bytes")
	total := 0
	for _, cell := range cells {
		pt, err := key.Decrypt(cell)
		if err != nil {
			reg.Counter("enclave.faults").Inc()
			continue
		}
		h.Observe(int64(len(pt)))
		total += len(pt)
	}
	reg.Gauge("enclave.batch_bytes").Set(int64(total))
	reg.Counter("enclave.cells").Add(uint64(len(cells)))
}

// RecordOpenedSizes opens through a crossing's opener and records only the
// sizes.
func RecordOpenedSizes(reg *obs.Registry, op *aecrypto.Opener, cells [][]byte) {
	var arena []byte
	for _, cell := range cells {
		pt, err := op.Open(arena, cell)
		if err != nil {
			continue
		}
		arena = pt
		reg.Histogram("enclave.opened_bytes").Observe(int64(len(pt)))
	}
}
