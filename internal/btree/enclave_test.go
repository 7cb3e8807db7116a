package btree_test

import (
	"crypto/ecdh"
	"errors"
	"testing"
	"time"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/attestation"
	"alwaysencrypted/internal/btree"
	"alwaysencrypted/internal/enclave"
	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/storage"
)

// These tests and benchmarks run the tree against the REAL enclave — work
// queue, sealed key install, AES-CBC+HMAC cells — which is what the
// benchmark's btree.*_enclave_* ladder rungs measure.

const cek = "K"

// loadEnclave starts an enclave (one worker thread, like a replica host's)
// and returns it with a function that installs the CEK over a fresh session,
// the way a client that attested it would.
func loadEnclave(t testing.TB, root []byte) (*enclave.Enclave, func()) {
	t.Helper()
	author, err := aecrypto.GenerateRSAKey()
	if err != nil {
		t.Fatal(err)
	}
	image, err := enclave.SignImage(author, []byte("btree-test-enclave"), 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := enclave.Load(image, 10, enclave.Options{Threads: 1, SpinDuration: 20 * time.Microsecond, CrossingCost: 100 * time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	install := func() {
		t.Helper()
		dh, err := attestation.NewClientDH()
		if err != nil {
			t.Fatal(err)
		}
		sid, report, _, err := e.NewSession(dh.PublicKey().Bytes())
		if err != nil {
			t.Fatal(err)
		}
		peer, err := ecdh.P256().NewPublicKey(report.EnclaveDHPub)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := dh.ECDH(peer)
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := enclave.SealForSession(attestation.DeriveSecret(shared), 1, "cek:"+cek, root)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.InstallCEK(sid, cek, 1, sealed); err != nil {
			t.Fatal(err)
		}
	}
	return e, install
}

func encTree(e *enclave.Enclave) *btree.Tree {
	return btree.New(&btree.KeyComparator{Cols: []btree.ColumnOrder{btree.EnclaveOrder{CEK: cek, Enclave: e}}}, false)
}

func rndCells(t testing.TB, key *aecrypto.CellKey, n int) [][][]byte {
	t.Helper()
	out := make([][][]byte, n)
	for i := range out {
		ct, err := key.Encrypt(sqltypes.Int(int64(i*7919%100003)).Encode(), aecrypto.Randomized)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = [][]byte{ct}
	}
	return out
}

// TestEnclaveTreeKeyMissingClosedRestart: without the key every operation
// that has to search a non-empty node fails with enclave.ErrKeyNotInEnclave
// (errors.Is-able — recovery keys its deferral on it, §4.5) and leaves the
// tree as it was; after the enclave restarts (Tree.SwapEnclave onto a fresh
// instance) the same holds until the key is installed again, and then the
// tree — its structure carried over — answers as before. A closed enclave
// answers ErrClosed.
func TestEnclaveTreeKeyMissingClosedRestart(t *testing.T) {
	root, err := aecrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	key := aecrypto.MustCellKey(root)
	keys := rndCells(t, key, 400)

	e1, install1 := loadEnclave(t, root)
	tr := encTree(e1)
	// The first entry of an empty tree needs no search, hence no key.
	if err := tr.Insert(keys[0], 1); err != nil {
		t.Fatalf("insert into an empty tree without the key: %v", err)
	}
	if err := tr.Insert(keys[1], 2); !errors.Is(err, enclave.ErrKeyNotInEnclave) {
		t.Fatalf("insert without the key: %v", err)
	}
	install1()
	for i := 1; i < 300; i++ {
		if err := tr.Insert(keys[i], storage.RowID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	rows := func() []storage.RowID {
		var out []storage.RowID
		if err := tr.Ascend(func(en btree.Entry) bool { out = append(out, en.Row); return true }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := rows()

	// Restart: the new instance holds no keys.
	e2, install2 := loadEnclave(t, root)
	tr.SwapEnclave(e2)
	e1.Close()
	unchanged := func(when string) {
		t.Helper()
		after := rows()
		if len(after) != len(before) || tr.Len() != len(before) {
			t.Fatalf("%s: entry count changed", when)
		}
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("%s: entry %d moved", when, i)
			}
		}
	}
	if err := tr.Insert(keys[300], 301); !errors.Is(err, enclave.ErrKeyNotInEnclave) {
		t.Fatalf("insert after restart: %v", err)
	}
	if _, err := tr.Delete(keys[5], 6); !errors.Is(err, enclave.ErrKeyNotInEnclave) {
		t.Fatalf("delete after restart: %v", err)
	}
	if _, err := tr.SeekExact(keys[5], 0); !errors.Is(err, enclave.ErrKeyNotInEnclave) {
		t.Fatalf("seek after restart: %v", err)
	}
	if _, err := tr.ScanRange(keys[5], keys[9], true, false, 0); !errors.Is(err, enclave.ErrKeyNotInEnclave) {
		t.Fatalf("scan after restart: %v", err)
	}
	unchanged("key-less operations")

	install2()
	if es, err := tr.SeekExact(keys[5], 0); err != nil || len(es) != 1 || es[0].Row != 6 {
		t.Fatalf("seek after key re-install: %v %v", es, err)
	}
	if ok, err := tr.Delete(keys[5], 6); err != nil || !ok {
		t.Fatalf("delete after key re-install: %v %v", ok, err)
	}
	if err := tr.Insert(keys[5], 6); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	unchanged("delete + re-insert")

	e2.Close()
	if err := tr.Insert(keys[301], 302); !errors.Is(err, enclave.ErrClosed) {
		t.Fatalf("insert into a tree whose enclave is closed: %v", err)
	}
	unchanged("closed enclave")
}

func benchTree(b *testing.B, n int) (*btree.Tree, [][][]byte) {
	root, err := aecrypto.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	e, install := loadEnclave(b, root)
	install()
	keys := rndCells(b, aecrypto.MustCellKey(root), n)
	return encTree(e), keys
}

// BenchmarkTreeInsertEnclave is the btree.insert_enclave_ns rung without the
// harness: inserts into a 1 000-entry enclave-ordered tree.
func BenchmarkTreeInsertEnclave(b *testing.B) {
	const base, fresh = 1000, 4096
	tr, keys := benchTree(b, base+fresh)
	for i := 0; i < base; i++ {
		if err := tr.Insert(keys[i], storage.RowID(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(keys[base+i%fresh], storage.RowID(base+1+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeSeekEnclave is the btree.seek_enclave_ns rung: point seeks
// in a 2 000-entry enclave-ordered tree.
func BenchmarkTreeSeekEnclave(b *testing.B) {
	tr, keys := benchTree(b, 2000)
	for i, k := range keys {
		if err := tr.Insert(k, storage.RowID(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.SeekExact(keys[(i*13)%len(keys)], 1); err != nil {
			b.Fatal(err)
		}
	}
}
