package exprsvc

import (
	"bytes"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// panicRing resolves keys from its map and panics on the CEK named BOOM —
// a fault in the middle of a row, after the row's earlier slots were opened.
type panicRing mapKeyRing

func (r panicRing) CellKey(name string) (*aecrypto.CellKey, error) {
	if name == "BOOM" {
		panic("injected enclave fault")
	}
	return mapKeyRing(r).CellKey(name)
}

// TestCrossingArenaWipedAtEnd: the plaintext arena a crossing decrypts into
// reads all zero once EndCrossing has run, and the crossing's openers are
// gone — after a crossing that finished and after one that faulted midway
// through a row, where EndCrossing runs from the deferred recover as the
// enclave's evalRun does.
func TestCrossingArenaWipedAtEnd(t *testing.T) {
	cek, key, ring := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindString, cek)
	prog := &Program{
		Name:    "arena",
		Inputs:  []EncInfo{info, info, rndEnclaveInfo(sqltypes.KindString, "BOOM")},
		Outputs: []EncInfo{Plain(sqltypes.KindBool)},
		Code: []Instr{
			{Op: OpGetData, Arg: 0}, {Op: OpGetData, Arg: 1}, {Op: OpLike},
			{Op: OpGetData, Arg: 2}, {Op: OpIsNull}, {Op: OpAnd},
			{Op: OpSetData, Arg: 0},
		},
	}
	ev := NewEnclaveEvaluator(prog, panicRing(ring), false)
	name := encryptVal(t, key, sqltypes.Str("Smith-Jones"), aecrypto.Randomized)
	pat := encryptVal(t, key, sqltypes.Str("Smith%"), aecrypto.Randomized)

	wiped := func(label string) {
		t.Helper()
		if cap(ev.arena) == 0 {
			t.Fatalf("%s: nothing was decrypted into the arena", label)
		}
		if a := ev.arena[:cap(ev.arena)]; !bytes.Equal(a, make([]byte, len(a))) {
			t.Fatalf("%s: arena holds %x after EndCrossing", label, a)
		}
		if len(ev.openers) != 0 {
			t.Fatalf("%s: %d openers outlived the crossing", label, len(ev.openers))
		}
		for _, ko := range ev.openers[:cap(ev.openers)] {
			if ko.op != nil || ko.key != nil {
				t.Fatalf("%s: a retired opener is still referenced", label)
			}
		}
	}

	ev.BeginCrossing()
	for range 3 {
		if ok, err := ev.EvalBool([][]byte{name, pat, nil}); err != nil || !ok {
			t.Fatalf("LIKE row: %v %v", ok, err)
		}
	}
	if len(ev.openers) != 1 {
		t.Fatalf("one key, %d openers in the crossing", len(ev.openers))
	}
	ev.EndCrossing()
	wiped("finished crossing")

	faulted := func() (faulted bool) {
		defer func() {
			ev.EndCrossing()
			faulted = recover() != nil
		}()
		ev.BeginCrossing()
		_, _ = ev.EvalBool([][]byte{name, pat, name})
		return false
	}()
	if !faulted {
		t.Fatal("the BOOM slot did not fault")
	}
	wiped("faulted crossing")
}
