package exprsvc

import (
	"bytes"
	"errors"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// TestCrossingMemoLifetime is the white-box half of "a batch decrypts each
// distinct ciphertext of a slot once": inside BeginCrossing/EndCrossing a
// slot whose ciphertext is byte-equal to the one it last held is served from
// memory (matched by content, not identity), a value-equal cell under a
// fresh IV is not, and once the crossing ends the evaluator remembers
// nothing — the same cell is decrypted again.
//
// Decryption is made visible by swapping the evaluator's cached cell key for
// a wrong one: from then on every real decrypt fails authentication, so a
// row evaluates only if every encrypted slot was remembered.
func TestCrossingMemoLifetime(t *testing.T) {
	cek, key, ring := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindInt, cek)
	prog, err := Compile("eq", Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}, []EncInfo{info, info})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Deserialize(prog.Subs[0])
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEnclaveEvaluator(sub, ring, false)
	col := encryptVal(t, key, sqltypes.Int(7), aecrypto.Randomized)
	param := encryptVal(t, key, sqltypes.Int(7), aecrypto.Randomized)
	row := [][]byte{col, param}

	evalTrue := func(label string, row [][]byte) {
		t.Helper()
		ok, err := ev.EvalBool(row)
		if err != nil || !ok {
			t.Fatalf("%s: %v %v", label, ok, err)
		}
	}
	wrong := aecrypto.MustCellKey(bytes.Repeat([]byte{9}, 32))
	breakKey := func() { ev.cellKeys[cek] = wrong }
	fixKey := func() { ev.cellKeys[cek] = key }

	// Outside a crossing nothing is remembered.
	evalTrue("plain eval", row)
	if len(ev.memo) != 0 {
		t.Fatalf("memo active outside a crossing: %v", ev.memo)
	}
	breakKey()
	if _, err := ev.EvalBool(row); !errors.Is(err, aecrypto.ErrAuthFailed) {
		t.Fatalf("row re-evaluated outside a crossing without decrypting: %v", err)
	}
	fixKey()

	ev.BeginCrossing()
	evalTrue("first row of the crossing", row)
	breakKey()
	// Same bytes in other memory: remembered.
	clone := [][]byte{append([]byte(nil), col...), append([]byte(nil), param...)}
	evalTrue("byte-equal cells", clone)
	// The host rewrites the cell it submitted in place: the memo holds its
	// own copy of what was opened, so the rewritten bytes are new to it and
	// must be authenticated, which they cannot be.
	mut := encryptVal(t, key, sqltypes.Int(7), aecrypto.Randomized)
	fixKey()
	evalTrue("cell about to be rewritten", [][]byte{col, mut})
	breakKey()
	mut[len(mut)-1] ^= 1
	if _, err := ev.EvalBool([][]byte{col, mut}); !errors.Is(err, aecrypto.ErrAuthFailed) {
		t.Fatalf("cell rewritten in place was served from the memo: %v", err)
	}
	fixKey()
	evalTrue("back to the statement's parameter", row)
	breakKey()
	// Same value, fresh IV: must be decrypted, and cannot be.
	fresh := [][]byte{col, encryptVal(t, key, sqltypes.Int(7), aecrypto.Randomized)}
	if _, err := ev.EvalBool(fresh); !errors.Is(err, aecrypto.ErrAuthFailed) {
		t.Fatalf("value-equal cell under a fresh IV was not decrypted: %v", err)
	}
	// A failed decrypt displaces nothing.
	evalTrue("after a failed row", row)
	// NULL is never remembered as a value and displaces nothing either.
	if ok, err := ev.EvalBool([][]byte{col, nil}); err != nil || ok {
		t.Fatalf("NULL parameter: %v %v", ok, err)
	}
	evalTrue("after a NULL row", row)
	ev.EndCrossing()

	if len(ev.memo) != 0 {
		t.Fatal("memo still active after EndCrossing")
	}
	for i, m := range ev.memo[:cap(ev.memo)] {
		if m.ct != nil || m.v.Kind != sqltypes.KindNull {
			t.Fatalf("slot %d survived the crossing: %+v", i, m)
		}
	}
	// The next crossing starts from nothing: the same parameter cell is
	// decrypted again.
	ev.BeginCrossing()
	if _, err := ev.EvalBool(row); !errors.Is(err, aecrypto.ErrAuthFailed) {
		t.Fatalf("second crossing reused the first one's plaintext: %v", err)
	}
	fixKey()
	evalTrue("second crossing, key restored", row)
	ev.EndCrossing()
}
