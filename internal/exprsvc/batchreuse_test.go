package exprsvc

import (
	"bytes"
	"slices"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// TestEvalBatchOutputsLiveUntilNextBatch pins EvalBatch's output lifetime:
// the returned slices are the evaluator's own and the next batch call
// overwrites them, so a caller that copies a batch's booleans and errors
// before the next call keeps them intact, whatever the next batch holds.
func TestEvalBatchOutputsLiveUntilNextBatch(t *testing.T) {
	cek, key, ring := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindInt, cek)
	ev, err := NewEvaluator(cmpProg(t, CmpEQ, info), nil, &fakeEnclave{keys: ring})
	if err != nil {
		t.Fatal(err)
	}
	enc := func(v int64) []byte { return encryptVal(t, key, sqltypes.Int(v), aecrypto.Randomized) }
	param := enc(7)
	bad := []byte("not a ciphertext envelope at all")

	first := [][][]byte{{enc(7), param}, {bad, param}, {enc(8), param}, {enc(7), param}}
	matches, rowErrs, err := ev.EvalBoolBatch(first)
	if err != nil {
		t.Fatal(err)
	}
	keptMatches, keptErrs := slices.Clone(matches), slices.Clone(rowErrs)

	// The second batch, as long as the first, differs from it in every row:
	// each slot the first batch returned is rewritten.
	second := [][][]byte{{bad, param}, {enc(7), param}, {enc(7), param}, {enc(9), param}}
	matches2, rowErrs2, err := ev.EvalBoolBatch(second)
	if err != nil {
		t.Fatal(err)
	}

	if want := []bool{true, false, false, true}; !slices.Equal(keptMatches, want) {
		t.Fatalf("copied first-batch matches = %v, want %v", keptMatches, want)
	}
	if keptErrs[0] != nil || keptErrs[1] == nil || keptErrs[2] != nil || keptErrs[3] != nil {
		t.Fatalf("copied first-batch errors = %v, want only row 1 failed", keptErrs)
	}
	if rowErrs2[0] == nil || rowErrs2[1] != nil || rowErrs2[2] != nil || rowErrs2[3] != nil {
		t.Fatalf("second-batch errors = %v, want only row 0 failed", rowErrs2)
	}
	if want := []bool{false, true, true, false}; !slices.Equal(matches2, want) {
		t.Fatalf("second-batch matches = %v, want %v", matches2, want)
	}
	// The evaluator did reuse its buffers: the first batch's own slices now
	// read the second batch. If this stops holding, the batch path has gone
	// back to allocating its outputs per call.
	if &matches[0] != &matches2[0] || &rowErrs[0] != &rowErrs2[0] {
		t.Fatal("second batch returned fresh slices; the batch buffers are not reused")
	}

	// EvalBatch's per-row outputs, headers and bytes, follow the same rule.
	outs, _, err := ev.EvalBatch(first)
	if err != nil {
		t.Fatal(err)
	}
	kept := make([][]byte, len(outs))
	for i, o := range outs {
		if o != nil {
			kept[i] = bytes.Clone(o[0])
		}
	}
	if _, _, err := ev.EvalBatch(second); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, false, true} {
		if i == 1 {
			if kept[i] != nil {
				t.Fatalf("failed row 1 kept output %x", kept[i])
			}
			continue
		}
		v, err := sqltypes.Decode(kept[i])
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if truthy(v) != want {
			t.Fatalf("copied first-batch output %d = %v, want %v", i, truthy(v), want)
		}
	}
}
