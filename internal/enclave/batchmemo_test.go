package enclave

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/exprsvc"
	"alwaysencrypted/internal/sqltypes"
)

// betweenProgram is the enclave-side program for `col BETWEEN lo AND hi`
// over three slots that may each sit under a different CEK: it reads the
// column slot twice, so a batch exercises both the down-the-batch reuse (lo,
// hi) and the within-row one (col).
func betweenProgram(col, lo, hi string) *exprsvc.Program {
	return &exprsvc.Program{
		Name:    "between",
		Inputs:  []exprsvc.EncInfo{rndInfo(col), rndInfo(lo), rndInfo(hi)},
		Outputs: []exprsvc.EncInfo{exprsvc.Plain(sqltypes.KindBool)},
		Code: []exprsvc.Instr{
			{Op: exprsvc.OpGetData, Arg: 0}, {Op: exprsvc.OpGetData, Arg: 1}, {Op: exprsvc.OpComp, Arg: int(exprsvc.CmpGE)},
			{Op: exprsvc.OpGetData, Arg: 0}, {Op: exprsvc.OpGetData, Arg: 2}, {Op: exprsvc.OpComp, Arg: int(exprsvc.CmpLE)},
			{Op: exprsvc.OpAnd}, {Op: exprsvc.OpSetData, Arg: 0},
		},
	}
}

// TestBatchEqualsRowAtATime is the acceptance test for "a batch decrypts
// each distinct ciphertext of a slot once" changing nothing observable: over
// seeded random batches whose parameter slots are repeated, alternating,
// NULL, corrupt or under a key the enclave lacks, EvalExpressionBatch
// returns byte-identical outputs and the same per-row errors as one
// EvalExpression call per row.
func TestBatchEqualsRowAtATime(t *testing.T) {
	e := testEnclave(t, Options{Threads: 2})
	cs := newClientSession(t, e)
	root, _ := aecrypto.GenerateKey()
	cs.installCEK(t, e, "K", root)
	key := aecrypto.MustCellKey(root)
	other := aecrypto.MustCellKey(bytes.Repeat([]byte{7}, 32))

	handles := map[string]uint64{}
	for name, p := range map[string]*exprsvc.Program{
		"held":    betweenProgram("K", "K", "K"),
		"lacking": betweenProgram("K", "K", "NotInstalled"),
	} {
		h, err := e.RegisterExpression(p.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		handles[name] = h
	}

	rng := rand.New(rand.NewSource(19))
	keyMissing := 0
	for trial := 0; trial < 60; trial++ {
		// A small pool of parameter cells: the same plaintext also appears
		// under a fresh IV (byte-different, value-equal), plus the hostile ones.
		params := [][]byte{
			encInt(t, key, 100), encInt(t, key, 100), encInt(t, key, 500), encInt(t, key, 900),
			nil,                        // NULL
			[]byte("corrupt envelope"), // fails the format check
			encInt(t, other, 500),      // authenticates under no installed key
		}
		shape := trial % 4
		n := 1 + rng.Intn(40)
		rows := make([][][]byte, n)
		for i := range rows {
			var lo, hi []byte
			switch shape {
			case 0: // one statement's parameters: the same two cells in every row
				lo, hi = params[0], params[3]
			case 1: // alternating
				lo, hi = params[i%2*2], params[3-i%2]
			default: // anything, hostile cells included
				lo, hi = params[rng.Intn(len(params))], params[rng.Intn(len(params))]
			}
			col := encInt(t, key, int64(rng.Intn(1000)))
			if rng.Intn(10) == 0 {
				col = nil
			}
			rows[i] = [][]byte{col, lo, hi}
		}
		name := "held"
		if shape == 3 {
			name = "lacking"
		}
		outs, errs, err := e.EvalExpressionBatch(handles[name], rows)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			one, oneErr := e.EvalExpression(handles[name], row)
			if (oneErr == nil) != (errs[i] == nil) || (oneErr != nil && oneErr.Error() != errs[i].Error()) {
				t.Fatalf("trial %d row %d: batch err %v, single err %v", trial, i, errs[i], oneErr)
			}
			if len(one) != len(outs[i]) {
				t.Fatalf("trial %d row %d: %d outputs vs %d", trial, i, len(outs[i]), len(one))
			}
			for j := range one {
				if !bytes.Equal(one[j], outs[i][j]) {
					t.Fatalf("trial %d row %d out %d: batch %x, single %x", trial, i, j, outs[i][j], one[j])
				}
			}
			if errors.Is(errs[i], ErrKeyNotInEnclave) {
				keyMissing++
			}
		}
	}
	if keyMissing == 0 {
		t.Fatal("no row ever met the missing key: the script does not cover it")
	}
}

// boomRing is a key ring that panics when asked for the CEK "BOOM" — the
// injected fault of TestBatchFaultIsolation.
type boomRing struct{ inner exprsvc.KeyRing }

func (r boomRing) CellKey(name string) (*aecrypto.CellKey, error) {
	if name == "BOOM" {
		panic("injected enclave fault")
	}
	return r.inner.CellKey(name)
}

// TestBatchFaultIsolation: a panic while evaluating one row of a batch
// yields ErrFault for that row only — rows before and after evaluate, the
// enclave worker survives — and the evaluator that faulted is dropped, never
// returned to the expression's pool.
func TestBatchFaultIsolation(t *testing.T) {
	e := testEnclave(t, Options{Threads: 1})
	cs := newClientSession(t, e)
	root, _ := aecrypto.GenerateKey()
	cs.installCEK(t, e, "K", root)
	key := aecrypto.MustCellKey(root)

	// slot0 = slot1 AND slot2 IS NULL, with slot 2 under "BOOM": the ring is
	// consulted — and panics — on the first row whose slot 2 is not NULL.
	prog := &exprsvc.Program{
		Name:    "fault",
		Inputs:  []exprsvc.EncInfo{rndInfo("K"), rndInfo("K"), rndInfo("BOOM")},
		Outputs: []exprsvc.EncInfo{exprsvc.Plain(sqltypes.KindBool)},
		Code: []exprsvc.Instr{
			{Op: exprsvc.OpGetData, Arg: 0}, {Op: exprsvc.OpGetData, Arg: 1}, {Op: exprsvc.OpComp, Arg: int(exprsvc.CmpEQ)},
			{Op: exprsvc.OpGetData, Arg: 2}, {Op: exprsvc.OpIsNull}, {Op: exprsvc.OpAnd},
			{Op: exprsvc.OpSetData, Arg: 0},
		},
	}
	re := &registeredExpr{prog: prog, opTally: tallyOps(e.obs, prog)}
	var made []*exprsvc.Evaluator
	re.pool.New = func() any {
		ev := exprsvc.NewEnclaveEvaluator(prog, boomRing{(*enclaveKeyRing)(e)}, false)
		made = append(made, ev)
		return ev
	}
	const handle = 4242
	if err := e.mutate(func() error { e.exprs[handle] = re; return nil }); err != nil {
		t.Fatal(err)
	}

	lo := encInt(t, key, 10)
	rows := make([][][]byte, 6)
	for i := range rows {
		rows[i] = [][]byte{encInt(t, key, int64(i)), lo, nil}
	}
	rows[3][2] = encInt(t, key, 99)
	faults := e.Dump().Faults
	outs, errs, err := e.EvalExpressionBatch(handle, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if i == 3 {
			if !errors.Is(errs[i], ErrFault) || outs[i] != nil {
				t.Fatalf("faulting row: outs %v err %v", outs[i], errs[i])
			}
			continue
		}
		if errs[i] != nil || len(outs[i]) != 1 {
			t.Fatalf("row %d beside the fault: outs %v err %v", i, outs[i], errs[i])
		}
	}
	if d := e.Dump().Faults - faults; d != 1 {
		t.Fatalf("faults counter moved by %d", d)
	}
	if len(made) != 2 {
		t.Fatalf("batch used %d evaluators, want the pooled one plus one replacement", len(made))
	}
	// Whatever the pool still holds, it is not the evaluator that faulted.
	faulted := made[0]
	for len(made) == 2 {
		if ev := re.pool.Get().(*exprsvc.Evaluator); ev == faulted {
			t.Fatal("faulted evaluator was returned to the pool")
		}
	}
	// The single worker thread survived the panic.
	if _, errs, err := e.EvalExpressionBatch(handle, rows[:2]); err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("after the fault: %v %v", errs, err)
	}
}

// TestBatchCountersScaleWithRows: enclave.evals and the per-opcode tallies
// are added once per batch, with totals equal to one bump per evaluated row.
func TestBatchCountersScaleWithRows(t *testing.T) {
	e := testEnclave(t, Options{Threads: 1})
	_, key, handle := setupExprSession(t, e)
	rows := make([][][]byte, 10)
	for i := range rows {
		rows[i] = [][]byte{encInt(t, key, int64(i)), encInt(t, key, 3)}
	}
	rows[4][0] = []byte("corrupt envelope")
	if _, _, err := e.EvalExpressionBatch(handle, rows); err != nil {
		t.Fatal(err)
	}
	if got := e.Dump().Evaluations; got != 9 {
		t.Fatalf("enclave.evals = %d after 9 good rows of 10", got)
	}
	if got := e.Obs().Counter("enclave.ops.get_data").Value(); got != 18 {
		t.Fatalf("enclave.ops.get_data = %d, want 2 per evaluated row", got)
	}
}

// BenchmarkEvalBatchSharedParam: a 256-row batch of `col LIKE @p`-shaped
// work — every row carries its own column cell and the SAME parameter cell,
// which is what a statement's filter batch looks like.
func BenchmarkEvalBatchSharedParam(b *testing.B) {
	e := testEnclave(b, Options{Threads: 1})
	_, key, handle := setupExprSession(b, e)
	param := encInt(b, key, 7)
	rows := make([][][]byte, 256)
	for i := range rows {
		rows[i] = [][]byte{encInt(b, key, int64(i)), param}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, errs, err := e.EvalExpressionBatch(handle, rows); err != nil || errs[0] != nil {
			b.Fatal(err, errs[0])
		}
	}
}
