package exprsvc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/sqltypes"
)

// mapKeyRing is a trivial KeyRing over in-memory cell keys.
type mapKeyRing map[string]*aecrypto.CellKey

func (m mapKeyRing) CellKey(name string) (*aecrypto.CellKey, error) {
	k, ok := m[name]
	if !ok {
		return nil, errors.New("no such key")
	}
	return k, nil
}

// fakeEnclave implements EnclaveCaller the same way the real enclave does:
// deserialize on registration, evaluate with session keys.
type fakeEnclave struct {
	keys  mapKeyRing
	progs []*Evaluator
	calls int
}

func (f *fakeEnclave) RegisterExpression(serialized []byte) (uint64, error) {
	p, err := Deserialize(serialized)
	if err != nil {
		return 0, err
	}
	f.progs = append(f.progs, NewEnclaveEvaluator(p, f.keys, false))
	return uint64(len(f.progs) - 1), nil
}

func (f *fakeEnclave) EvalExpression(handle uint64, inputs [][]byte) ([][]byte, error) {
	f.calls++
	return f.progs[handle].Eval(inputs)
}

func (f *fakeEnclave) EvalExpressionBatch(handle uint64, rows [][][]byte) ([][][]byte, []error, error) {
	f.calls++
	outs := make([][][]byte, len(rows))
	errs := make([]error, len(rows))
	for i, row := range rows {
		res, err := f.progs[handle].Eval(row)
		if err != nil {
			errs[i] = err
			continue
		}
		// Eval reuses its outputs across calls, headers and bytes alike;
		// copy them out as the enclave does.
		outs[i] = make([][]byte, len(res))
		for j, o := range res {
			outs[i][j] = bytes.Clone(o)
		}
	}
	return outs, errs, nil
}

func newCEK(t testing.TB) (string, *aecrypto.CellKey, mapKeyRing) {
	t.Helper()
	root, err := aecrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	k := aecrypto.MustCellKey(root)
	return "MyCEK", k, mapKeyRing{"MyCEK": k}
}

func rndEnclaveInfo(kind sqltypes.Kind, cek string) EncInfo {
	return EncInfo{Kind: kind, Enc: sqltypes.EncType{
		Scheme: sqltypes.SchemeRandomized, CEKName: cek, EnclaveEnabled: true}}
}

func detInfo(kind sqltypes.Kind, cek string) EncInfo {
	return EncInfo{Kind: kind, Enc: sqltypes.EncType{
		Scheme: sqltypes.SchemeDeterministic, CEKName: cek}}
}

// encryptVal seals a value's canonical encoding under a cell key.
func encryptVal(t testing.TB, k *aecrypto.CellKey, v sqltypes.Value, typ aecrypto.EncryptionType) []byte {
	t.Helper()
	ct, err := k.Encrypt(v.Encode(), typ)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestPlaintextComparison: fully plaintext predicates run entirely host-side.
func TestPlaintextComparison(t *testing.T) {
	inputs := []EncInfo{Plain(sqltypes.KindInt), Plain(sqltypes.KindInt)}
	expr := Cmp{Op: CmpLT, L: SlotRef{Slot: 0, Info: inputs[0]}, R: SlotRef{Slot: 1, Info: inputs[1]}}
	prog, err := Compile("lt", expr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Subs) != 0 {
		t.Fatal("plaintext comparison must not create enclave sub-programs")
	}
	ev, err := NewEvaluator(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a, b int64
		want bool
	}{{1, 2, true}, {2, 2, false}, {3, 2, false}} {
		got, err := ev.EvalBool([][]byte{sqltypes.Int(c.a).Encode(), sqltypes.Int(c.b).Encode()})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("%d < %d = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestFigure7EnclaveComparison reproduces the Figure 7 split: `value = @v`
// over an enclave-enabled randomized column compiles to a host TMEval stub
// plus a serialized enclave sub-program, and evaluates via the enclave.
func TestFigure7EnclaveComparison(t *testing.T) {
	cek, key, ring := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindInt, cek)
	inputs := []EncInfo{info, info}
	expr := Cmp{Op: CmpEQ,
		L: SlotRef{Slot: 0, Info: info, Name: "T.value"},
		R: SlotRef{Slot: 1, Info: info, Name: "@v"}}
	prog, err := Compile("fig7", expr, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Subs) != 1 {
		t.Fatalf("expected 1 enclave sub-program, got %d", len(prog.Subs))
	}
	// The host program must contain a TMEval stub and no GetData on the
	// encrypted slots.
	sawTMEval := false
	for _, in := range prog.Code {
		if in.Op == OpTMEval {
			sawTMEval = true
		}
		if in.Op == OpGetData {
			t.Fatal("host program decrypts an encrypted slot")
		}
	}
	if !sawTMEval {
		t.Fatal("no TMEval in host program")
	}

	encl := &fakeEnclave{keys: ring}
	ev, err := NewEvaluator(prog, nil, encl)
	if err != nil {
		t.Fatal(err)
	}
	colCT := encryptVal(t, key, sqltypes.Int(42), aecrypto.Randomized)
	paramEq := encryptVal(t, key, sqltypes.Int(42), aecrypto.Randomized)
	paramNe := encryptVal(t, key, sqltypes.Int(7), aecrypto.Randomized)

	got, err := ev.EvalBool([][]byte{colCT, paramEq})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("42 = 42 over RND ciphertext evaluated false")
	}
	got, err = ev.EvalBool([][]byte{colCT, paramNe})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("42 = 7 over RND ciphertext evaluated true")
	}
	if encl.calls != 2 {
		t.Fatalf("enclave invoked %d times, want 2", encl.calls)
	}
}

// TestRangeOverRNDViaEnclave: range comparison on randomized ciphertext.
func TestRangeOverRNDViaEnclave(t *testing.T) {
	cek, key, ring := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindInt, cek)
	expr := Cmp{Op: CmpGT, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}
	prog, err := Compile("gt", expr, []EncInfo{info, info})
	if err != nil {
		t.Fatal(err)
	}
	encl := &fakeEnclave{keys: ring}
	ev, _ := NewEvaluator(prog, nil, encl)
	a := encryptVal(t, key, sqltypes.Int(10), aecrypto.Randomized)
	b := encryptVal(t, key, sqltypes.Int(5), aecrypto.Randomized)
	got, err := ev.EvalBool([][]byte{a, b})
	if err != nil || !got {
		t.Fatalf("10 > 5 = %v, err %v", got, err)
	}
}

// TestLikeViaEnclave: LIKE over encrypted strings.
func TestLikeViaEnclave(t *testing.T) {
	cek, key, ring := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindString, cek)
	expr := LikeExpr{Input: SlotRef{Slot: 0, Info: info}, Pattern: SlotRef{Slot: 1, Info: info}}
	prog, err := Compile("like", expr, []EncInfo{info, info})
	if err != nil {
		t.Fatal(err)
	}
	encl := &fakeEnclave{keys: ring}
	ev, _ := NewEvaluator(prog, nil, encl)
	s := encryptVal(t, key, sqltypes.Str("BARBARBAR"), aecrypto.Randomized)
	pat := encryptVal(t, key, sqltypes.Str("BAR%"), aecrypto.Randomized)
	got, err := ev.EvalBool([][]byte{s, pat})
	if err != nil || !got {
		t.Fatalf("LIKE = %v, err %v", got, err)
	}
}

// TestDETEqualityOnHost: DET equality is VARBINARY equality with no enclave.
func TestDETEqualityOnHost(t *testing.T) {
	cek, key, _ := newCEK(t)
	info := detInfo(sqltypes.KindString, cek)
	expr := Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}
	prog, err := Compile("det-eq", expr, []EncInfo{info, info})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Subs) != 0 {
		t.Fatal("DET equality must not use the enclave")
	}
	ev, err := NewEvaluator(prog, nil, nil) // host: no keys, no enclave
	if err != nil {
		t.Fatal(err)
	}
	a := encryptVal(t, key, sqltypes.Str("Seattle"), aecrypto.Deterministic)
	b := encryptVal(t, key, sqltypes.Str("Seattle"), aecrypto.Deterministic)
	c := encryptVal(t, key, sqltypes.Str("Zurich"), aecrypto.Deterministic)
	if got, _ := ev.EvalBool([][]byte{a, b}); !got {
		t.Fatal("equal DET ciphertexts compared unequal")
	}
	if got, _ := ev.EvalBool([][]byte{a, c}); got {
		t.Fatal("distinct DET ciphertexts compared equal")
	}
}

// TestDETRangeRejected: range over DET must fail compilation (§2.4.4).
func TestDETRangeRejected(t *testing.T) {
	info := detInfo(sqltypes.KindInt, "K")
	expr := Cmp{Op: CmpLT, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}
	if _, err := Compile("det-lt", expr, []EncInfo{info, info}); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("err = %v, want ErrUnsupportedOp", err)
	}
}

// TestRNDWithoutEnclaveRejected: no scalar operations on enclave-disabled RND.
func TestRNDWithoutEnclaveRejected(t *testing.T) {
	info := EncInfo{Kind: sqltypes.KindInt, Enc: sqltypes.EncType{
		Scheme: sqltypes.SchemeRandomized, CEKName: "K"}}
	expr := Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}
	if _, err := Compile("rnd", expr, []EncInfo{info, info}); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("err = %v, want ErrUnsupportedOp", err)
	}
}

// TestLiteralVsEncryptedRejected: literals can't meet encrypted columns.
func TestLiteralVsEncryptedRejected(t *testing.T) {
	info := detInfo(sqltypes.KindInt, "K")
	expr := Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: Const{Val: sqltypes.Int(5)}}
	if _, err := Compile("lit", expr, []EncInfo{info}); !errors.Is(err, ErrNotParameterized) {
		t.Fatalf("err = %v, want ErrNotParameterized", err)
	}
}

// TestCrossCEKComparisonRejected at compile time.
func TestCrossCEKComparisonRejected(t *testing.T) {
	a := detInfo(sqltypes.KindInt, "K1")
	b := detInfo(sqltypes.KindInt, "K2")
	expr := Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: a}, R: SlotRef{Slot: 1, Info: b}}
	if _, err := Compile("cross", expr, []EncInfo{a, b}); !errors.Is(err, sqltypes.ErrTypeConflict) {
		t.Fatalf("err = %v, want type conflict", err)
	}
}

// TestEnclaveSecurityCheck: the enclave rejects comparing values with
// mismatched provenance even if a malicious host crafts such a program
// (§4.4.1 "enforces security checks that ensure encrypted and plaintext
// values cannot be compared").
func TestEnclaveSecurityCheck(t *testing.T) {
	cek, key, ring := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindInt, cek)
	// Hand-craft a malicious sub-program comparing an encrypted slot with a
	// plaintext constant — a decryption oracle if permitted.
	evil := &Program{
		Name:    "evil",
		Inputs:  []EncInfo{info},
		Outputs: []EncInfo{Plain(sqltypes.KindBool)},
		Code: []Instr{
			{Op: OpGetData, Arg: 0},
			{Op: OpConst, Val: sqltypes.Int(42)},
			{Op: OpComp, Arg: int(CmpEQ)},
			{Op: OpSetData, Arg: 0},
		},
	}
	ev := NewEnclaveEvaluator(evil, ring, false)
	ct := encryptVal(t, key, sqltypes.Int(42), aecrypto.Randomized)
	if _, err := ev.Eval([][]byte{ct}); !errors.Is(err, ErrSecurityViolation) {
		t.Fatalf("err = %v, want ErrSecurityViolation", err)
	}
}

// TestEncryptionDeniedWithoutAuthorization: SetData into an encrypted output
// is refused unless the evaluator was created on the authorized conversion
// path (§3.2 encryption oracle restriction).
func TestEncryptionDeniedWithoutAuthorization(t *testing.T) {
	cek, key, ring := newCEK(t)
	out := rndEnclaveInfo(sqltypes.KindInt, cek)
	conv := &Program{
		Name:    "convert",
		Inputs:  []EncInfo{Plain(sqltypes.KindInt)},
		Outputs: []EncInfo{out},
		Code: []Instr{
			{Op: OpGetData, Arg: 0},
			{Op: OpSetData, Arg: 0},
		},
	}
	ev := NewEnclaveEvaluator(conv, ring, false)
	if _, err := ev.Eval([][]byte{sqltypes.Int(7).Encode()}); !errors.Is(err, ErrEncryptDenied) {
		t.Fatalf("err = %v, want ErrEncryptDenied", err)
	}
	// With authorization the conversion succeeds and round-trips.
	evAuth := NewEnclaveEvaluator(conv, ring, true)
	outs, err := evAuth.Eval([][]byte{sqltypes.Int(7).Encode()})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := key.Decrypt(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sqltypes.Decode(pt)
	if v.I != 7 {
		t.Fatalf("converted value = %v", v)
	}
}

// TestHostCannotDecrypt: a host evaluator given a program with GetData on an
// encrypted slot fails with ErrNoKeys — the host security boundary holds.
func TestHostCannotDecrypt(t *testing.T) {
	cek, key, _ := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindInt, cek)
	leaky := &Program{
		Name:    "leak",
		Inputs:  []EncInfo{info},
		Outputs: []EncInfo{Plain(sqltypes.KindInt)},
		Code:    []Instr{{Op: OpGetData, Arg: 0}, {Op: OpSetData, Arg: 0}},
	}
	ev := NewEnclaveEvaluator(leaky, nil, false) // nil keyring = host boundary
	ct := encryptVal(t, key, sqltypes.Int(1), aecrypto.Randomized)
	if _, err := ev.Eval([][]byte{ct}); !errors.Is(err, ErrNoKeys) {
		t.Fatalf("err = %v, want ErrNoKeys", err)
	}
}

// TestNullSemantics: comparisons with NULL are false; IS NULL works on both
// plaintext and encrypted slots.
func TestNullSemantics(t *testing.T) {
	inputs := []EncInfo{Plain(sqltypes.KindInt), Plain(sqltypes.KindInt)}
	expr := Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: inputs[0]}, R: SlotRef{Slot: 1, Info: inputs[1]}}
	prog, _ := Compile("eq", expr, inputs)
	ev, _ := NewEvaluator(prog, nil, nil)
	got, err := ev.EvalBool([][]byte{nil, sqltypes.Int(1).Encode()})
	if err != nil || got {
		t.Fatalf("NULL = 1 must be false, got %v err %v", got, err)
	}

	isnull := IsNull{X: SlotRef{Slot: 0, Info: inputs[0]}}
	prog2, err := Compile("isnull", isnull, inputs)
	if err != nil {
		t.Fatal(err)
	}
	ev2, _ := NewEvaluator(prog2, nil, nil)
	if got, _ := ev2.EvalBool([][]byte{nil, nil}); !got {
		t.Fatal("IS NULL on empty slot must be true")
	}
	if got, _ := ev2.EvalBool([][]byte{sqltypes.Int(1).Encode(), nil}); got {
		t.Fatal("IS NULL on present slot must be false")
	}
}

// TestBooleanConnectives compiles AND/OR/NOT combinations.
func TestBooleanConnectives(t *testing.T) {
	infos := []EncInfo{Plain(sqltypes.KindInt), Plain(sqltypes.KindInt)}
	a := Cmp{Op: CmpGT, L: SlotRef{Slot: 0, Info: infos[0]}, R: Const{Val: sqltypes.Int(0)}}
	b := Cmp{Op: CmpLT, L: SlotRef{Slot: 1, Info: infos[1]}, R: Const{Val: sqltypes.Int(10)}}
	expr := And{L: a, R: Not{X: Or{L: b, R: b}}}
	prog, err := Compile("bool", expr, infos)
	if err != nil {
		t.Fatal(err)
	}
	ev, _ := NewEvaluator(prog, nil, nil)
	// slot0 > 0 AND NOT(slot1 < 10 OR slot1 < 10)
	got, err := ev.EvalBool([][]byte{sqltypes.Int(5).Encode(), sqltypes.Int(20).Encode()})
	if err != nil || !got {
		t.Fatalf("got %v err %v", got, err)
	}
	got, _ = ev.EvalBool([][]byte{sqltypes.Int(5).Encode(), sqltypes.Int(5).Encode()})
	if got {
		t.Fatal("expected false")
	}
}

// TestSerializeRoundTrip: programs survive serialization — the deep-copy
// mechanism that ships sub-programs into the enclave.
func TestSerializeRoundTrip(t *testing.T) {
	cek := "K"
	info := rndEnclaveInfo(sqltypes.KindString, cek)
	expr := And{
		L: Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}},
		R: Cmp{Op: CmpGT, L: SlotRef{Slot: 2, Info: Plain(sqltypes.KindInt)}, R: Const{Val: sqltypes.Int(3)}},
	}
	prog, err := Compile("mix", expr, []EncInfo{info, info, Plain(sqltypes.KindInt)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Deserialize(prog.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(prog), normalize(got)) {
		t.Fatalf("roundtrip mismatch:\n%+v\nvs\n%+v", prog, got)
	}
}

// normalize nils out empty-vs-nil slice differences for DeepEqual.
func normalize(p *Program) *Program {
	q := *p
	if len(q.Subs) == 0 {
		q.Subs = nil
	}
	return &q
}

func TestDeserializeRejectsGarbage(t *testing.T) {
	cases := [][]byte{nil, {1}, {0xE5, 0xC0}, bytes.Repeat([]byte{0xff}, 64)}
	for i, c := range cases {
		if _, err := Deserialize(c); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
	// Truncations of a valid program must all be rejected.
	info := Plain(sqltypes.KindInt)
	prog, _ := Compile("x", Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: Const{Val: sqltypes.Int(1)}}, []EncInfo{info})
	ser := prog.Serialize()
	for n := 0; n < len(ser); n++ {
		if _, err := Deserialize(ser[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

// Property: serialize∘deserialize is the identity on compiled programs over
// random comparison shapes.
func TestQuickSerializeRoundTrip(t *testing.T) {
	prop := func(opRaw uint8, det bool, slotKind uint8) bool {
		op := CompOp(opRaw % 6)
		kind := sqltypes.KindInt
		if slotKind%2 == 1 {
			kind = sqltypes.KindString
		}
		var info EncInfo
		if det {
			if op != CmpEQ && op != CmpNE {
				return true // DET admits only equality; skip
			}
			info = detInfo(kind, "K")
		} else {
			info = rndEnclaveInfo(kind, "K")
		}
		expr := Cmp{Op: op, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}
		prog, err := Compile("q", expr, []EncInfo{info, info})
		if err != nil {
			return false
		}
		got, err := Deserialize(prog.Serialize())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(prog), normalize(got))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for random int pairs, enclave evaluation over RND ciphertext
// agrees with plaintext comparison for every operator.
func TestQuickEnclaveComparisonAgreesWithPlaintext(t *testing.T) {
	cek, key, ring := newCEK(t)
	info := rndEnclaveInfo(sqltypes.KindInt, cek)
	evs := make([]*Evaluator, 6)
	encl := &fakeEnclave{keys: ring}
	for op := 0; op < 6; op++ {
		expr := Cmp{Op: CompOp(op), L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}
		prog, err := Compile("q", expr, []EncInfo{info, info})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(prog, nil, encl)
		if err != nil {
			t.Fatal(err)
		}
		evs[op] = ev
	}
	prop := func(a, b int64, opRaw uint8) bool {
		op := CompOp(opRaw % 6)
		ctA := encryptVal(t, key, sqltypes.Int(a), aecrypto.Randomized)
		ctB := encryptVal(t, key, sqltypes.Int(b), aecrypto.Randomized)
		got, err := evs[op].EvalBool([][]byte{ctA, ctB})
		if err != nil {
			return false
		}
		c, _ := sqltypes.Compare(sqltypes.Int(a), sqltypes.Int(b))
		return got == op.apply(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHostDETEquality(b *testing.B) {
	cek, key, _ := newCEK(b)
	info := detInfo(sqltypes.KindString, cek)
	expr := Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}
	prog, _ := Compile("det", expr, []EncInfo{info, info})
	ev, _ := NewEvaluator(prog, nil, nil)
	x := encryptVal(b, key, sqltypes.Str("SMITH"), aecrypto.Deterministic)
	y := encryptVal(b, key, sqltypes.Str("SMITH"), aecrypto.Deterministic)
	in := [][]byte{x, y}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalBool(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnclaveRNDEquality(b *testing.B) {
	cek, key, ring := newCEK(b)
	info := rndEnclaveInfo(sqltypes.KindString, cek)
	expr := Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}}
	prog, _ := Compile("rnd", expr, []EncInfo{info, info})
	encl := &fakeEnclave{keys: ring}
	ev, _ := NewEvaluator(prog, nil, encl)
	x := encryptVal(b, key, sqltypes.Str("SMITH"), aecrypto.Randomized)
	y := encryptVal(b, key, sqltypes.Str("SMITH"), aecrypto.Randomized)
	in := [][]byte{x, y}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalBool(in); err != nil {
			b.Fatal(err)
		}
	}
}
