package exprsvc

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"alwaysencrypted/internal/sqltypes"
)

// TestDeserializeNeverPanics throws random byte strings and random
// mutations of valid programs at the deserializer: a malicious host must
// not be able to crash the enclave with a crafted serialized expression.
func TestDeserializeNeverPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Deserialize panicked: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(11))
	// Pure garbage.
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		_, _ = Deserialize(b)
	}
	// Mutations of a valid serialized program.
	info := Plain(sqltypes.KindInt)
	prog, err := Compile("fuzz", Cmp{Op: CmpLT,
		L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}},
		[]EncInfo{info, info})
	if err != nil {
		t.Fatal(err)
	}
	ser := prog.Serialize()
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), ser...)
		for j := 0; j < 1+rng.Intn(4); j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		p, err := Deserialize(mut)
		if err != nil || p == nil {
			continue
		}
		// If it deserialized, evaluating it must not panic either (the
		// enclave additionally wraps evaluation in a fault handler, but the
		// stack machine itself should fail cleanly).
		func() {
			defer func() { recover() }()
			ev := NewEnclaveEvaluator(p, nil, false)
			_, _ = ev.Eval([][]byte{sqltypes.Int(1).Encode(), sqltypes.Int(2).Encode()})
		}()
	}
}

// TestEvalRejectsWrongInputCount: slot-count mismatches error cleanly.
func TestEvalRejectsWrongInputCount(t *testing.T) {
	info := Plain(sqltypes.KindInt)
	prog, _ := Compile("n", Cmp{Op: CmpEQ,
		L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}},
		[]EncInfo{info, info})
	ev, _ := NewEvaluator(prog, nil, nil)
	if _, err := ev.Eval([][]byte{sqltypes.Int(1).Encode()}); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := ev.Eval(nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

// BenchmarkExprRegistration measures the §3 registration path (serialize +
// deserialize + handle) that the plan cache amortizes away: registering on
// every call would add this to each expression evaluation.
func BenchmarkExprRegistration(b *testing.B) {
	cek := "K"
	info := EncInfo{Kind: sqltypes.KindInt, Enc: sqltypes.EncType{
		Scheme: sqltypes.SchemeRandomized, CEKName: cek, EnclaveEnabled: true}}
	prog, err := Compile("bench", Cmp{Op: CmpEQ,
		L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}},
		[]EncInfo{info, info})
	if err != nil {
		b.Fatal(err)
	}
	sub := prog.Subs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Deserialize(sub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramSerialize measures the compile-time serialization cost.
func BenchmarkProgramSerialize(b *testing.B) {
	info := Plain(sqltypes.KindString)
	prog, _ := Compile("s", And{
		L: Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: info}, R: SlotRef{Slot: 1, Info: info}},
		R: LikeExpr{Input: SlotRef{Slot: 0, Info: info}, Pattern: Const{Val: sqltypes.Str("A%")}},
	}, []EncInfo{info, info})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = prog.Serialize()
	}
}

// allocatedBy reports the bytes fn allocates on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDeserializeProgram: the enclave's decoder for programs the host hands
// it. No input panics, allocates beyond a small multiple of its length, or
// decodes to a program that serializes differently.
func FuzzDeserializeProgram(f *testing.F) {
	str, num := Plain(sqltypes.KindString), Plain(sqltypes.KindInt)
	rnd := EncInfo{Kind: sqltypes.KindInt, Enc: sqltypes.EncType{
		Scheme: sqltypes.SchemeRandomized, CEKName: "K", EnclaveEnabled: true}}
	for _, c := range []struct {
		expr   Expr
		inputs []EncInfo
	}{
		{Cmp{Op: CmpEQ, L: SlotRef{Slot: 0, Info: rnd}, R: SlotRef{Slot: 1, Info: rnd}}, []EncInfo{rnd, rnd}},
		{And{
			L: Cmp{Op: CmpGT, L: SlotRef{Slot: 0, Info: num}, R: Const{Val: sqltypes.Int(3)}},
			R: LikeExpr{Input: SlotRef{Slot: 1, Info: str}, Pattern: Const{Val: sqltypes.Str("A%")}},
		}, []EncInfo{num, str}},
	} {
		prog, err := Compile("seed", c.expr, c.inputs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prog.Serialize())
		for _, sub := range prog.Subs {
			f.Add(sub)
		}
	}
	f.Add([]byte{0xE5, 0xC0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		var p *Program
		var err error
		if n := allocatedBy(func() { p, err = Deserialize(b) }); n > 64<<10+32*uint64(len(b)) {
			t.Fatalf("deserializing %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		if again := p.Serialize(); !bytes.Equal(again, b) {
			t.Fatalf("deserialize/serialize changed the program: %x -> %x", b, again)
		}
	})
}
