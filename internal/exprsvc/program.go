package exprsvc

import (
	"bytes"
	"errors"

	"alwaysencrypted/internal/sqltypes"
	"alwaysencrypted/internal/wire"
)

// Opcode enumerates stack machine instructions. GetData/SetData move data on
// and off the stack and are the only points where decryption and encryption
// happen (§4.4.1); TMEval invokes an enclave computation and exists only in
// host programs (§4.4).
type Opcode uint8

const (
	OpGetData Opcode = iota // push input slot Arg, decrypting per its EncInfo
	OpGetRaw                // push input slot Arg as raw VARBINARY (DET equality path)
	OpConst                 // push the constant Val
	OpComp                  // pop b, a; push a OP b (Cmp operator in Arg)
	OpLike                  // pop pattern, s; push s LIKE pattern
	OpAnd                   // pop b, a; push a AND b
	OpOr                    // pop b, a; push a OR b
	OpNot                   // pop a; push NOT a
	OpIsNull                // pop a; push a IS NULL
	OpSetData               // pop a; write to output slot Arg, encrypting per its EncInfo
	OpTMEval                // host only: evaluate enclave sub-program Arg on slots InSlots
)

// opcodeNames indexes Opcode; String feeds per-opcode instrument names.
var opcodeNames = [...]string{
	OpGetData: "get_data", OpGetRaw: "get_raw", OpConst: "const",
	OpComp: "comp", OpLike: "like", OpAnd: "and", OpOr: "or", OpNot: "not",
	OpIsNull: "is_null", OpSetData: "set_data", OpTMEval: "tm_eval",
}

// String returns the opcode's stable lower-case name.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return "unknown"
}

// Instr is one stack machine instruction.
type Instr struct {
	Op      Opcode
	Arg     int            // slot index, comparison op, or sub-program index
	Val     sqltypes.Value // for OpConst
	InSlots []int          // for OpTMEval: host slots forwarded to the enclave
}

// Program is the compiled stack program — the analog of CEsComp. Inputs and
// Outputs describe the slot encodings; Subs holds serialized enclave
// sub-programs stored inline as byte streams, implementing the deep-copy
// semantics of §4.4: the enclave reconstructs its own copy so the host
// cannot tamper with a shared object during evaluation.
type Program struct {
	Name    string
	Inputs  []EncInfo
	Outputs []EncInfo
	Code    []Instr
	Subs    [][]byte
}

// Errors from program (de)serialization and validation.
var (
	ErrBadProgram = errors.New("exprsvc: malformed serialized program")
)

const programMagic = 0xE5C0

// Serialize encodes the program into a self-contained byte stream: the
// magic, then every field in declaration order, lists behind u16 counts.
func (p *Program) Serialize() []byte {
	b := wire.AppendU16(nil, programMagic)
	b = wire.AppendString(b, p.Name)
	b = appendEncInfos(b, p.Inputs)
	b = appendEncInfos(b, p.Outputs)
	b = wire.AppendU16(b, uint16(len(p.Code)))
	for _, in := range p.Code {
		b = append(b, byte(in.Op))
		b = wire.AppendU32(b, uint32(in.Arg))
		b = wire.AppendBytes(b, in.Val.Encode())
		b = wire.AppendU16(b, uint16(len(in.InSlots)))
		for _, s := range in.InSlots {
			b = wire.AppendU32(b, uint32(s))
		}
	}
	b = wire.AppendU16(b, uint16(len(p.Subs)))
	for _, s := range p.Subs {
		b = wire.AppendBytes(b, s)
	}
	return b
}

func appendEncInfos(b []byte, infos []EncInfo) []byte {
	b = wire.AppendU16(b, uint16(len(infos)))
	for _, e := range infos {
		b = append(b, byte(e.Kind), byte(e.Enc.Scheme))
		b = wire.AppendBool(b, e.Enc.EnclaveEnabled)
		b = wire.AppendString(b, e.Enc.CEKName)
	}
	return b
}

// Deserialize reconstructs a Program from a byte stream produced by
// Serialize. The enclave uses this to rebuild its own private copy of the
// expression object: sub-programs are copied out of b, so the host cannot
// change them under the enclave afterwards.
func Deserialize(b []byte) (*Program, error) {
	r := wire.NewReader(b, ErrBadProgram)
	if r.U16() != programMagic {
		r.Fail("bad magic")
	}
	p := &Program{Name: r.String()}
	p.Inputs = readEncInfos(&r)
	p.Outputs = readEncInfos(&r)
	p.Code = make([]Instr, r.Count16(11))
	for i := range p.Code {
		in := &p.Code[i]
		in.Op = Opcode(r.U8())
		in.Arg = int(r.U32())
		if vb := r.Bytes(); vb != nil {
			// One encoding per program: a constant must re-encode to its bytes.
			var err error
			if in.Val, err = sqltypes.Decode(vb); err != nil || !bytes.Equal(in.Val.Encode(), vb) {
				r.Fail("constant of instruction %d", i)
			}
		}
		if m := r.Count16(4); m > 0 {
			in.InSlots = make([]int, m)
			for j := range in.InSlots {
				in.InSlots[j] = int(r.U32())
			}
		}
	}
	for n := r.Count16(4); n > 0; n-- {
		p.Subs = append(p.Subs, bytes.Clone(r.Bytes()))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return p, nil
}

func readEncInfos(r *wire.Reader) []EncInfo {
	out := make([]EncInfo, r.Count16(7))
	for i := range out {
		out[i].Kind = sqltypes.Kind(r.U8())
		out[i].Enc.Scheme = sqltypes.EncScheme(r.U8())
		out[i].Enc.EnclaveEnabled = r.Bool()
		out[i].Enc.CEKName = r.String()
	}
	return out
}
