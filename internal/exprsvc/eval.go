package exprsvc

import (
	"bytes"
	"errors"
	"fmt"

	"alwaysencrypted/internal/aecrypto"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
)

// KeyRing resolves CEK names to derived cell keys. Only trusted components
// (the enclave, the client driver) implement a KeyRing over real key
// material; host-side evaluation runs with a nil KeyRing and therefore can
// never decrypt.
type KeyRing interface {
	CellKey(name string) (*aecrypto.CellKey, error)
}

// EnclaveCaller abstracts the host→enclave invocation used by TMEval. The
// expression is registered once and subsequently invoked by handle,
// matching the registration pattern of §3. EvalExpressionBatch runs the
// same registered expression over many rows in one boundary crossing
// (§4.6 amortization): per-row outputs and errors line up with the input
// rows, while the second error reports call-level failures that sink the
// whole batch.
type EnclaveCaller interface {
	RegisterExpression(serialized []byte) (uint64, error)
	EvalExpression(handle uint64, inputs [][]byte) ([][]byte, error)
	EvalExpressionBatch(handle uint64, rows [][][]byte) ([][][]byte, []error, error)
}

// Evaluation errors.
var (
	ErrNoKeys            = errors.New("exprsvc: evaluation requires keys that are not available in this security boundary")
	ErrSecurityViolation = errors.New("exprsvc: security check failed: operands with different encryption provenance cannot be compared")
	ErrEncryptDenied     = errors.New("exprsvc: program attempted encryption without authorization")
	ErrStack             = errors.New("exprsvc: stack machine error")
)

// entry is a stack cell: the value plus its encryption provenance label. The
// label travels with decrypted values so the enclave can enforce that, for
// instance, a value decrypted under one CEK is never compared against a
// plaintext constant or a value under another CEK (§4.4.1 security checks).
type entry struct {
	v     sqltypes.Value
	label sqltypes.EncType
}

// Evaluator is the executable form of a Program — the CEsExec analog. It is
// not safe for concurrent use; query operators own one evaluator each.
type Evaluator struct {
	prog    *Program
	keys    KeyRing
	encl    EnclaveCaller
	handles []uint64
	// allowEncrypt gates SetData into encrypted outputs; only the enclave's
	// authorized type-conversion path enables it (§3.2 encryption oracle).
	allowEncrypt bool
	stack        []entry
	outs         [][]byte
	// cellKeys caches resolved keys per CEK name for the evaluator lifetime.
	// The entries are borrowed aliases: KeyRing.CellKey returns pointers into
	// the ring's own cache, and the ring's owner (enclave CEK table, driver
	// cache) zeroizes them on eviction/teardown. Zeroizing here would wipe
	// keys still live in the owner.
	//aelint:ignore secretretain reason=aliases owned by the KeyRing; its owner zeroizes them on evict/teardown
	cellKeys map[string]*aecrypto.CellKey
	// memo, non-empty only between BeginCrossing and EndCrossing, remembers
	// per input slot the ciphertext getData last decrypted and the value it
	// decoded to, so a cell repeated down a batch — a statement's parameter —
	// is decrypted once per crossing instead of once per row.
	memo []slotMemo
	// crossing is set between BeginCrossing and EndCrossing. Inside a
	// crossing getData opens cells through openers, one per cell key, made
	// on first use and retired by EndCrossing: a crossing schedules each
	// key once instead of once per cell, and no opener outlives it.
	crossing bool
	openers  []keyOpener
	// arena is the plaintext buffer getData decrypts into inside a
	// crossing. EndCrossing wipes it; its storage is reused by the next.
	arena []byte
	// act, when non-nil, receives one "enclave.crossing" span per
	// host→enclave boundary crossing. Installed by the engine around each
	// statement (SetTrace) and cleared before the evaluator returns to its
	// pool, so trace state never leaks across statements.
	act *trace.Active
	// subOps caches per-sub-program opcode tallies for crossing-span
	// attributes, decoded lazily (only when tracing) and reused for the
	// evaluator's lifetime — the sub-programs are immutable.
	subOps [][]trace.Attr
}

// keyOpener is a crossing's opener for one cell key.
type keyOpener struct {
	key *aecrypto.CellKey
	op  *aecrypto.Opener
}

// slotMemo is one input slot's remembered decryption. ct is the evaluator's
// own copy of the ciphertext it opened — the caller's cell is host memory,
// which the host may rewrite between rows — and is matched by content.
type slotMemo struct {
	ct []byte
	v  sqltypes.Value
}

// BeginCrossing tells an enclave-side evaluator that the Eval calls up to
// EndCrossing serve one boundary crossing, which lets getData reuse what it
// decrypted for an earlier row of the same crossing. Outputs, per-row errors
// and NULL semantics are those of unrelated Eval calls.
func (ev *Evaluator) BeginCrossing() {
	if cap(ev.memo) == 0 {
		ev.memo = make([]slotMemo, len(ev.prog.Inputs))
	}
	ev.memo = ev.memo[:cap(ev.memo)]
	ev.crossing = true
}

// EndCrossing forgets everything BeginCrossing allowed the evaluator to
// remember: no decrypted value outlives the crossing that produced it. It
// retires the crossing's openers and wipes the plaintext arena.
func (ev *Evaluator) EndCrossing() {
	clear(ev.memo)
	ev.memo = ev.memo[:0]
	for _, ko := range ev.openers {
		ko.op.Zeroize()
	}
	clear(ev.openers)
	ev.openers = ev.openers[:0]
	aecrypto.Zeroize(ev.arena[:cap(ev.arena)])
	ev.crossing = false
}

// open decrypts cell under the named CEK. Inside a crossing it uses the
// crossing's opener for the key and decrypts into the evaluator's arena, so
// the plaintext is valid until the next open; outside one it is the
// one-shot Decrypt. Either way the caller wipes the plaintext it is done
// with.
func (ev *Evaluator) open(cek string, cell []byte) ([]byte, error) {
	key, err := ev.cellKey(cek)
	if err != nil {
		return nil, err
	}
	if !ev.crossing {
		return key.Decrypt(cell)
	}
	var op *aecrypto.Opener
	for _, ko := range ev.openers {
		if ko.key == key {
			op = ko.op
			break
		}
	}
	if op == nil {
		if op, err = key.NewOpener(); err != nil {
			return nil, err
		}
		ev.openers = append(ev.openers, keyOpener{key: key, op: op})
	}
	pt, err := op.Open(ev.arena, cell)
	if err != nil {
		return nil, err
	}
	ev.arena = pt
	return pt, nil
}

// SetTrace installs (act non-nil) or clears (nil) the statement trace that
// enclave boundary crossings report into. The engine owns the call pairing;
// the evaluator itself never retains a trace past a statement.
func (ev *Evaluator) SetTrace(act *trace.Active) { ev.act = act }

// crossingSpan opens an "enclave.crossing" span for one boundary crossing of
// sub-program sub over rows rows, attaching the row count and the enclave
// program's per-opcode instruction tallies. Attributes are counts only —
// never operand bytes or values — per the trace leakage contract.
func (ev *Evaluator) crossingSpan(sub, rows int) trace.SpanRef {
	if ev.act == nil {
		return trace.SpanRef{}
	}
	sp := ev.act.StartSpan("enclave.crossing")
	sp.Attr("rows", int64(rows))
	for _, a := range ev.opTallies(sub) {
		sp.Attr(a.Key, a.Value)
	}
	return sp
}

// opTallies returns (computing once) the opcode histogram of enclave
// sub-program sub as span attributes named "op.<opcode>".
func (ev *Evaluator) opTallies(sub int) []trace.Attr {
	if ev.subOps == nil {
		ev.subOps = make([][]trace.Attr, len(ev.prog.Subs))
	}
	if sub < 0 || sub >= len(ev.subOps) {
		return nil
	}
	if ev.subOps[sub] == nil {
		var counts [len(opcodeNames)]int64
		if p, err := Deserialize(ev.prog.Subs[sub]); err == nil {
			for i := range p.Code {
				if op := p.Code[i].Op; int(op) < len(counts) {
					counts[op]++
				}
			}
		}
		attrs := make([]trace.Attr, 0, 4)
		for op, c := range counts {
			if c > 0 {
				attrs = append(attrs, trace.Attr{Key: "op." + Opcode(op).String(), Value: c})
			}
		}
		ev.subOps[sub] = attrs
	}
	return ev.subOps[sub]
}

// NewEvaluator prepares a program for execution. If the program contains
// enclave sub-programs they are registered with the caller now, so the hot
// Eval path only passes handles.
func NewEvaluator(prog *Program, keys KeyRing, encl EnclaveCaller) (*Evaluator, error) {
	ev := &Evaluator{prog: prog, keys: keys, encl: encl}
	if len(prog.Subs) > 0 {
		if encl == nil {
			return nil, errors.New("exprsvc: program requires an enclave but no caller provided")
		}
		ev.handles = make([]uint64, len(prog.Subs))
		for i, sub := range prog.Subs {
			h, err := encl.RegisterExpression(sub)
			if err != nil {
				return nil, fmt.Errorf("exprsvc: registering enclave expression: %w", err)
			}
			ev.handles[i] = h
		}
	}
	return ev, nil
}

// NewEnclaveEvaluator prepares a deserialized sub-program for execution
// inside the enclave, with access to session keys and (when authorized)
// encryption of outputs.
func NewEnclaveEvaluator(prog *Program, keys KeyRing, allowEncrypt bool) *Evaluator {
	return &Evaluator{prog: prog, keys: keys, allowEncrypt: allowEncrypt}
}

// Program returns the underlying compiled program.
func (ev *Evaluator) Program() *Program { return ev.prog }

func (ev *Evaluator) cellKey(name string) (*aecrypto.CellKey, error) {
	if ev.keys == nil {
		return nil, ErrNoKeys
	}
	if k, ok := ev.cellKeys[name]; ok {
		return k, nil
	}
	k, err := ev.keys.CellKey(name)
	if err != nil {
		return nil, err
	}
	if ev.cellKeys == nil {
		ev.cellKeys = make(map[string]*aecrypto.CellKey)
	}
	ev.cellKeys[name] = k
	return k, nil
}

func (ev *Evaluator) push(e entry) { ev.stack = append(ev.stack, e) }

func (ev *Evaluator) pop() (entry, error) {
	if len(ev.stack) == 0 {
		return entry{}, ErrStack
	}
	e := ev.stack[len(ev.stack)-1]
	ev.stack = ev.stack[:len(ev.stack)-1]
	return e, nil
}

// Eval runs the program over the input slots and returns the output slots.
// Input slot bytes are ciphertext envelopes for encrypted slots and canonical
// value encodings for plaintext slots; an empty slot is SQL NULL. The
// returned slices are valid until the next Eval call.
func (ev *Evaluator) Eval(inputs [][]byte) ([][]byte, error) {
	return ev.evalRow(inputs, nil)
}

// evalRow interprets the program over one row. tm, when non-nil, resolves
// the result of the TMEval instruction at a given pc instead of a live
// enclave call — EvalBatch pre-computes those results one batch at a time.
// The program is straight-line (no branches), so every TMEval executes
// exactly once per row and hoisting is semantics-preserving.
func (ev *Evaluator) evalRow(inputs [][]byte, tm func(pc int) ([][]byte, error)) ([][]byte, error) {
	if len(inputs) != len(ev.prog.Inputs) {
		return nil, fmt.Errorf("%w: %d inputs for %d slots", ErrStack, len(inputs), len(ev.prog.Inputs))
	}
	ev.stack = ev.stack[:0]
	if cap(ev.outs) < len(ev.prog.Outputs) {
		ev.outs = make([][]byte, len(ev.prog.Outputs))
	}
	ev.outs = ev.outs[:len(ev.prog.Outputs)]
	for i := range ev.outs {
		ev.outs[i] = nil
	}

	for pc := range ev.prog.Code {
		in := &ev.prog.Code[pc]
		switch in.Op {
		case OpGetData:
			if err := ev.getData(in.Arg, inputs); err != nil {
				return nil, err
			}
		case OpGetRaw:
			if err := ev.getRaw(in.Arg, inputs); err != nil {
				return nil, err
			}
		case OpConst:
			ev.push(entry{v: in.Val, label: sqltypes.PlaintextType})
		case OpComp:
			if err := ev.compare(CompOp(in.Arg)); err != nil {
				return nil, err
			}
		case OpLike:
			if err := ev.like(); err != nil {
				return nil, err
			}
		case OpAnd, OpOr:
			b, err := ev.pop()
			if err != nil {
				return nil, err
			}
			a, err := ev.pop()
			if err != nil {
				return nil, err
			}
			x, y := truthy(a.v), truthy(b.v)
			var r bool
			if in.Op == OpAnd {
				r = x && y
			} else {
				r = x || y
			}
			ev.push(entry{v: sqltypes.Bool(r), label: sqltypes.PlaintextType})
		case OpNot:
			a, err := ev.pop()
			if err != nil {
				return nil, err
			}
			ev.push(entry{v: sqltypes.Bool(!truthy(a.v)), label: sqltypes.PlaintextType})
		case OpIsNull:
			a, err := ev.pop()
			if err != nil {
				return nil, err
			}
			ev.push(entry{v: sqltypes.Bool(a.v.IsNull()), label: sqltypes.PlaintextType})
		case OpSetData:
			if err := ev.setData(in.Arg); err != nil {
				return nil, err
			}
		case OpTMEval:
			if tm != nil {
				outs, err := tm(pc)
				if err != nil {
					return nil, err
				}
				if err := ev.tmPush(outs); err != nil {
					return nil, err
				}
			} else if err := ev.tmEval(in, inputs); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: opcode %d", ErrStack, in.Op)
		}
	}
	return ev.outs, nil
}

// EvalBool runs the program and decodes output slot 0 as a boolean — the
// common filter-predicate shape.
func (ev *Evaluator) EvalBool(inputs [][]byte) (bool, error) {
	outs, err := ev.Eval(inputs)
	if err != nil {
		return false, err
	}
	if len(outs) == 0 || len(outs[0]) == 0 {
		return false, nil
	}
	v, err := sqltypes.Decode(outs[0])
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

func truthy(v sqltypes.Value) bool {
	return v.Kind == sqltypes.KindBool && v.Bool_
}

// getData pushes input slot i, decrypting at ingress when the slot's type
// annotation says it is encrypted (§4.4.1).
func (ev *Evaluator) getData(i int, inputs [][]byte) error {
	if i < 0 || i >= len(inputs) {
		return fmt.Errorf("%w: GetData slot %d", ErrStack, i)
	}
	info := ev.prog.Inputs[i]
	raw := inputs[i]
	if len(raw) == 0 {
		ev.push(entry{v: sqltypes.Null(), label: info.Enc})
		return nil
	}
	if info.Enc.IsPlaintext() {
		v, err := sqltypes.Decode(raw)
		if err != nil {
			return err
		}
		ev.push(entry{v: v, label: sqltypes.PlaintextType})
		return nil
	}
	if i < len(ev.memo) && bytes.Equal(ev.memo[i].ct, raw) {
		ev.push(entry{v: ev.memo[i].v, label: info.Enc})
		return nil
	}
	pt, err := ev.open(info.Enc.CEKName, raw)
	if err != nil {
		return err
	}
	v, err := sqltypes.Decode(pt)
	aecrypto.Zeroize(pt)
	if err != nil {
		return err
	}
	if i < len(ev.memo) {
		m := &ev.memo[i]
		m.ct, m.v = append(m.ct[:0], raw...), v
	}
	ev.push(entry{v: v, label: info.Enc})
	return nil
}

// getRaw pushes the slot bytes untouched as VARBINARY, preserving the slot's
// encryption label so DET-vs-DET raw equality passes the security check
// while DET-vs-plaintext does not.
func (ev *Evaluator) getRaw(i int, inputs [][]byte) error {
	if i < 0 || i >= len(inputs) {
		return fmt.Errorf("%w: GetRaw slot %d", ErrStack, i)
	}
	raw := inputs[i]
	if len(raw) == 0 {
		ev.push(entry{v: sqltypes.Null(), label: ev.prog.Inputs[i].Enc})
		return nil
	}
	ev.push(entry{v: sqltypes.Bytes(raw), label: ev.prog.Inputs[i].Enc})
	return nil
}

func (ev *Evaluator) compare(op CompOp) error {
	b, err := ev.pop()
	if err != nil {
		return err
	}
	a, err := ev.pop()
	if err != nil {
		return err
	}
	if a.label != b.label {
		return ErrSecurityViolation
	}
	if a.v.IsNull() || b.v.IsNull() {
		ev.push(entry{v: sqltypes.Bool(false), label: sqltypes.PlaintextType})
		return nil
	}
	c, err := sqltypes.Compare(a.v, b.v)
	if err != nil {
		return err
	}
	ev.push(entry{v: sqltypes.Bool(op.apply(c)), label: sqltypes.PlaintextType})
	return nil
}

func (ev *Evaluator) like() error {
	pat, err := ev.pop()
	if err != nil {
		return err
	}
	s, err := ev.pop()
	if err != nil {
		return err
	}
	if s.label != pat.label {
		return ErrSecurityViolation
	}
	if s.v.IsNull() || pat.v.IsNull() {
		ev.push(entry{v: sqltypes.Bool(false), label: sqltypes.PlaintextType})
		return nil
	}
	if s.v.Kind != sqltypes.KindString || pat.v.Kind != sqltypes.KindString {
		return fmt.Errorf("%w: LIKE requires strings", sqltypes.ErrTypeMismatch)
	}
	ev.push(entry{v: sqltypes.Bool(sqltypes.Like(s.v.S, pat.v.S)), label: sqltypes.PlaintextType})
	return nil
}

// setData pops the stack into output slot i, encrypting at egress when the
// output annotation requires it — permitted only for authorized programs.
func (ev *Evaluator) setData(i int) error {
	if i < 0 || i >= len(ev.outs) {
		return fmt.Errorf("%w: SetData slot %d", ErrStack, i)
	}
	e, err := ev.pop()
	if err != nil {
		return err
	}
	info := ev.prog.Outputs[i]
	if e.v.IsNull() {
		ev.outs[i] = nil
		return nil
	}
	encoded := e.v.Encode()
	if info.Enc.IsPlaintext() {
		ev.outs[i] = encoded
		return nil
	}
	if !ev.allowEncrypt {
		return ErrEncryptDenied
	}
	key, err := ev.cellKey(info.Enc.CEKName)
	if err != nil {
		return err
	}
	typ := aecrypto.Randomized
	if info.Enc.Scheme == sqltypes.SchemeDeterministic {
		typ = aecrypto.Deterministic
	}
	ct, err := key.Encrypt(encoded, typ)
	if err != nil {
		return err
	}
	ev.outs[i] = ct
	return nil
}

func (ev *Evaluator) tmEval(in *Instr, inputs [][]byte) error {
	if ev.encl == nil || in.Arg >= len(ev.handles) {
		return errors.New("exprsvc: TMEval without a registered enclave expression")
	}
	args, err := ev.tmArgs(in, inputs)
	if err != nil {
		return err
	}
	sp := ev.crossingSpan(in.Arg, 1)
	outs, err := ev.encl.EvalExpression(ev.handles[in.Arg], args)
	sp.End()
	if err != nil {
		return err
	}
	return ev.tmPush(outs)
}

// tmArgs gathers a TMEval instruction's enclave arguments. They come purely
// from the input slots, never from the host stack — that is what makes
// batch-hoisting the enclave calls sound.
func (ev *Evaluator) tmArgs(in *Instr, inputs [][]byte) ([][]byte, error) {
	args := make([][]byte, len(in.InSlots))
	for j, s := range in.InSlots {
		if s < 0 || s >= len(inputs) {
			return nil, fmt.Errorf("%w: TMEval slot %d", ErrStack, s)
		}
		args[j] = inputs[s]
	}
	return args, nil
}

// tmPush pushes an enclave sub-program's result onto the host stack.
func (ev *Evaluator) tmPush(outs [][]byte) error {
	if len(outs) == 0 {
		return errors.New("exprsvc: enclave returned no outputs")
	}
	if len(outs[0]) == 0 {
		ev.push(entry{v: sqltypes.Null(), label: sqltypes.PlaintextType})
		return nil
	}
	v, err := sqltypes.Decode(outs[0])
	if err != nil {
		return err
	}
	ev.push(entry{v: v, label: sqltypes.PlaintextType})
	return nil
}

// EvalBatch runs the program over N rows of input slots, making one
// EvalExpressionBatch call per TMEval instruction instead of one
// EvalExpression call per row per instruction (§4.6). Per-row results and
// errors line up with rows; rows that fail do not disturb their neighbors.
// The call-level error is non-nil only when the whole batch is lost (e.g.
// the enclave is closed). Returned output slices are owned by the caller.
func (ev *Evaluator) EvalBatch(rows [][][]byte) ([][][]byte, []error, error) {
	results := make([][][]byte, len(rows))
	rowErrs := make([]error, len(rows))
	for i, row := range rows {
		if len(row) != len(ev.prog.Inputs) {
			rowErrs[i] = fmt.Errorf("%w: %d inputs for %d slots", ErrStack, len(row), len(ev.prog.Inputs))
		}
	}

	// Hoist enclave work: for each TMEval pc, gather the still-live rows'
	// arguments and cross the boundary once for all of them.
	var resolved [][][][]byte // [pc][row] → enclave outputs
	for pc := range ev.prog.Code {
		in := &ev.prog.Code[pc]
		if in.Op != OpTMEval {
			continue
		}
		if resolved == nil {
			resolved = make([][][][]byte, len(ev.prog.Code))
		}
		resolved[pc] = make([][][]byte, len(rows))
		if ev.encl == nil || in.Arg >= len(ev.handles) {
			err := errors.New("exprsvc: TMEval without a registered enclave expression")
			for i := range rows {
				if rowErrs[i] == nil {
					rowErrs[i] = err
				}
			}
			continue
		}
		batch := make([][][]byte, 0, len(rows))
		live := make([]int, 0, len(rows))
		for i, row := range rows {
			if rowErrs[i] != nil {
				continue
			}
			args, err := ev.tmArgs(in, row)
			if err != nil {
				rowErrs[i] = err
				continue
			}
			batch = append(batch, args)
			live = append(live, i)
		}
		if len(batch) == 0 {
			continue
		}
		sp := ev.crossingSpan(in.Arg, len(batch))
		outs, errs, err := ev.encl.EvalExpressionBatch(ev.handles[in.Arg], batch)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		if len(outs) != len(batch) || len(errs) != len(batch) {
			return nil, nil, fmt.Errorf("%w: enclave batch returned %d/%d results for %d rows", ErrStack, len(outs), len(errs), len(batch))
		}
		for j, i := range live {
			if errs[j] != nil {
				rowErrs[i] = errs[j]
				continue
			}
			resolved[pc][i] = outs[j]
		}
	}

	for i, row := range rows {
		if rowErrs[i] != nil {
			continue
		}
		outs, err := ev.evalRow(row, func(pc int) ([][]byte, error) {
			return resolved[pc][i], nil
		})
		if err != nil {
			rowErrs[i] = err
			continue
		}
		// ev.outs is reused across rows; the buffers inside are fresh per
		// row, so a shallow copy of the header slice is enough.
		results[i] = append([][]byte(nil), outs...)
	}
	return results, rowErrs, nil
}

// EvalBoolBatch is the batched form of EvalBool: one shared boundary
// crossing per TMEval instruction, output slot 0 decoded per row as the
// filter-predicate truth value.
func (ev *Evaluator) EvalBoolBatch(rows [][][]byte) ([]bool, []error, error) {
	outs, rowErrs, err := ev.EvalBatch(rows)
	if err != nil {
		return nil, nil, err
	}
	matches := make([]bool, len(rows))
	for i := range rows {
		if rowErrs[i] != nil {
			continue
		}
		o := outs[i]
		if len(o) == 0 || len(o[0]) == 0 {
			continue
		}
		v, err := sqltypes.Decode(o[0])
		if err != nil {
			rowErrs[i] = err
			continue
		}
		matches[i] = truthy(v)
	}
	return matches, rowErrs, nil
}
