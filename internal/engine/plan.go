package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"alwaysencrypted/internal/exprsvc"
	"alwaysencrypted/internal/keys"
	"alwaysencrypted/internal/obs/trace"
	"alwaysencrypted/internal/sqltypes"
)

// ParamInfo is the per-parameter output of sp_describe_parameter_encryption
// (§4.1): how the driver must encode and encrypt the parameter.
type ParamInfo struct {
	Name string
	Kind sqltypes.Kind
	Enc  sqltypes.EncType
}

// DescribeResult is the full output of sp_describe_parameter_encryption:
// parameter encryption types, the CEKs the enclave needs, and the key
// metadata (encrypted CEK values and CMK references) the driver uses to
// obtain plaintext CEKs. Attestation info is attached by Session.Describe
// when the query needs the enclave and the client supplied a DH key.
type DescribeResult struct {
	Query        string
	Params       []ParamInfo
	NeedsEnclave bool
	EnclaveCEKs  []string
	CEKs         map[string]keys.CEKMetadata
	CMKs         map[string]keys.CMKMetadata
}

// Plan is a compiled, cached statement (the plan-cache entry of §4.3: the
// results of encryption type deduction are cached with the plan).
type Plan struct {
	query string
	stmt  Stmt
	desc  DescribeResult

	table *Table
	// Combined slot space: [0,numOuterCols) outer columns,
	// [numOuterCols, numColSlots) inner (join) columns,
	// [numColSlots, ...) parameters in paramOrder.
	numOuterCols int
	numColSlots  int
	paramSlot    map[string]int
	paramOrder   []string

	access   accessPath
	filter   *exprsvc.Program
	join     *joinPlan
	items    []projItem
	sets     []compiledSet
	insertTo []insertBinding

	// Host-side evaluators are built with a nil KeyRing — ciphertext-only
	// expression shells whose enclave sub-programs run remotely — so their
	// cellKeys cache is never populated.
	//aelint:ignore secretretain reason=host-side evaluators have nil KeyRing; cellKeys never holds key material
	evalPool sync.Pool
}

// accessPath is the chosen access method for the outer table.
type accessPath struct {
	index   *Index
	host    []bool      // per index component: hostOrdered
	eqVals  []ValueExpr // one per leading index component
	rangeOn int         // component index of the range bound, -1 if none
	rangeOp PredOp
	rangeLo ValueExpr
	rangeHi ValueExpr
}

// joinPlan describes the inner side of a nested-loop equi-join.
type joinPlan struct {
	table      *Table
	outerCol   int // slot of the outer join column
	innerCol   int // column position within the inner table
	innerIndex *Index
	innerHost  []bool // per innerIndex component: hostOrdered
}

// projItem is a resolved projection item.
type projItem struct {
	agg  AggFunc
	slot int // -1 for COUNT(*)
	name string
	kind sqltypes.Kind
	enc  sqltypes.EncType
}

// compiledSet is one UPDATE assignment.
type compiledSet struct {
	colPos int
	expr   ValueExpr
}

// insertBinding maps an INSERT value to a column position.
type insertBinding struct {
	colPos int
	expr   ValueExpr
}

// Planning errors.
var (
	ErrUnknownParam = errors.New("engine: parameter not supplied")
	ErrAmbiguous    = errors.New("engine: ambiguous column reference")
)

// getPlan parses, binds and caches the statement for the query text. Each
// lifecycle phase (lex, parse, bind, plan overall) records its latency; on a
// plan-cache hit only the plan span fires, so the histograms expose the
// cache's effect directly.
func (e *Engine) getPlan(query string, act *trace.Active) (*Plan, error) {
	hsp := e.spanPlan.StartSpan()
	defer hsp.End()

	e.planMu.Lock()
	if p, ok := e.plans[query]; ok {
		e.planMu.Unlock()
		return p, nil
	}
	e.planMu.Unlock()

	lexStart := e.obs.Now()
	lexSp := act.StartSpan("lex")
	toks, err := lexTokens(query)
	lexSp.End()
	if err != nil {
		return nil, err
	}
	e.spanLex.ObserveSince(lexStart)

	parseStart := e.obs.Now()
	parseSp := act.StartSpan("parse")
	stmt, err := parseTokens(query, toks)
	parseSp.End()
	if err != nil {
		return nil, err
	}
	e.spanParse.ObserveSince(parseStart)

	bindStart := e.obs.Now()
	bindSp := act.StartSpan("bind")
	p, err := e.bind(query, stmt)
	bindSp.End()
	if err != nil {
		return nil, err
	}
	e.spanBind.ObserveSince(bindStart)
	// DDL and transaction-control statements are parsed but not cached:
	// re-executing CREATE must re-run, and they carry no deduction state.
	switch stmt.(type) {
	case SelectStmt, InsertStmt, UpdateStmt, DeleteStmt:
		e.planMu.Lock()
		e.plans[query] = p
		e.planMu.Unlock()
	}
	return p, nil
}

// InvalidatePlans drops the plan cache (DDL changing schemas calls this).
func (e *Engine) InvalidatePlans() {
	e.planMu.Lock()
	e.plans = make(map[string]*Plan)
	e.planMu.Unlock()
}

// binder carries the per-statement deduction state.
type binder struct {
	engine *Engine
	plan   *Plan
	ded    *sqltypes.Deduction
	// operand handles
	colOp   map[int]int    // slot -> deduction operand
	paramOp map[string]int // param -> deduction operand
	// param kind inference
	paramKind map[string]sqltypes.Kind
}

func (e *Engine) bind(query string, stmt Stmt) (*Plan, error) {
	p := &Plan{
		query:     query,
		stmt:      stmt,
		paramSlot: make(map[string]int),
		desc: DescribeResult{
			Query: query,
			CEKs:  make(map[string]keys.CEKMetadata),
			CMKs:  make(map[string]keys.CMKMetadata),
		},
	}
	b := &binder{
		engine:    e,
		plan:      p,
		ded:       sqltypes.NewDeduction(),
		colOp:     make(map[int]int),
		paramOp:   make(map[string]int),
		paramKind: make(map[string]sqltypes.Kind),
	}
	var err error
	switch st := stmt.(type) {
	case SelectStmt:
		err = b.bindSelect(st)
	case InsertStmt:
		err = b.bindInsert(st)
	case UpdateStmt:
		err = b.bindUpdate(st)
	case DeleteStmt:
		err = b.bindDelete(st)
	case AlterColumnStmt:
		// Initial encryption / key rotation through the enclave: describe
		// reports the CEKs the enclave needs so the driver attests, installs
		// keys and authorizes the statement before execution (§2.4.2, §3.2).
		addEnclaveCEK := func(spec *EncSpec) error {
			if spec == nil {
				return nil
			}
			enabled, err := e.catalog.EnclaveEnabled(spec.CEK)
			if err != nil {
				return err
			}
			if enabled {
				p.desc.EnclaveCEKs = append(p.desc.EnclaveCEKs, spec.CEK)
				p.desc.NeedsEnclave = true
			}
			return nil
		}
		if err := addEnclaveCEK(st.Enc); err != nil {
			return nil, err
		}
		if tbl, err := e.catalog.Table(st.Table); err == nil {
			if col, err := tbl.Col(st.Column); err == nil && !col.Enc.IsPlaintext() && col.Enc.EnclaveEnabled {
				p.desc.EnclaveCEKs = append(p.desc.EnclaveCEKs, col.Enc.CEKName)
				p.desc.NeedsEnclave = true
			}
		}
		// Attach key metadata so the driver can ship the CEKs.
		for _, name := range p.desc.EnclaveCEKs {
			if err := e.collectKeyMetadata(&p.desc, name); err != nil {
				return nil, err
			}
		}
		return p, nil
	case BeginStmt, CommitStmt, RollbackStmt,
		CreateTableStmt, CreateIndexStmt, CreateCMKStmt, CreateCEKStmt:
		// No binding needed; DDL executes directly.
		return p, nil
	default:
		return nil, fmt.Errorf("engine: cannot bind %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	if err := b.finalize(); err != nil {
		return nil, err
	}
	return p, nil
}

// resolveColumn maps a (possibly qualified) column name to a slot in the
// combined slot space.
func (b *binder) resolveColumn(name string) (int, *Column, error) {
	p := b.plan
	table, col := "", name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		table, col = name[:i], name[i+1:]
	}
	tryTable := func(t *Table, base int) (int, *Column) {
		if t == nil {
			return -1, nil
		}
		if table != "" && !strings.EqualFold(table, t.Name) {
			return -1, nil
		}
		c, err := t.Col(col)
		if err != nil {
			return -1, nil
		}
		return base + c.Pos, c
	}
	var inner *Table
	if p.join != nil {
		inner = p.join.table
	}
	oSlot, oCol := tryTable(p.table, 0)
	iSlot, iCol := tryTable(inner, p.numOuterCols)
	switch {
	case oCol != nil && iCol != nil:
		return 0, nil, fmt.Errorf("%w: %s", ErrAmbiguous, name)
	case oCol != nil:
		return oSlot, oCol, nil
	case iCol != nil:
		return iSlot, iCol, nil
	default:
		return 0, nil, fmt.Errorf("engine: unknown column %q", name)
	}
}

// colOperand returns (creating if needed) the deduction operand of a slot.
func (b *binder) colOperand(slot int, col *Column) int {
	if op, ok := b.colOp[slot]; ok {
		return op
	}
	op := b.ded.AddKnown(col.Name, col.Enc)
	b.colOp[slot] = op
	return op
}

// paramOperand returns (creating if needed) the deduction operand and slot
// of a named parameter.
func (b *binder) paramOperand(name string) int {
	if op, ok := b.paramOp[name]; ok {
		return op
	}
	op := b.ded.AddOperand("@" + name)
	b.paramOp[name] = op
	if _, ok := b.plan.paramSlot[name]; !ok {
		b.plan.paramSlot[name] = -1 // assigned in finalize
		b.plan.paramOrder = append(b.plan.paramOrder, name)
	}
	return op
}

// notePK notes the kind a parameter must be encoded as.
func (b *binder) noteParamKind(name string, kind sqltypes.Kind) {
	if _, ok := b.paramKind[name]; !ok {
		b.paramKind[name] = kind
	}
}

// bindPredicates applies deduction constraints for a WHERE clause.
func (b *binder) bindPredicates(preds []Predicate) error {
	for i := range preds {
		pr := &preds[i]
		slot, col, err := b.resolveColumn(pr.Col)
		if err != nil {
			return err
		}
		colOp := b.colOperand(slot, col)
		var opClass sqltypes.OpClass
		switch pr.Op {
		case PredEQ, PredNE:
			opClass = sqltypes.OpEquality
		case PredLT, PredLE, PredGT, PredGE, PredBetween:
			opClass = sqltypes.OpRange
		case PredLike:
			opClass = sqltypes.OpLike
		case PredIsNull, PredIsNotNull:
			continue // no encryption constraint: NULLs are unencrypted
		}
		if err := b.ded.RequireOp(colOp, opClass); err != nil {
			return err
		}
		for _, v := range []ValueExpr{pr.Val, pr.Val2} {
			if v == nil {
				continue
			}
			switch ve := v.(type) {
			case ParamExpr:
				pOp := b.paramOperand(ve.Name)
				if err := b.ded.RequireEqual(colOp, pOp); err != nil {
					return err
				}
				b.noteParamKind(ve.Name, col.Kind)
			case LiteralExpr:
				if !col.Enc.IsPlaintext() {
					return fmt.Errorf("%w (column %s)", exprsvc.ErrNotParameterized, col.Name)
				}
			default:
				return fmt.Errorf("engine: unsupported predicate operand %T", v)
			}
		}
	}
	return nil
}

func (b *binder) bindSelect(st SelectStmt) error {
	tbl, err := b.engine.catalog.Table(st.Table)
	if err != nil {
		return err
	}
	p := b.plan
	p.table = tbl
	p.numOuterCols = len(tbl.Cols)
	p.numColSlots = p.numOuterCols

	if st.Join != nil {
		inner, err := b.engine.catalog.Table(st.Join.Table)
		if err != nil {
			return err
		}
		p.join = &joinPlan{table: inner}
		p.numColSlots += len(inner.Cols)
		// Resolve join columns and equate their encryption types (equi-join
		// requires the same CEK and scheme, §2.4.3).
		lSlot, lCol, err := b.resolveColumn(st.Join.LeftCol)
		if err != nil {
			return err
		}
		rSlot, rCol, err := b.resolveColumn(st.Join.RightCol)
		if err != nil {
			return err
		}
		// Normalize: outerCol belongs to the outer table.
		outerSlot, innerSlot := lSlot, rSlot
		innerCol := rCol
		if lSlot >= p.numOuterCols {
			outerSlot, innerSlot = rSlot, lSlot
			innerCol = lCol
		}
		if outerSlot >= p.numOuterCols || innerSlot < p.numOuterCols {
			return errors.New("engine: join condition must relate the two FROM tables")
		}
		p.join.outerCol = outerSlot
		p.join.innerCol = innerSlot - p.numOuterCols
		lOp := b.colOperand(lSlot, lCol)
		rOp := b.colOperand(rSlot, rCol)
		if err := b.ded.RequireOp(lOp, sqltypes.OpEquality); err != nil {
			return err
		}
		if err := b.ded.RequireEqual(lOp, rOp); err != nil {
			return err
		}
		// Prefer an index on the inner join column for the probe.
		for _, idx := range p.join.table.Indexes {
			if idx.ColPos[0] == p.join.innerCol && !idx.Tree.Invalidated() {
				p.join.innerIndex, p.join.innerHost = idx, hostOrdered(inner, idx)
				break
			}
		}
		_ = innerCol
	}

	if err := b.bindPredicates(st.Where); err != nil {
		return err
	}

	// Projection items.
	for _, item := range st.Items {
		if item.Star {
			for slot := 0; slot < p.numColSlots; slot++ {
				col := b.slotColumn(slot)
				p.items = append(p.items, projItem{
					agg: AggNone, slot: slot, name: col.Name, kind: col.Kind, enc: col.Enc})
			}
			continue
		}
		if item.Agg == AggCount && item.Col == "*" {
			p.items = append(p.items, projItem{agg: AggCount, slot: -1, name: "count", kind: sqltypes.KindInt})
			continue
		}
		slot, col, err := b.resolveColumn(item.Col)
		if err != nil {
			return err
		}
		pi := projItem{agg: item.Agg, slot: slot, name: col.Name, kind: col.Kind, enc: col.Enc}
		switch item.Agg {
		case AggNone:
		case AggCount:
			pi.kind, pi.enc, pi.name = sqltypes.KindInt, sqltypes.PlaintextType, "count"
		case AggCountDistinct:
			// DET admits distinctness via ciphertext equality; RND does not.
			if col.Enc.Scheme == sqltypes.SchemeRandomized {
				return fmt.Errorf("%w: COUNT(DISTINCT) over RANDOMIZED column %s",
					sqltypes.ErrTypeConflict, col.Name)
			}
			pi.kind, pi.enc, pi.name = sqltypes.KindInt, sqltypes.PlaintextType, "count"
		case AggMin, AggMax, AggSum:
			op := b.colOperand(slot, col)
			if err := b.ded.RequirePlaintext(op); err != nil {
				return err
			}
			if item.Agg == AggSum {
				pi.kind = sqltypes.KindFloat
			}
			pi.name = strings.ToLower(col.Name)
		}
		p.items = append(p.items, pi)
	}

	b.chooseAccess(st.Where)
	return b.compileFilter(st.Where)
}

// slotColumn returns the column metadata of a column slot.
func (b *binder) slotColumn(slot int) *Column {
	p := b.plan
	if slot < p.numOuterCols {
		return &p.table.Cols[slot]
	}
	return &p.join.table.Cols[slot-p.numOuterCols]
}

func (b *binder) bindInsert(st InsertStmt) error {
	tbl, err := b.engine.catalog.Table(st.Table)
	if err != nil {
		return err
	}
	p := b.plan
	p.table = tbl
	p.numOuterCols = len(tbl.Cols)
	p.numColSlots = p.numOuterCols
	for i, colName := range st.Cols {
		col, err := tbl.Col(colName)
		if err != nil {
			return err
		}
		p.insertTo = append(p.insertTo, insertBinding{colPos: col.Pos, expr: st.Vals[i]})
		switch v := st.Vals[i].(type) {
		case ParamExpr:
			colOp := b.colOperand(col.Pos, col)
			pOp := b.paramOperand(v.Name)
			if err := b.ded.RequireEqual(colOp, pOp); err != nil {
				return err
			}
			b.noteParamKind(v.Name, col.Kind)
		case LiteralExpr:
			if !col.Enc.IsPlaintext() && !v.Val.IsNull() {
				return fmt.Errorf("%w (column %s)", exprsvc.ErrNotParameterized, col.Name)
			}
		default:
			return errors.New("engine: INSERT values must be parameters or literals")
		}
	}
	return nil
}

func (b *binder) bindUpdate(st UpdateStmt) error {
	tbl, err := b.engine.catalog.Table(st.Table)
	if err != nil {
		return err
	}
	p := b.plan
	p.table = tbl
	p.numOuterCols = len(tbl.Cols)
	p.numColSlots = p.numOuterCols
	if err := b.bindPredicates(st.Where); err != nil {
		return err
	}
	for _, set := range st.Sets {
		col, err := tbl.Col(set.Col)
		if err != nil {
			return err
		}
		if err := b.bindSetExpr(col, set.Expr); err != nil {
			return err
		}
		p.sets = append(p.sets, compiledSet{colPos: col.Pos, expr: set.Expr})
	}
	b.chooseAccess(st.Where)
	return b.compileFilter(st.Where)
}

// bindSetExpr type-checks a SET right-hand side. A bare parameter can target
// any column (taking the column's encryption type); arithmetic and column
// references require plaintext throughout.
func (b *binder) bindSetExpr(col *Column, expr ValueExpr) error {
	switch v := expr.(type) {
	case ParamExpr:
		colOp := b.colOperand(col.Pos, col)
		pOp := b.paramOperand(v.Name)
		if err := b.ded.RequireEqual(colOp, pOp); err != nil {
			return err
		}
		b.noteParamKind(v.Name, col.Kind)
		return nil
	case LiteralExpr:
		if !col.Enc.IsPlaintext() && !v.Val.IsNull() {
			return fmt.Errorf("%w (column %s)", exprsvc.ErrNotParameterized, col.Name)
		}
		return nil
	case ColExpr, ArithExpr:
		colOp := b.colOperand(col.Pos, col)
		if err := b.ded.RequirePlaintext(colOp); err != nil {
			return fmt.Errorf("engine: arithmetic on encrypted column %s: %w", col.Name, err)
		}
		return b.requirePlaintextExpr(expr)
	default:
		return errors.New("engine: unsupported SET expression")
	}
}

func (b *binder) requirePlaintextExpr(expr ValueExpr) error {
	switch v := expr.(type) {
	case ParamExpr:
		return b.ded.RequirePlaintext(b.paramOperand(v.Name))
	case LiteralExpr:
		return nil
	case ColExpr:
		slot, col, err := b.resolveColumn(v.Name)
		if err != nil {
			return err
		}
		return b.ded.RequirePlaintext(b.colOperand(slot, col))
	case ArithExpr:
		if err := b.requirePlaintextExpr(v.L); err != nil {
			return err
		}
		return b.requirePlaintextExpr(v.R)
	default:
		return errors.New("engine: unsupported expression")
	}
}

func (b *binder) bindDelete(st DeleteStmt) error {
	tbl, err := b.engine.catalog.Table(st.Table)
	if err != nil {
		return err
	}
	p := b.plan
	p.table = tbl
	p.numOuterCols = len(tbl.Cols)
	p.numColSlots = p.numOuterCols
	if err := b.bindPredicates(st.Where); err != nil {
		return err
	}
	b.chooseAccess(st.Where)
	return b.compileFilter(st.Where)
}

// chooseAccess picks the best index for the outer table's predicates: the
// longest chain of leading-component equality predicates, optionally
// extended by one range predicate on the next component where the component
// order admits ranges (plaintext or enclave-ordered; never DET, §2.4.4).
func (b *binder) chooseAccess(preds []Predicate) {
	p := b.plan
	p.access.rangeOn = -1
	best := -1.0
	for _, idx := range p.table.Indexes {
		if idx.Tree.Invalidated() {
			continue
		}
		var eqVals []ValueExpr
		rangeOn := -1
		var rangeOp PredOp
		var rangeLo, rangeHi ValueExpr
		comp := 0
		for ; comp < len(idx.ColPos); comp++ {
			colName := idx.ColNames[comp]
			found := false
			for i := range preds {
				pr := &preds[i]
				if !colMatches(pr.Col, colName) || pr.Op != PredEQ {
					continue
				}
				eqVals = append(eqVals, pr.Val)
				found = true
				break
			}
			if !found {
				break
			}
		}
		// Optional range on the next component.
		if comp < len(idx.ColPos) && idx.RangeCapable[comp] {
			colName := idx.ColNames[comp]
			for i := range preds {
				pr := &preds[i]
				if !colMatches(pr.Col, colName) {
					continue
				}
				switch pr.Op {
				case PredLT, PredLE:
					rangeOn, rangeOp, rangeHi = comp, pr.Op, pr.Val
				case PredGT, PredGE:
					rangeOn, rangeOp, rangeLo = comp, pr.Op, pr.Val
				case PredBetween:
					rangeOn, rangeOp, rangeLo, rangeHi = comp, pr.Op, pr.Val, pr.Val2
				case PredLike:
					// Prefix-match LIKE with a literal pattern becomes a
					// range seek over the keys whose collated text starts
					// with the prefix's — the "LIKE predicate using an
					// index" path of Figure 5. The residual filter
					// re-verifies the exact pattern. Parameterized patterns
					// stay residual: the server cannot extract a prefix
					// from a value it cannot see.
					lit, ok := pr.Val.(LiteralExpr)
					if !ok || lit.Val.Kind != sqltypes.KindString {
						continue
					}
					prefix, isPrefix := sqltypes.HasPrefixPattern(lit.Val.S)
					if !isPrefix || prefix == "" {
						continue
					}
					lo, hi := sqltypes.PrefixKeyRange(prefix)
					rangeOn, rangeOp, rangeLo, rangeHi = comp, PredBetween, keyBound(lo), keyBound(hi)
				default:
					continue
				}
				if rangeOn >= 0 {
					break
				}
			}
		}
		score := float64(len(eqVals))
		if rangeOn >= 0 {
			score += 0.5
		}
		if idx.Unique && len(eqVals) == len(idx.ColPos) {
			score += 10 // full unique match: at most one row
		}
		if score > best && (len(eqVals) > 0 || rangeOn >= 0) {
			best = score
			p.access = accessPath{
				index: idx, host: hostOrdered(p.table, idx), eqVals: eqVals,
				rangeOn: rangeOn, rangeOp: rangeOp, rangeLo: rangeLo, rangeHi: rangeHi,
			}
		}
	}
}

func colMatches(predCol, indexCol string) bool {
	if i := strings.IndexByte(predCol, '.'); i >= 0 {
		predCol = predCol[i+1:]
	}
	return strings.EqualFold(predCol, indexCol)
}

// compileFilter builds the residual predicate program over the combined slot
// space. All predicates are included (index-covered ones are re-verified;
// cheap, and it keeps the filter the single source of truth for matching).
func (b *binder) compileFilter(preds []Predicate) error {
	p := b.plan
	// Assign parameter slots after the column slots.
	for i, name := range p.paramOrder {
		p.paramSlot[name] = p.numColSlots + i
	}
	if len(preds) == 0 && p.join == nil {
		return nil
	}

	infos := make([]exprsvc.EncInfo, p.numColSlots+len(p.paramOrder))
	for slot := 0; slot < p.numColSlots; slot++ {
		col := b.slotColumn(slot)
		infos[slot] = exprsvc.EncInfo{Kind: col.Kind, Enc: col.Enc}
	}
	for _, name := range p.paramOrder {
		enc := b.ded.Resolve(b.paramOp[name])
		kind := b.paramKind[name]
		infos[p.paramSlot[name]] = exprsvc.EncInfo{Kind: kind, Enc: enc}
	}

	var root exprsvc.Expr
	addConj := func(e exprsvc.Expr) {
		if root == nil {
			root = e
		} else {
			root = exprsvc.And{L: root, R: e}
		}
	}
	toOperand := func(v ValueExpr) (exprsvc.Expr, error) {
		switch ve := v.(type) {
		case ParamExpr:
			slot := p.paramSlot[ve.Name]
			return exprsvc.SlotRef{Slot: slot, Info: infos[slot], Name: "@" + ve.Name}, nil
		case LiteralExpr:
			return exprsvc.Const{Val: ve.Val}, nil
		default:
			return nil, errors.New("engine: unsupported operand")
		}
	}

	// Join condition as an equality between the two column slots.
	if p.join != nil {
		l := exprsvc.SlotRef{Slot: p.join.outerCol, Info: infos[p.join.outerCol], Name: "join.l"}
		rSlot := p.numOuterCols + p.join.innerCol
		r := exprsvc.SlotRef{Slot: rSlot, Info: infos[rSlot], Name: "join.r"}
		addConj(exprsvc.Cmp{Op: exprsvc.CmpEQ, L: l, R: r})
	}

	for i := range preds {
		pr := &preds[i]
		slot, col, err := b.resolveColumn(pr.Col)
		if err != nil {
			return err
		}
		colRef := exprsvc.SlotRef{Slot: slot, Info: infos[slot], Name: col.Name}
		switch pr.Op {
		case PredIsNull:
			addConj(exprsvc.IsNull{X: colRef})
			continue
		case PredIsNotNull:
			addConj(exprsvc.Not{X: exprsvc.IsNull{X: colRef}})
			continue
		case PredLike:
			pat, err := toOperand(pr.Val)
			if err != nil {
				return err
			}
			addConj(exprsvc.LikeExpr{Input: colRef, Pattern: pat})
			continue
		case PredBetween:
			lo, err := toOperand(pr.Val)
			if err != nil {
				return err
			}
			hi, err := toOperand(pr.Val2)
			if err != nil {
				return err
			}
			addConj(exprsvc.Cmp{Op: exprsvc.CmpGE, L: colRef, R: lo})
			addConj(exprsvc.Cmp{Op: exprsvc.CmpLE, L: colRef, R: hi})
			continue
		}
		operand, err := toOperand(pr.Val)
		if err != nil {
			return err
		}
		var op exprsvc.CompOp
		switch pr.Op {
		case PredEQ:
			op = exprsvc.CmpEQ
		case PredNE:
			op = exprsvc.CmpNE
		case PredLT:
			op = exprsvc.CmpLT
		case PredLE:
			op = exprsvc.CmpLE
		case PredGT:
			op = exprsvc.CmpGT
		case PredGE:
			op = exprsvc.CmpGE
		}
		addConj(exprsvc.Cmp{Op: op, L: colRef, R: operand})
	}

	if root == nil {
		return nil
	}
	prog, err := exprsvc.Compile(p.query, root, infos)
	if err != nil {
		return err
	}
	p.filter = prog
	return nil
}

// finalize resolves parameter types, collects key metadata and prepares the
// evaluator pool.
func (b *binder) finalize() error {
	p := b.plan
	e := b.engine
	// Assign parameter slots if compileFilter didn't (e.g. INSERT).
	for i, name := range p.paramOrder {
		if p.paramSlot[name] < 0 {
			p.paramSlot[name] = p.numColSlots + i
		}
	}
	for _, name := range p.paramOrder {
		enc := b.ded.Resolve(b.paramOp[name])
		p.desc.Params = append(p.desc.Params, ParamInfo{
			Name: name, Kind: b.paramKind[name], Enc: enc,
		})
	}
	p.desc.EnclaveCEKs = b.ded.EnclaveCEKs()
	p.desc.NeedsEnclave = b.ded.NeedsEnclave()
	addEnclaveCEK := func(cek string) {
		for _, c := range p.desc.EnclaveCEKs {
			if c == cek {
				return
			}
		}
		p.desc.EnclaveCEKs = append(p.desc.EnclaveCEKs, cek)
		p.desc.NeedsEnclave = true
	}
	// Index access over enclave-ordered components also needs those CEKs.
	if p.access.index != nil {
		for _, cek := range p.access.index.CEKs {
			addEnclaveCEK(cek)
		}
	}
	// DML maintains every index of the table: inserting into (or fixing up)
	// an enclave-ordered range index routes comparisons to the enclave, so
	// its CEKs must be installed before execution.
	switch p.stmt.(type) {
	case InsertStmt, UpdateStmt, DeleteStmt:
		for _, idx := range p.table.Indexes {
			for _, cek := range idx.CEKs {
				addEnclaveCEK(cek)
			}
		}
	}
	if p.desc.NeedsEnclave && e.cfg.Enclave == nil {
		return errors.New("engine: query requires enclave computations but no enclave is configured")
	}

	// Key metadata for the driver: every CEK referenced by parameters or the
	// enclave, plus its CMKs.
	addCEK := func(name string) error { return e.collectKeyMetadata(&p.desc, name) }
	for _, pi := range p.desc.Params {
		if err := addCEK(pi.Enc.CEKName); err != nil {
			return err
		}
	}
	for _, cek := range p.desc.EnclaveCEKs {
		if err := addCEK(cek); err != nil {
			return err
		}
	}
	// Projected encrypted columns: the driver needs their key metadata to
	// decrypt result cells.
	for _, item := range p.items {
		if err := addCEK(item.enc.CEKName); err != nil {
			return err
		}
	}

	if p.filter != nil {
		prog := p.filter
		var caller exprsvc.EnclaveCaller
		if e.cfg.Enclave != nil {
			caller = e.cfg.Enclave
		}
		p.evalPool.New = func() any {
			ev, err := exprsvc.NewEvaluator(prog, nil, caller)
			if err != nil {
				return err
			}
			return ev
		}
	}
	return nil
}

// collectKeyMetadata copies a CEK's metadata (and its CMKs') into a describe
// result for the driver.
func (e *Engine) collectKeyMetadata(desc *DescribeResult, name string) error {
	if name == "" {
		return nil
	}
	if _, ok := desc.CEKs[name]; ok {
		return nil
	}
	cek, err := e.catalog.CEK(name)
	if err != nil {
		return err
	}
	desc.CEKs[name] = *cek
	for _, val := range cek.Values {
		cmk, err := e.catalog.CMK(val.CMKName)
		if err != nil {
			return err
		}
		desc.CMKs[cmk.Name] = *cmk
	}
	return nil
}

// Describe runs encryption type deduction for a query and returns the
// sp_describe_parameter_encryption output (§4.1).
func (e *Engine) Describe(query string) (*DescribeResult, error) {
	p, err := e.getPlan(query, nil)
	if err != nil {
		return nil, err
	}
	desc := p.desc
	return &desc, nil
}
