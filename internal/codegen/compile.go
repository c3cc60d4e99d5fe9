package codegen

// IR → bytecode lowering. Phi nodes are eliminated during emission: each CFG
// edge into a block with phis gets a parallel-copy sequence, placed either
// at the end of the predecessor (single-successor preds) or in a trampoline
// appended after the main code (the bytecode equivalent of critical-edge
// splitting). The IR itself is never mutated, so cached IR stays valid.

import (
	"fmt"
	"slices"

	"statefulcc/internal/analysis"
	"statefulcc/internal/ir"
)

// Options configures code generation.
type Options struct {
	// DisableSlotPacking turns off the liveness-driven frame-slot packing
	// (see pack.go); used by the packing ablation.
	DisableSlotPacking bool
}

// Compile lowers a whole module to an object file with default options
// (slot packing enabled).
func Compile(m *ir.Module) (*Object, error) {
	return CompileWithOptions(m, Options{})
}

// CompileWithOptions lowers a whole module to an object file.
func CompileWithOptions(m *ir.Module, opts Options) (*Object, error) {
	return new(Scratch).CompileWithOptions(m, opts, nil, nil)
}

// Scratch is one worker's reusable working memory for code generation:
// the liveness analysis, the interference matrix and the dense side tables
// (indexed by Value.ID or Block.ID, see ir.Dense) of the function being
// lowered. Everything is re-sized and zeroed per function, so only the
// backing memory carries over. One Scratch per worker (a compiler.Compiler
// owns one), never two goroutines on one; the package-level Compile
// functions make a fresh one per module.
type Scratch struct {
	live analysis.Liveness
	// adj is the interference matrix: row v.ID is a bitset over value IDs.
	adj []uint64
	// liveNow is the live set at the point of packColors' backward scan.
	liveNow []uint64
	// slotOf[v.ID] is the frame slot of a parameter or instruction result,
	// plus one (0: none). Constants are interned by value in constSlot.
	slotOf []int32
	// colorUsed[c] == the running stamp marks color c taken by a neighbour
	// of the value being colored.
	colorUsed []int32
	allocaOff []int64 // by value ID
	blockPC   []int   // by block ID
	constSlot map[int64]int32
	consts    []constDef
	code      []Instr
	args      []int32 // the function's call/print argument pool
	fixups    []fixup
	tramps    []trampoline
	moves     []move
}

// Compile lowers a whole module in the worker's scratch with default
// options.
func (s *Scratch) Compile(m *ir.Module) (*Object, error) {
	return s.CompileWithOptions(m, Options{}, nil, nil)
}

// CompileWithOptions lowers a whole module in the worker's scratch. The
// i-th function takes the code of prev's function reuse[i] instead when
// that is not negative (reuse may be nil): the caller vouches that it was
// generated, under the same options, from IR identical to the i-th
// function's, IDs included.
func (s *Scratch) CompileWithOptions(m *ir.Module, opts Options, prev *Object, reuse []int32) (*Object, error) {
	// The scratch keeps its memory from unit to unit, not the unit's IR.
	defer func() {
		s.live.Release()
		ir.Wipe(s.fixups)
		ir.Wipe(s.tramps)
	}()
	obj := &Object{Unit: m.Unit}
	obj.Externs = append(obj.Externs, m.Externs...)
	for _, g := range m.Globals {
		obj.Globals = append(obj.Globals, GlobalDef{Name: g.Name, Words: g.Words, Init: g.Init})
	}
	if s.constSlot == nil {
		s.constSlot = make(map[int64]int32)
	}
	strIdx := make(map[string]int32)
	obj.Funcs = make([]*FuncCode, 0, len(m.Funcs))
	for i, f := range m.Funcs {
		if i < len(reuse) && reuse[i] >= 0 {
			obj.Funcs = append(obj.Funcs, obj.take(prev, int(reuse[i]), i, strIdx))
			continue
		}
		fc, err := compileFunc(f, obj, i, strIdx, opts, s)
		if err != nil {
			return nil, fmt.Errorf("unit %s: %w", m.Unit, err)
		}
		obj.Funcs = append(obj.Funcs, fc)
	}
	// One check where the object is made; the linker and the VM rely on it.
	if err := obj.Validate(); err != nil {
		return nil, fmt.Errorf("codegen emitted a malformed object: %w", err)
	}
	return obj, nil
}

type fnCompiler struct {
	*Scratch
	f       *ir.Func
	obj     *Object
	fnIndex int
	strIdx  map[string]int32

	nextSlot    int32
	allocaWords int64
	tempBase    int32
	// pack enables liveness-driven slot sharing (pack.go).
	pack bool
	// frozen is set once slot assignment is complete; allocating new slots
	// afterwards would corrupt alloca addressing, so it panics.
	frozen bool
}

type constDef struct {
	slot int32
	val  int64
}

// fixup is an instruction whose Imm (or, for the else-edge of an IBr, B)
// must be resolved to the start of a block or of a trampoline.
type fixup struct {
	pc     int
	second bool // patch B instead of Imm
	block  *ir.Block
	tramp  int // index into tramps plus one; 0: jump to block
}

// trampoline carries the phi moves[from:to] of one branch edge.
type trampoline struct {
	from, to int
	target   *ir.Block
	pc       int
}

type move struct{ dst, src int32 }

func compileFunc(f *ir.Func, obj *Object, fnIndex int, strIdx map[string]int32, opts Options, s *Scratch) (*FuncCode, error) {
	c := &fnCompiler{
		Scratch: s,
		f:       f,
		obj:     obj,
		fnIndex: fnIndex,
		strIdx:  strIdx,
		pack:    !opts.DisableSlotPacking,
	}
	s.slotOf = ir.Dense(s.slotOf, f.NumValues())
	s.allocaOff = ir.Dense(s.allocaOff, f.NumValues())
	s.blockPC = ir.Dense(s.blockPC, f.NumBlockIDs())
	clear(s.constSlot)
	s.consts, s.code, s.args, s.fixups = s.consts[:0], s.code[:0], s.args[:0], s.fixups[:0]
	s.tramps, s.moves = s.tramps[:0], s.moves[:0]

	c.assignSlots()
	c.emitPrologue()
	for _, b := range f.Blocks {
		c.blockPC[b.ID] = len(c.code)
		for _, v := range b.Instrs {
			if err := c.emitInstr(v); err != nil {
				return nil, fmt.Errorf("func %s: %w", f.Name, err)
			}
		}
		if err := c.emitTerminator(b); err != nil {
			return nil, fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	c.emitTrampolines()
	c.resolveFixups()

	return &FuncCode{
		Name:        f.Name,
		NumParams:   len(f.Params),
		NumSlots:    int(c.nextSlot),
		AllocaWords: int(c.allocaWords),
		Code:        append([]Instr(nil), c.code...),
		Args:        append([]int32(nil), c.args...),
		HasResult:   f.Result != ir.TVoid,
	}, nil
}

// assignSlots gives every value-producing instruction a frame slot:
// parameters first (the calling convention places arguments there), then
// instruction results (shared between disjoint lifetimes when packing is
// on), constants, and finally the parallel-copy temporaries.
func (c *fnCompiler) assignSlots() {
	if c.pack {
		c.nextSlot = c.packColors()
	} else {
		for i, p := range c.f.Params {
			c.slotOf[p.ID] = int32(i) + 1
			c.nextSlot++
		}
	}
	c.f.ForEachValue(func(v *ir.Value) {
		if v.Type != ir.TVoid && !c.pack {
			c.slotOf[v.ID] = c.nextSlot + 1
			c.nextSlot++
		}
		if v.Op == ir.OpAlloca {
			c.allocaOff[v.ID] = c.allocaWords
			c.allocaWords += v.Aux
		}
		for _, a := range v.Args {
			if a.Op == ir.OpConst {
				c.constSlotFor(a)
			}
		}
	})
	maxPhis := 0
	for _, b := range c.f.Blocks {
		maxPhis = max(maxPhis, len(b.Phis))
	}
	c.tempBase = c.nextSlot
	c.nextSlot += int32(maxPhis)
	c.frozen = true
}

// constSlotFor interns a constant into a slot loaded in the prologue.
func (c *fnCompiler) constSlotFor(v *ir.Value) int32 {
	if s, ok := c.constSlot[v.Aux]; ok {
		return s
	}
	if c.frozen {
		panic(fmt.Sprintf("codegen: constant %d discovered after slot assignment", v.Aux))
	}
	s := c.nextSlot
	c.nextSlot++
	c.constSlot[v.Aux] = s
	c.consts = append(c.consts, constDef{slot: s, val: v.Aux})
	return s
}

func (c *fnCompiler) emitPrologue() {
	for _, cd := range c.consts {
		c.code = append(c.code, Instr{Op: IConst, A: cd.slot, Imm: cd.val})
	}
}

// slot returns the frame slot holding v's value. A constant is looked up
// by value, never by ID: cloning shares constants between functions, so
// their IDs index nothing (see ir.Dense).
func (c *fnCompiler) slot(v *ir.Value) int32 {
	if v.Op == ir.OpConst {
		return c.constSlotFor(v)
	}
	if v.ID < len(c.slotOf) {
		if s := c.slotOf[v.ID]; s != 0 {
			return s - 1
		}
	}
	panic(fmt.Sprintf("codegen: value %s (%s) has no slot", v, v.Op))
}

// intern returns s's index in o's string table, adding it when new.
func (o *Object) intern(s string, strIdx map[string]int32) int32 {
	if i, ok := strIdx[s]; ok {
		return i
	}
	i := int32(len(o.Strings))
	o.Strings = append(o.Strings, s)
	strIdx[s] = i
	return i
}

// take makes prev's function j o's function fn: its call and global
// relocations are renumbered to fn, and its strings interned in o's table,
// in code order as code generation interns them. FuncCode is immutable, so
// the function is shared unless a string's index moved, when a copy of its
// code takes the new indices.
func (o *Object) take(prev *Object, j, fn int, strIdx map[string]int32) *FuncCode {
	fc := prev.Funcs[j]
	o.Relocs = appendRebased(o.Relocs, prev.Relocs, j, fn)
	o.GlobalRelocs = appendRebased(o.GlobalRelocs, prev.GlobalRelocs, j, fn)
	var code []Instr
	for pc, in := range fc.Code {
		if (in.Op != IPrint && in.Op != IAssert) || in.Imm < 0 {
			continue
		}
		idx := int64(o.intern(prev.Strings[in.Imm], strIdx))
		if idx != in.Imm && code == nil {
			code = slices.Clone(fc.Code)
		}
		if code != nil {
			code[pc].Imm = idx
		}
	}
	if code == nil {
		return fc
	}
	cp := *fc
	cp.Code = code
	return &cp
}

// appendRebased appends src's relocations of function from, in (Func, Pc)
// order, to dst as function to's.
func appendRebased(dst, src []Reloc, from, to int) []Reloc {
	k, _ := slices.BinarySearchFunc(src, from, func(r Reloc, fn int) int { return r.Func - fn })
	for ; k < len(src) && src[k].Func == from; k++ {
		r := src[k]
		r.Func = to
		dst = append(dst, r)
	}
	return dst
}

// argSlots appends the slots of v's operands to the function's pool and
// returns their window (offset, count).
func (c *fnCompiler) argSlots(v *ir.Value) (off, n int32) {
	off = int32(len(c.args))
	for _, a := range v.Args {
		c.args = append(c.args, c.slot(a))
	}
	return off, int32(len(v.Args))
}

func (c *fnCompiler) emit(i Instr) int {
	c.code = append(c.code, i)
	return len(c.code) - 1
}

func (c *fnCompiler) emitInstr(v *ir.Value) error {
	switch v.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe,
		ir.OpGt, ir.OpGe:
		c.emit(Instr{Op: IBin, Sub: uint8(v.Op), A: c.slot(v), B: c.slot(v.Args[0]), C: c.slot(v.Args[1])})
	case ir.OpNeg, ir.OpCompl, ir.OpNot:
		c.emit(Instr{Op: IUn, Sub: uint8(v.Op), A: c.slot(v), B: c.slot(v.Args[0])})
	case ir.OpCopy:
		c.emit(Instr{Op: IMov, A: c.slot(v), B: c.slot(v.Args[0])})
	case ir.OpAlloca:
		// Address = fp + numSlots + allocaOffset; numSlots is only known
		// after slot assignment, which already ran, but temp slots are
		// final too, so nextSlot is stable here.
		c.emit(Instr{Op: ILea, A: c.slot(v), Imm: int64(c.nextSlot) + c.allocaOff[v.ID]})
	case ir.OpGlobalAddr:
		pc := c.emit(Instr{Op: IGAddr, A: c.slot(v)})
		c.obj.GlobalRelocs = append(c.obj.GlobalRelocs, Reloc{Func: c.fnIndex, Pc: pc, Symbol: v.Sym})
	case ir.OpIndexAddr:
		c.emit(Instr{Op: IIdx, A: c.slot(v), B: c.slot(v.Args[0]), C: c.slot(v.Args[1]), Imm: v.Aux})
	case ir.OpLoad:
		c.emit(Instr{Op: ILoad, A: c.slot(v), B: c.slot(v.Args[0])})
	case ir.OpStore:
		c.emit(Instr{Op: IStore, A: c.slot(v.Args[0]), B: c.slot(v.Args[1])})
	case ir.OpCall:
		in := Instr{Op: ICall, A: -1}
		if v.Type != ir.TVoid {
			in.A = c.slot(v)
		}
		in.B, in.C = c.argSlots(v)
		pc := c.emit(in)
		c.obj.Relocs = append(c.obj.Relocs, Reloc{Func: c.fnIndex, Pc: pc, Symbol: v.Sym})
	case ir.OpPrint:
		in := Instr{Op: IPrint, Imm: -1}
		if v.StrAux != "" {
			in.Imm = int64(c.obj.intern(v.StrAux, c.strIdx))
		}
		in.B, in.C = c.argSlots(v)
		c.emit(in)
	case ir.OpAssert:
		in := Instr{Op: IAssert, A: c.slot(v.Args[0]), Imm: -1}
		if v.StrAux != "" {
			in.Imm = int64(c.obj.intern(v.StrAux, c.strIdx))
		}
		c.emit(in)
	default:
		return fmt.Errorf("cannot lower %s", v.LongString())
	}
	return nil
}

// phiMoves appends the parallel-copy sequence for the edge pred→succ to
// c.moves, returning its bounds: all sources are first copied into
// temporaries, then temporaries into the phi slots, so that phis reading
// each other's old values stay correct.
func (c *fnCompiler) phiMoves(pred, succ *ir.Block) (from, to int) {
	from = len(c.moves)
	for i, phi := range succ.Phis {
		in := phi.Incoming(pred)
		c.moves = append(c.moves, move{dst: c.tempBase + int32(i), src: c.slot(in)})
	}
	for i, phi := range succ.Phis {
		c.moves = append(c.moves, move{dst: c.slot(phi), src: c.tempBase + int32(i)})
	}
	return from, len(c.moves)
}

func (c *fnCompiler) emitMoves(from, to int) {
	for _, m := range c.moves[from:to] {
		if m.dst != m.src {
			c.emit(Instr{Op: IMov, A: m.dst, B: m.src})
		}
	}
}

func (c *fnCompiler) emitTerminator(b *ir.Block) error {
	t := b.Term
	switch t.Op {
	case ir.OpRet:
		in := Instr{Op: IRet, A: -1}
		if len(t.Args) == 1 {
			in.A = c.slot(t.Args[0])
		}
		c.emit(in)
	case ir.OpJump:
		succ := t.Blocks[0]
		c.emitMoves(c.phiMoves(b, succ))
		pc := c.emit(Instr{Op: IJmp})
		c.fixups = append(c.fixups, fixup{pc: pc, block: succ})
	case ir.OpBranch:
		thenB, elseB := t.Blocks[0], t.Blocks[1]
		pc := c.emit(Instr{Op: IBr, A: c.slot(t.Args[0])})
		c.fixups = append(c.fixups, c.edgeFixup(pc, false, b, thenB))
		c.fixups = append(c.fixups, c.edgeFixup(pc, true, b, elseB))
	default:
		return fmt.Errorf("bad terminator %s", t.Op)
	}
	return nil
}

// edgeFixup routes a branch edge either directly to the target block or
// through a trampoline carrying the edge's phi moves.
func (c *fnCompiler) edgeFixup(pc int, second bool, pred, succ *ir.Block) fixup {
	from, to := c.phiMoves(pred, succ)
	if from == to {
		return fixup{pc: pc, second: second, block: succ}
	}
	c.tramps = append(c.tramps, trampoline{from: from, to: to, target: succ})
	return fixup{pc: pc, second: second, tramp: len(c.tramps)}
}

func (c *fnCompiler) emitTrampolines() {
	for i := range c.tramps {
		tr := &c.tramps[i]
		tr.pc = len(c.code)
		c.emitMoves(tr.from, tr.to)
		pc := c.emit(Instr{Op: IJmp})
		c.fixups = append(c.fixups, fixup{pc: pc, block: tr.target})
	}
}

func (c *fnCompiler) resolveFixups() {
	for _, fx := range c.fixups {
		var target int
		if fx.tramp != 0 {
			target = c.tramps[fx.tramp-1].pc
		} else {
			target = c.blockPC[fx.block.ID]
		}
		if fx.second {
			c.code[fx.pc].B = int32(target)
		} else {
			c.code[fx.pc].Imm = int64(target)
		}
	}
}
