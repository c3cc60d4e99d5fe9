package ir

// This file defines the core IR data structures — Module, Global, Func,
// Block, Value — and their construction and mutation helpers.

import "fmt"

// Module is the IR of one compilation unit.
type Module struct {
	// Unit is the source unit name (relative file path).
	Unit string
	// Globals in declaration order.
	Globals []*Global
	// Funcs in declaration order.
	Funcs []*Func
	// Externs records the names this unit expects other units to provide;
	// the linker checks them.
	Externs []string

	// mem is what the module's functions' IR is cut from (slab.go).
	mem slab
}

// Global is a module-level variable. Arrays occupy Words > 1 consecutive
// words; scalars one word initialized to Init.
type Global struct {
	Name  string
	Words int64
	Init  int64
	// Private marks unit-local globals (names starting with '_'),
	// removable by globalopt when unreferenced.
	Private bool
}

// FindFunc returns the function with the given name, or nil.
func (m *Module) FindFunc(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FindGlobal returns the global with the given name, or nil.
func (m *Module) FindGlobal(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// RemoveFunc deletes the named function from the module.
func (m *Module) RemoveFunc(name string) bool {
	for i, f := range m.Funcs {
		if f.Name == name {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			return true
		}
	}
	return false
}

// Func is one function's IR.
type Func struct {
	Name string
	// Module is the owning module (set by Module construction; may be nil
	// in tests that build bare functions).
	Module *Module
	// Params are the parameter pseudo-values, in order.
	Params []*Value
	// Result is the return type (TVoid for none).
	Result Type
	// Blocks in layout order; Blocks[0] is the entry.
	Blocks []*Block
	// Private marks unit-local functions (names starting with '_').
	Private bool

	nextValueID int
	nextBlockID int
	mem         *slab // nil until a bare function first needs it
}

// NewFunc creates an empty function with the given parameter types, its IR
// on a slab of its own.
func NewFunc(name string, params []Type, result Type) *Func {
	return newFunc(nil, name, params, result)
}

// NewFunc creates an empty function of m, its IR on the module's slab. The
// caller appends it to m.Funcs when it is complete.
func (m *Module) NewFunc(name string, params []Type, result Type) *Func {
	f := newFunc(&m.mem, name, params, result)
	f.Module = m
	return f
}

func newFunc(mem *slab, name string, params []Type, result Type) *Func {
	f := &Func{Name: name, Result: result, Private: len(name) > 0 && name[0] == '_', mem: mem}
	if len(params) > 0 {
		f.Params = make([]*Value, len(params))
	}
	for i, t := range params {
		p := f.newValue()
		p.Op, p.Type, p.Aux = OpParam, t, int64(i)
		f.Params[i] = p
	}
	return f
}

func (f *Func) takeValueID() int {
	id := f.nextValueID
	f.nextValueID++
	return id
}

// Entry returns the entry block (nil for an empty function).
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock() *Block {
	b := &cut(&f.slab().blocks, 1)[0]
	b.ID, b.Func = f.nextBlockID, f
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NumValues returns an upper bound on value IDs, for dense side tables.
func (f *Func) NumValues() int { return f.nextValueID }

// NumBlockIDs returns an upper bound on block IDs, for dense side tables.
func (f *Func) NumBlockIDs() int { return f.nextBlockID }

// NewValue creates an instruction value owned by this function but not yet
// placed in any block. The operands are copied (ValueList), so a caller's
// variadic list need not outlive the call.
func (f *Func) NewValue(op Op, t Type, args ...*Value) *Value {
	v := f.newValue()
	v.Op, v.Type, v.Args = op, t, f.ValueList(args...)
	return v
}

// ConstInt returns a fresh integer constant value.
func (f *Func) ConstInt(c int64) *Value {
	v := f.newValue()
	v.Op, v.Type, v.Aux = OpConst, TInt, c
	return v
}

// ConstBool returns a fresh boolean constant value.
func (f *Func) ConstBool(c bool) *Value {
	v := f.newValue()
	v.Op, v.Type = OpConst, TBool
	if c {
		v.Aux = 1
	}
	return v
}

// NewPhi creates a phi of type t, not yet placed in any block, with room on
// the slab for n incoming edges: its operand and block lists are empty and
// are appended to in step.
func (f *Func) NewPhi(t Type, n int) *Value {
	v := f.newValue()
	v.Op, v.Type = OpPhi, t
	if n > 0 {
		v.Args = cut(&f.slab().valPtrs, n)[:0]
		v.Blocks = cut(&f.slab().blkPtrs, n)[:0]
	}
	return v
}

// Block is a basic block: phis, then ordinary instructions, then one
// terminator. Preds is maintained by the edge-editing helpers in edit.go.
type Block struct {
	ID     int
	Func   *Func
	Phis   []*Value
	Instrs []*Value
	Term   *Value
	Preds  []*Block
}

// Name returns the block's printable label.
func (b *Block) Name() string { return fmt.Sprintf("b%d", b.ID) }

// Succs returns the block's successors (the terminator's block operands).
func (b *Block) Succs() []*Block {
	if b.Term == nil {
		return nil
	}
	return b.Term.Blocks
}

// AddInstr appends an ordinary instruction to the block and records
// ownership.
func (b *Block) AddInstr(v *Value) *Value {
	v.Block = b
	b.Instrs = append(b.Instrs, v)
	return v
}

// AddInstrs appends vs in order, as AddInstr would one at a time, but sizes
// the block's list once, on the slab: for a builder that gathers a block's
// instructions before it places them.
func (b *Block) AddInstrs(vs []*Value) {
	if len(vs) == 0 {
		return
	}
	if n := len(b.Instrs); cap(b.Instrs)-n < len(vs) {
		grown := cut(&b.Func.slab().valPtrs, n+len(vs))[:n]
		copy(grown, b.Instrs)
		b.Instrs = grown
	}
	for _, v := range vs {
		v.Block = b
	}
	b.Instrs = append(b.Instrs, vs...)
}

// InsertInstr inserts v at position i among the ordinary instructions.
func (b *Block) InsertInstr(i int, v *Value) {
	v.Block = b
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = v
}

// AddPhi appends a phi to the block.
func (b *Block) AddPhi(v *Value) *Value {
	v.Block = b
	b.Phis = append(b.Phis, v)
	return v
}

// SetTerm installs the block's terminator and updates the successors'
// predecessor lists.
func (b *Block) SetTerm(v *Value) {
	if b.Term != nil {
		for _, s := range b.Term.Blocks {
			s.removePredEdge(b)
		}
	}
	v.Block = b
	b.Term = v
	for _, s := range v.Blocks {
		if s.Preds == nil {
			// Nearly every block has one or two predecessors: room for both
			// comes off the slab, a third moves the list to the heap.
			s.Preds = cut(&s.Func.slab().blkPtrs, 2)[:0]
		}
		s.Preds = append(s.Preds, b)
	}
}

// removePredEdge removes one occurrence of p from b.Preds and drops the
// corresponding phi operands.
func (b *Block) removePredEdge(p *Block) {
	for i, q := range b.Preds {
		if q == p {
			b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
			for _, phi := range b.Phis {
				phi.removeIncoming(p)
			}
			return
		}
	}
}

// Value is an SSA value: an instruction, constant, or parameter.
type Value struct {
	// ID is unique within the owning function.
	ID int
	Op Op
	// Type of the produced value (TVoid for effect-only instructions).
	Type Type
	// Args are value operands.
	Args []*Value
	// Blocks are block operands: phi incoming blocks, or branch targets.
	Blocks []*Block
	// Aux carries the constant value (OpConst), parameter index (OpParam),
	// alloca size in words (OpAlloca), or array length (OpIndexAddr).
	Aux int64
	// Sym is the callee (OpCall) or global name (OpGlobalAddr).
	Sym string
	// StrAux is the print label or assert message.
	StrAux string
	// Block is the owning block (nil for constants and parameters).
	Block *Block
}

// IsConst reports whether v is a constant, returning its value.
func (v *Value) IsConst() (int64, bool) {
	if v.Op == OpConst {
		return v.Aux, true
	}
	return 0, false
}

// IsConstValue reports whether v is the constant c.
func (v *Value) IsConstValue(c int64) bool {
	return v.Op == OpConst && v.Aux == c
}

// Incoming returns the phi operand flowing in from pred, or nil.
func (v *Value) Incoming(pred *Block) *Value {
	for i, b := range v.Blocks {
		if b == pred {
			return v.Args[i]
		}
	}
	return nil
}

// SetIncoming replaces the phi operand for pred.
func (v *Value) SetIncoming(pred *Block, val *Value) {
	for i, b := range v.Blocks {
		if b == pred {
			v.Args[i] = val
			return
		}
	}
	v.Blocks = append(v.Blocks, pred)
	v.Args = append(v.Args, val)
}

// removeIncoming drops the phi operand for pred (one occurrence).
func (v *Value) removeIncoming(pred *Block) {
	for i, b := range v.Blocks {
		if b == pred {
			v.Args = append(v.Args[:i], v.Args[i+1:]...)
			v.Blocks = append(v.Blocks[:i], v.Blocks[i+1:]...)
			return
		}
	}
}

// String returns a short printable form ("v12").
func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	switch v.Op {
	case OpConst:
		if v.Type == TBool {
			if v.Aux != 0 {
				return "true"
			}
			return "false"
		}
		return fmt.Sprintf("%d", v.Aux)
	case OpParam:
		return fmt.Sprintf("p%d", v.Aux)
	default:
		return fmt.Sprintf("v%d", v.ID)
	}
}
