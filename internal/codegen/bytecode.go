// Package codegen lowers optimized IR into executable bytecode and links
// compiled units into programs.
//
// The target is a word-addressed virtual machine (internal/vm): each
// function gets a frame of value slots followed by its alloca storage, and
// pointers are plain indexes into the VM's flat memory (globals first, then
// the call stack). The lowering performs phi elimination via critical-edge
// splitting and per-edge parallel copies, then a single linear scan that
// assigns every SSA value a frame slot.
package codegen

import (
	"fmt"

	"statefulcc/internal/fingerprint"
)

// Opcode is a bytecode operation.
type Opcode uint8

// Bytecode opcodes. Slot operands (A/B/C) index the current frame unless
// noted otherwise.
const (
	INop Opcode = iota

	// IConst: slot[A] = Imm.
	IConst
	// IMov: slot[A] = slot[B].
	IMov

	// Binary arithmetic: slot[A] = slot[B] op slot[C]. The ir.Op is in Sub.
	IBin
	// Unary: slot[A] = op slot[B]. The ir.Op is in Sub.
	IUn

	// ILea: slot[A] = fp + Imm (address of an alloca).
	ILea
	// IGAddr: slot[A] = Imm (absolute address of a global).
	IGAddr
	// IIdx: slot[A] = slot[B] + slot[C], after checking 0 <= slot[C] < Imm.
	IIdx
	// ILoad: slot[A] = mem[slot[B]].
	ILoad
	// IStore: mem[slot[A]] = slot[B].
	IStore

	// ICall: call function Imm (program function index) with the C argument
	// slots at Args[B:B+C]; result (if any) into slot[A] (A = -1 for void).
	ICall
	// IRet: return slot[A] (A = -1 for void).
	IRet

	// IJmp: jump to instruction Imm.
	IJmp
	// IBr: if slot[A] != 0 jump to Imm else to B.
	IBr

	// IPrint: print the string Imm (if >= 0) and the C slots at
	// Args[B:B+C].
	IPrint
	// IAssert: trap with the string Imm (if >= 0) as message if
	// slot[A] == 0.
	IAssert
)

var opcodeNames = [...]string{
	INop: "nop", IConst: "const", IMov: "mov", IBin: "bin", IUn: "un",
	ILea: "lea", IGAddr: "gaddr", IIdx: "idx", ILoad: "load", IStore: "store",
	ICall: "call", IRet: "ret", IJmp: "jmp", IBr: "br", IPrint: "print",
	IAssert: "assert",
}

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("opcode(%d)", int(o))
}

// Instr is one bytecode instruction: 24 bytes and no pointers, so a linked
// program costs the collector nothing to scan and a caller that keeps
// programs (one per build) keeps little. The opcode table above says what
// each opcode puts in A, B, C and Imm; what does not fit the three slots —
// the argument lists of calls and prints — lives in the function's Args
// pool, addressed by (B, C) = (offset, count).
type Instr struct {
	Op  Opcode
	Sub uint8 // ir.Op for IBin/IUn
	A   int32 // dst slot (or cond for IBr/IAssert, addr for IStore)
	B   int32 // src slot; Args offset for ICall/IPrint; else-target for IBr
	C   int32 // src slot; Args count for ICall/IPrint
	// Imm is the constant, target pc, global address, function index or
	// bound; for IPrint/IAssert the index into the string table (labels and
	// messages), -1 for none.
	Imm int64
}

// FuncCode is one compiled function.
type FuncCode struct {
	Name string
	// NumParams values arrive in slots 0..NumParams-1.
	NumParams int
	// NumSlots is the number of value slots in the frame.
	NumSlots int
	// AllocaWords of scratch memory follow the slots in the frame.
	AllocaWords int
	// Code is the instruction stream.
	Code []Instr
	// Args is the pool of call/print argument slots; an ICall or IPrint
	// addresses its list as Args[B:B+C]. Never written after the function
	// is compiled: the linker's copy of the function shares it.
	Args []int32
	// HasResult reports whether callers receive a value.
	HasResult bool
}

// FrameWords is the total frame size in memory words.
func (f *FuncCode) FrameWords() int { return f.NumSlots + f.AllocaWords }

// ArgSlots returns the argument slots of the ICall or IPrint in.
func (f *FuncCode) ArgSlots(in *Instr) []int32 { return f.Args[in.B : in.B+in.C] }

// Object is the compiled form of one compilation unit, pre-link: calls and
// globals are still symbolic.
type Object struct {
	Unit string
	// Globals declared by this unit.
	Globals []GlobalDef
	// Funcs defined by this unit.
	Funcs []*FuncCode
	// Strings referenced by the unit's code.
	Strings []string
	// Relocs record call sites to patch: Code[Pc].Imm must become the
	// program-wide function index of Symbol. One per ICall, in (Func, Pc)
	// order — the linker walks them beside the code (see Validate).
	Relocs []Reloc
	// GlobalRelocs record IGAddr sites: Code[Pc].Imm must become the
	// program-wide address of the named global. One per IGAddr, in
	// (Func, Pc) order.
	GlobalRelocs []Reloc
	// Externs this unit expects at link time.
	Externs []string
	// Digests holds one content digest per function of Funcs, recorded by
	// Validate — once, where the object is made — and never serialized: what
	// a linked program keeps of a function main does not reach.
	Digests []uint64
	// sites lists the ICalls and IGAddrs of the code in (Func, Pc) order,
	// recorded by Validate beside Digests: the linker walks it beside the
	// relocation tables, not the code — a twentieth of the instructions.
	sites []site
}

// site is one ICall, with its argument count, or one IGAddr (args -1).
type site struct{ fn, pc, args int32 }

// Validate checks what the linker and the VM take on trust from an object,
// wherever it came from (the compiler checks its own output once, the
// shared cache every blob it decodes): every ICall and IPrint addresses a
// window inside its function's Args pool, every jump lands inside its
// function, every string index is in the table (or -1), and the two
// relocation tables list exactly the ICall and the IGAddr sites in
// (Func, Pc) order.
//
// The same walk records what a link takes from the object without reading its
// code again: sites, and Digests. A function's digest covers everything a
// link of it depends on and nothing a link assigns: its name and frame, every
// instruction with a call's or a global address's symbol and a print's or an
// assertion's string in place of the index that stands for them, and its
// argument pool. An object whose code is edited afterwards is validated
// again.
func (o *Object) Validate() error {
	o.Digests = make([]uint64, len(o.Funcs))
	o.sites = make([]site, 0, len(o.Relocs)+len(o.GlobalRelocs))
	calls, globals := relocCursor(o.Relocs), relocCursor(o.GlobalRelocs)
	var h fingerprint.Hasher
	for fi, f := range o.Funcs {
		h.Reset()
		h.String(f.Name)
		h.Uint64(uint64(uint32(f.NumParams)) | uint64(uint32(f.NumSlots))<<32)
		hasResult := uint64(0)
		if f.HasResult {
			hasResult = 1
		}
		h.Uint64(uint64(uint32(f.AllocaWords)) | hasResult<<32)
		h.Uint64(uint64(len(f.Code)))
		inCode := func(pc int64) bool { return pc >= 0 && pc < int64(len(f.Code)) }
		inStrings := func(idx int64) bool {
			if idx < 0 || idx >= int64(len(o.Strings)) {
				h.Uint64(0)
				return idx == -1
			}
			h.Uint64(1)
			h.String(o.Strings[idx])
			return true
		}
		for pc := range f.Code {
			in := &f.Code[pc]
			h.Uint64(uint64(in.Op) | uint64(in.Sub)<<8 | uint64(uint32(in.A))<<32)
			h.Uint64(uint64(uint32(in.B)) | uint64(uint32(in.C))<<32)
			ok := true
			switch in.Op {
			case ICall:
				var sym string
				sym, ok = calls.take(fi, pc)
				h.String(sym)
				ok = ok && in.argsIn(f)
				o.sites = append(o.sites, site{int32(fi), int32(pc), in.C})
			case IGAddr:
				var sym string
				sym, ok = globals.take(fi, pc)
				h.String(sym)
				o.sites = append(o.sites, site{int32(fi), int32(pc), -1})
			case IPrint:
				ok = in.argsIn(f) && inStrings(in.Imm)
			case IAssert:
				ok = inStrings(in.Imm)
			case IJmp:
				h.Int(in.Imm)
				ok = inCode(in.Imm)
			case IBr:
				h.Int(in.Imm)
				ok = inCode(in.Imm) && inCode(int64(in.B))
			default:
				h.Int(in.Imm)
			}
			if !ok {
				return fmt.Errorf("unit %s: func %s pc %d: malformed %s (window, target, string or relocation out of place)",
					o.Unit, f.Name, pc, in.Op)
			}
		}
		for _, slot := range f.Args {
			h.Uint64(uint64(uint32(slot)))
		}
		o.Digests[fi] = h.Sum()
	}
	if len(calls) != 0 || len(globals) != 0 {
		return fmt.Errorf("unit %s: relocation that names no call or global-address site, or sites out of order", o.Unit)
	}
	return nil
}

func (in *Instr) argsIn(f *FuncCode) bool {
	return in.B >= 0 && in.C >= 0 && int64(in.B)+int64(in.C) <= int64(len(f.Args))
}

// relocCursor is what is left of a relocation table while code is walked in
// (Func, Pc) order beside it.
type relocCursor []Reloc

// take returns the symbol of the table's next relocation and steps past it,
// if that relocation names the site (fn, pc).
func (c *relocCursor) take(fn, pc int) (symbol string, ok bool) {
	if len(*c) == 0 || (*c)[0].Func != fn || (*c)[0].Pc != pc {
		return "", false
	}
	symbol, *c = (*c)[0].Symbol, (*c)[1:]
	return symbol, true
}

// GlobalDef is a global variable in an object.
type GlobalDef struct {
	Name  string
	Words int64
	Init  int64
}

// Reloc is a link-time patch site.
type Reloc struct {
	Func   int // index into Object.Funcs
	Pc     int // instruction index
	Symbol string
}

// Program is a fully linked executable: the functions main reaches, patched
// and indexed, and of every other function of the linked objects its name and
// digest — enough for a comparison of two programs to see a change in code
// that does not run, at none of the cost of keeping that code.
type Program struct {
	// Funcs holds the functions main reaches, in layout order (unit name,
	// then position in the unit); an ICall's Imm indexes it.
	Funcs     []*FuncCode
	FuncIndex map[string]int
	// Unreached lists the functions left out, in layout order.
	Unreached []Unreached
	// GlobalWords is the size of the global segment; Globals hold initial
	// values at their assigned addresses.
	GlobalWords int
	GlobalInit  []int64
	GlobalIndex map[string]int
	Strings     []string
	// EntryIndex is the index of main.
	EntryIndex int
}

// Unreached is a function of a linked object that main does not reach.
type Unreached struct {
	Name string
	// Digest is the function's entry in its object's Digests.
	Digest uint64
}
