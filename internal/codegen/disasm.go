package codegen

// Bytecode disassembler — the tooling face of the backend, surfaced through
// `minicc -emit-asm`. The format is line-oriented and stable so golden
// tests can rely on it.

import (
	"fmt"
	"strings"

	"statefulcc/internal/ir"
)

// Disassemble renders one function's bytecode.
func (f *FuncCode) Disassemble(strtab []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s: params=%d slots=%d alloca=%d\n",
		f.Name, f.NumParams, f.NumSlots, f.AllocaWords)
	for pc := range f.Code {
		fmt.Fprintf(&sb, "  %4d: %s\n", pc, f.disasmInstr(&f.Code[pc], strtab))
	}
	return sb.String()
}

// DisassembleObject renders a whole object with its relocation tables.
func DisassembleObject(o *Object) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "object %q\n", o.Unit)
	for _, g := range o.Globals {
		fmt.Fprintf(&sb, "global %s: %d word(s), init %d\n", g.Name, g.Words, g.Init)
	}
	for _, x := range o.Externs {
		fmt.Fprintf(&sb, "extern %s\n", x)
	}
	// Relocations annotate their sites inline; both tables are in site order.
	calls, globals := relocCursor(o.Relocs), relocCursor(o.GlobalRelocs)
	for fi, f := range o.Funcs {
		fmt.Fprintf(&sb, "\nfunc %s: params=%d slots=%d alloca=%d\n",
			f.Name, f.NumParams, f.NumSlots, f.AllocaWords)
		for pc := range f.Code {
			line := f.disasmInstr(&f.Code[pc], o.Strings)
			for _, table := range []*relocCursor{&calls, &globals} {
				if sym, ok := table.take(fi, pc); ok {
					line += " ; -> @" + sym
				}
			}
			fmt.Fprintf(&sb, "  %4d: %s\n", pc, line)
		}
	}
	return sb.String()
}

// DisassembleProgram renders a linked program: the functions main reaches in
// full, then one line for each function it does not, so two programs that
// differ anywhere in what was linked differ here.
func DisassembleProgram(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program: %d functions, %d global words, entry #%d\n",
		len(p.Funcs), p.GlobalWords, p.EntryIndex)
	for _, f := range p.Funcs {
		sb.WriteByte('\n')
		sb.WriteString(f.Disassemble(p.Strings))
	}
	if len(p.Unreached) > 0 {
		sb.WriteByte('\n')
	}
	for _, u := range p.Unreached {
		fmt.Fprintf(&sb, "unreached %s: %016x\n", u.Name, u.Digest)
	}
	return sb.String()
}

func (f *FuncCode) disasmInstr(in *Instr, strtab []string) string {
	str := func(idx int64) string {
		if idx >= 0 && idx < int64(len(strtab)) {
			return fmt.Sprintf("%q", strtab[idx])
		}
		return ""
	}
	args := func() string {
		parts := make([]string, in.C)
		for i, a := range f.ArgSlots(in) {
			parts[i] = fmt.Sprintf("s%d", a)
		}
		return strings.Join(parts, ", ")
	}
	switch in.Op {
	case INop:
		return "nop"
	case IConst:
		return fmt.Sprintf("s%d = const %d", in.A, in.Imm)
	case IMov:
		return fmt.Sprintf("s%d = s%d", in.A, in.B)
	case IBin:
		return fmt.Sprintf("s%d = %s s%d, s%d", in.A, ir.Op(in.Sub), in.B, in.C)
	case IUn:
		return fmt.Sprintf("s%d = %s s%d", in.A, ir.Op(in.Sub), in.B)
	case ILea:
		return fmt.Sprintf("s%d = lea fp+%d", in.A, in.Imm)
	case IGAddr:
		return fmt.Sprintf("s%d = gaddr %d", in.A, in.Imm)
	case IIdx:
		return fmt.Sprintf("s%d = idx s%d[s%d] (len %d)", in.A, in.B, in.C, in.Imm)
	case ILoad:
		return fmt.Sprintf("s%d = load [s%d]", in.A, in.B)
	case IStore:
		return fmt.Sprintf("store [s%d] = s%d", in.A, in.B)
	case ICall:
		dst := "_"
		if in.A >= 0 {
			dst = fmt.Sprintf("s%d", in.A)
		}
		return fmt.Sprintf("%s = call #%d(%s)", dst, in.Imm, args())
	case IRet:
		if in.A >= 0 {
			return fmt.Sprintf("ret s%d", in.A)
		}
		return "ret"
	case IJmp:
		return fmt.Sprintf("jmp %d", in.Imm)
	case IBr:
		return fmt.Sprintf("br s%d ? %d : %d", in.A, in.Imm, in.B)
	case IPrint:
		s := "print"
		if lbl := str(in.Imm); lbl != "" {
			s += " " + lbl
		}
		if in.C > 0 {
			s += " " + args()
		}
		return s
	case IAssert:
		s := fmt.Sprintf("assert s%d", in.A)
		if msg := str(in.Imm); msg != "" {
			s += " " + msg
		}
		return s
	default:
		return fmt.Sprintf("opcode(%d)", in.Op)
	}
}
