// Package bitcode serializes IR to a compact binary form and back — the
// MiniC analogue of LLVM bitcode. Two consumers depend on it:
//
//   - The full-IR caching baseline (rustc/Zapcc-style) persists optimized
//     per-function IR keyed by input fingerprints; its state-size numbers
//     are only comparable to the dormancy records if both use efficient
//     encodings, so this codec uses varints throughout.
//
//   - The build system's artifact cache, which stores post-optimization IR
//     alongside objects for tooling (minicc -emit-ir of cached units).
//
// Values are referenced by a dense numbering (parameters first, then phis
// and instructions in block layout order); constants are inlined at use
// sites and materialized fresh on decode, matching how the IR treats them.
package bitcode

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"statefulcc/internal/ir"
)

var funcMagic = [4]byte{'M', 'C', 'F', '1'}
var moduleMagic = [4]byte{'M', 'C', 'M', '1'}

// EncodeFunc serializes one function.
func EncodeFunc(w io.Writer, f *ir.Func) error {
	bw := bufio.NewWriter(w)
	e := &writer{w: bw}
	e.raw(funcMagic[:])
	e.fn(f)
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// DecodeFunc reads one function. The returned function has no Module set.
func DecodeFunc(r io.Reader) (*ir.Func, error) {
	d := &reader{r: bufio.NewReader(r)}
	var m [4]byte
	d.raw(m[:])
	if d.err == nil && m != funcMagic {
		return nil, fmt.Errorf("bitcode: bad function magic")
	}
	f := d.fn()
	if d.err != nil {
		return nil, fmt.Errorf("bitcode: %w", d.err)
	}
	return f, nil
}

// EncodeModule serializes a whole module.
func EncodeModule(w io.Writer, m *ir.Module) error {
	bw := bufio.NewWriter(w)
	e := &writer{w: bw}
	e.raw(moduleMagic[:])
	e.str(m.Unit)
	e.uv(uint64(len(m.Globals)))
	for _, g := range m.Globals {
		e.str(g.Name)
		e.uv(uint64(g.Words))
		e.sv(g.Init)
		e.bool(g.Private)
	}
	e.uv(uint64(len(m.Externs)))
	for _, x := range m.Externs {
		e.str(x)
	}
	e.uv(uint64(len(m.Funcs)))
	for _, f := range m.Funcs {
		e.fn(f)
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// DecodeModule reads a module.
func DecodeModule(r io.Reader) (*ir.Module, error) {
	d := &reader{r: bufio.NewReader(r)}
	var mg [4]byte
	d.raw(mg[:])
	if d.err == nil && mg != moduleMagic {
		return nil, fmt.Errorf("bitcode: bad module magic")
	}
	m := &ir.Module{Unit: d.str()}
	nG := d.uv()
	for i := uint64(0); i < nG && d.err == nil; i++ {
		g := &ir.Global{Name: d.str()}
		g.Words = int64(d.uv())
		g.Init = d.sv()
		g.Private = d.bool()
		m.Globals = append(m.Globals, g)
	}
	nX := d.uv()
	for i := uint64(0); i < nX && d.err == nil; i++ {
		m.Externs = append(m.Externs, d.str())
	}
	nF := d.uv()
	for i := uint64(0); i < nF && d.err == nil; i++ {
		f := d.fn()
		if f != nil {
			f.Module = m
			m.Funcs = append(m.Funcs, f)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("bitcode: %w", d.err)
	}
	return m, nil
}

// SizeOfFunc reports the encoded size of a function in bytes.
func SizeOfFunc(f *ir.Func) int {
	var c countWriter
	_ = EncodeFunc(&c, f)
	return c.n
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// --- function encoding ----------------------------------------------------

// Reference tags.
const (
	refValue = 0 // followed by dense value index
	refConst = 1 // followed by type byte + zigzag constant
)

func (e *writer) fn(f *ir.Func) {
	e.str(f.Name)
	e.byte(byte(f.Result))
	e.bool(f.Private)
	e.uv(uint64(len(f.Params)))
	for _, p := range f.Params {
		e.byte(byte(p.Type))
	}

	// Numbering: params, then phis+instrs per block in layout order.
	num := make(map[*ir.Value]int, f.NumValues())
	for i, p := range f.Params {
		num[p] = i
	}
	next := len(f.Params)
	blockIdx := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b] = i
		for _, v := range b.Phis {
			num[v] = next
			next++
		}
		for _, v := range b.Instrs {
			num[v] = next
			next++
		}
	}

	ref := func(v *ir.Value) {
		if v.Op == ir.OpConst {
			e.uv(refConst)
			e.byte(byte(v.Type))
			e.sv(v.Aux)
			return
		}
		e.uv(refValue)
		e.uv(uint64(num[v]))
	}
	val := func(v *ir.Value) {
		e.byte(byte(v.Op))
		e.byte(byte(v.Type))
		e.sv(v.Aux)
		e.str(v.Sym)
		e.str(v.StrAux)
		e.uv(uint64(len(v.Args)))
		for _, a := range v.Args {
			ref(a)
		}
		e.uv(uint64(len(v.Blocks)))
		for _, b := range v.Blocks {
			e.uv(uint64(blockIdx[b]))
		}
	}

	e.uv(uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		e.uv(uint64(len(b.Phis)))
		for _, v := range b.Phis {
			val(v)
		}
		e.uv(uint64(len(b.Instrs)))
		for _, v := range b.Instrs {
			val(v)
		}
		if b.Term != nil {
			e.byte(1)
			val(b.Term)
		} else {
			e.byte(0)
		}
	}
}

func (d *reader) fn() *ir.Func {
	name := d.str()
	result := ir.Type(d.byte())
	private := d.bool()
	nParams := d.uv()
	if d.err != nil || nParams > 1<<16 {
		d.fail("implausible param count")
		return nil
	}
	ptypes := make([]ir.Type, nParams)
	for i := range ptypes {
		ptypes[i] = ir.Type(d.byte())
	}
	f := ir.NewFunc(name, ptypes, result)
	f.Private = private

	nBlocks := d.uv()
	if d.err != nil || nBlocks > 1<<20 {
		d.fail("implausible block count")
		return nil
	}

	// Pass 1: materialize blocks and value shells so references resolve.
	type pending struct {
		v      *ir.Value
		isPhi  bool
		isTerm bool
		block  *ir.Block
	}
	blocks := make([]*ir.Block, nBlocks)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	values := make([]*ir.Value, 0, 64)
	values = append(values, f.Params...)

	var order []pending
	readVal := func(b *ir.Block, isPhi, isTerm bool) {
		op := ir.Op(d.byte())
		typ := ir.Type(d.byte())
		aux := d.sv()
		sym := d.str()
		strAux := d.str()
		v := f.NewValue(op, typ)
		v.Aux = aux
		v.Sym = sym
		v.StrAux = strAux
		nArgs := int(d.uv())
		p := pending{v: v, isPhi: isPhi, isTerm: isTerm, block: b}
		// Args and blocks are read in a second step; but the stream is
		// sequential, so record the raw refs now.
		for i := 0; i < nArgs && d.err == nil; i++ {
			tag := d.uv()
			if tag == refConst {
				ct := ir.Type(d.byte())
				cv := d.sv()
				c := f.ConstInt(cv)
				c.Type = ct
				v.Args = append(v.Args, c)
			} else {
				idx := d.uv()
				// Forward references (phis) are resolved after all shells
				// exist; stash the index in a placeholder constant.
				ph := &ir.Value{Op: ir.OpInvalid, Aux: int64(idx)}
				v.Args = append(v.Args, ph)
			}
		}
		nBlks := int(d.uv())
		for i := 0; i < nBlks && d.err == nil; i++ {
			bi := d.uv()
			if bi >= nBlocks {
				d.fail("block index out of range")
				return
			}
			v.Blocks = append(v.Blocks, blocks[bi])
		}
		if !isTerm {
			values = append(values, v) // terminators are never referenced
		}
		order = append(order, p)
	}

	for bi := uint64(0); bi < nBlocks && d.err == nil; bi++ {
		b := blocks[bi]
		nPhis := d.uv()
		if nPhis > 1<<20 {
			d.fail("implausible phi count")
			return nil
		}
		for i := uint64(0); i < nPhis && d.err == nil; i++ {
			readVal(b, true, false)
		}
		nInstrs := d.uv()
		if nInstrs > 1<<20 {
			d.fail("implausible instr count")
			return nil
		}
		for i := uint64(0); i < nInstrs && d.err == nil; i++ {
			readVal(b, false, false)
		}
		if d.byte() == 1 {
			readVal(b, false, true)
		}
	}
	if d.err != nil {
		return nil
	}

	// Pass 2: resolve value references and attach to blocks.
	for _, p := range order {
		for i, a := range p.v.Args {
			if a.Op == ir.OpInvalid {
				idx := int(a.Aux)
				if idx < 0 || idx >= len(values) {
					d.fail("value index out of range")
					return nil
				}
				p.v.Args[i] = values[idx]
			}
		}
		switch {
		case p.isPhi:
			p.block.AddPhi(p.v)
		case p.isTerm:
			p.block.SetTerm(p.v)
		default:
			p.block.AddInstr(p.v)
		}
	}
	return f
}

// --- primitives -------------------------------------------------------------

type writer struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *writer) raw(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *writer) byte(b byte) { e.raw([]byte{b}) }

func (e *writer) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *writer) uv(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

func (e *writer) sv(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

func (e *writer) str(s string) {
	e.uv(uint64(len(s)))
	e.raw([]byte(s))
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (d *reader) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s", msg)
	}
}

func (d *reader) raw(b []byte) {
	if d.err != nil {
		return
	}
	_, d.err = io.ReadFull(d.r, b)
}

func (d *reader) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return 0
	}
	return b
}

func (d *reader) bool() bool { return d.byte() == 1 }

func (d *reader) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
		return 0
	}
	return v
}

func (d *reader) sv() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.err = err
		return 0
	}
	return v
}

func (d *reader) str() string {
	n := d.uv()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.fail("implausible string length")
		return ""
	}
	b := make([]byte, n)
	d.raw(b)
	return string(b)
}
