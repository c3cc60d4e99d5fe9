package ir

import (
	"reflect"
	"testing"
	"unsafe"
)

// buildShape fills m with IR of a fixed shape: two functions with enough
// values, blocks, operand lists, block lists and predecessor lists for
// several chunks of every kind, and a phi per join.
func buildShape(m *Module) {
	for _, name := range []string{"f", "g"} {
		f := m.NewFunc(name, []Type{TInt, TInt}, TInt)
		prev := f.NewBlock()
		acc := f.Params[0]
		for i := 0; i < 120; i++ {
			left, right, join := f.NewBlock(), f.NewBlock(), f.NewBlock()
			cond := prev.AddInstr(f.NewValue(OpLt, TBool, acc, f.Params[1]))
			br := f.NewValue(OpBranch, TVoid, cond)
			br.Blocks = f.BlockList(left, right)
			prev.SetTerm(br)
			l := left.AddInstr(f.NewValue(OpAdd, TInt, acc, f.ConstInt(int64(i))))
			r := right.AddInstr(f.NewValue(OpSub, TInt, acc, f.ConstInt(int64(i))))
			for _, b := range []*Block{left, right} {
				j := f.NewValue(OpJump, TVoid)
				j.Blocks = f.BlockList(join)
				b.SetTerm(j)
			}
			phi := f.NewPhi(TInt, 2)
			phi.Args = append(phi.Args, l, r)
			phi.Blocks = append(phi.Blocks, left, right)
			acc = join.AddPhi(phi)
			prev = join
		}
		prev.SetTerm(f.NewValue(OpRet, TVoid, acc))
		m.Funcs = append(m.Funcs, f)
	}
}

func chunkCount(a *Arena) int {
	return len(a.values.chunks) + len(a.blocks.chunks) + len(a.valPtrs.chunks) + len(a.blkPtrs.chunks)
}

// TestArenaHandsOutZeroedChunks: after a release every chunk the arena
// hands out is zero in every element, however full the module before it
// left it, and a module of the same shape is cut from exactly the chunks
// the first one used.
func TestArenaHandsOutZeroedChunks(t *testing.T) {
	var a Arena
	m := a.NewModule("first.mc")
	buildShape(m)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []int{len(a.values.chunks), len(a.blocks.chunks), len(a.valPtrs.chunks), len(a.blkPtrs.chunks)} {
		if kind < 2 {
			t.Fatalf("the shape fills %d chunks of one kind; the test needs several of each", kind)
		}
	}
	held := chunkCount(&a)

	a.Release()
	// Every chunk the next module takes is one of these, handed out zero.
	handedOutZero(t, "value", &a.values)
	handedOutZero(t, "block", &a.blocks)
	handedOutZero(t, "value list", &a.valPtrs)
	handedOutZero(t, "block list", &a.blkPtrs)
	a.Release()
	second := a.NewModule("second.mc")
	buildShape(second)
	if err := second.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := chunkCount(&a); got != held {
		t.Errorf("a module of the same shape grew the arena from %d to %d chunks", held, got)
	}
	plain := &Module{Unit: "second.mc"}
	buildShape(plain)
	if second.String() != plain.String() {
		t.Error("a module on a released arena prints unlike the same module on a plain one")
	}
}

// handedOutZero takes every chunk of a released free list as a slab would,
// and checks each is zero through its capacity.
func handedOutZero[T any](t *testing.T, kind string, l *freeList[T]) {
	t.Helper()
	for i := range l.chunks {
		c := l.take(cap(l.chunks[i]))
		if len(c) != 0 {
			t.Errorf("%s chunk %d handed out with length %d", kind, i, len(c))
		}
		for j := range c[:cap(c)] {
			if !reflect.ValueOf(&c[:cap(c)][j]).Elem().IsZero() {
				t.Errorf("%s chunk %d handed out with element %d set", kind, i, j)
				break
			}
		}
	}
}

// TestReleasedArenaAllocatesNoChunks: a second module of the same shape,
// built on a released arena, allocates no value, block or list chunk — it
// pays at most what the same module pays on a plain Module less one
// allocation per chunk.
func TestReleasedArenaAllocatesNoChunks(t *testing.T) {
	var a Arena
	buildShape(a.NewModule("warm.mc"))
	chunks := chunkCount(&a)
	warm := testing.AllocsPerRun(10, func() {
		a.Release()
		buildShape(a.NewModule("warm.mc"))
	})
	plain := testing.AllocsPerRun(10, func() {
		buildShape(&Module{Unit: "plain.mc"})
	})
	t.Logf("%d chunks; %.0f allocs on a plain module, %.0f on a released arena", chunks, plain, warm)
	if warm > plain-float64(chunks) {
		t.Errorf("a released arena paid %.0f allocations for a module that costs %.0f with its %d chunks", warm, plain, chunks)
	}
	if got := chunkCount(&a); got != chunks {
		t.Errorf("the arena grew from %d to %d chunks", chunks, got)
	}
}

// TestLongListOwnMemory: on an arena too, a list longer than a quarter of
// the chunk it would be cut from gets memory of its own, which no module
// after a release is cut from, and the chunk keeps serving the short lists.
func TestLongListOwnMemory(t *testing.T) {
	var a Arena
	m := a.NewModule("long.mc")
	f := m.NewFunc("f", []Type{TInt}, TInt)
	short := f.ValueList(f.Params[0])
	long := make([]*Value, maxChunk/4+1)
	for i := range long {
		long[i] = f.Params[0]
	}
	list := f.ValueList(long...)
	next := f.ValueList(f.Params[0], f.Params[0])
	if len(a.valPtrs.chunks) != 1 {
		t.Fatalf("%d value-list chunks, want the one the short lists share", len(a.valPtrs.chunks))
	}
	inChunk := func(p **Value) bool {
		c := a.valPtrs.chunks[0]
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(c[:cap(c)])))
		at := uintptr(unsafe.Pointer(p))
		return at >= lo && at < lo+uintptr(cap(c))*unsafe.Sizeof(p)
	}
	if inChunk(&list[0]) {
		t.Error("a long list was cut from the arena's chunk")
	}
	if !inChunk(&short[0]) || !inChunk(&next[0]) {
		t.Error("the short lists around a long one are not on the chunk")
	}
	a.Release()
	for i, v := range list {
		if v != f.Params[0] {
			t.Fatalf("a release wiped element %d of a long list", i)
		}
	}
}
