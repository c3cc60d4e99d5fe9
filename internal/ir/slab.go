package ir

// Slabs: a module's Values, Blocks and the pointer lists between them
// (operands, incoming blocks, the instruction lists irbuild and cloning
// size exactly, a block's first two predecessors) are cut from chunks the
// Module owns rather than allocated one by one. What is cut from a chunk is
// zero when it is handed out, and all of a module's IR goes together.
//
// Where the chunks come from decides when it goes. A module made by
// Arena.NewModule takes its chunks from the arena's free list and gives
// them back, wiped, at Arena.Release: a compile worker's arena (the
// irbuild.Scratch it lowers with) serves unit after unit without feeding
// the garbage collector, and after Release every module cut from it is
// invalid — its values are zero or belong to the next module. Any other
// module (a literal Module, CloneModule's copy, a decoded one) and a bare
// function (NewFunc, CloneFunc, a decoded body) have no free list: their
// chunks come from make, are never reused, and become garbage together when
// the last reference into the module goes.
//
// That is the ownership rule the workers' scratch memory follows (Wipe,
// Release): nothing that outlives a unit may point into it. One stale
// *Value used to pin the values reachable from it; now it pins its chunk,
// and through any value of the chunk the whole module — or, on an arena,
// reads another unit's IR after the release.
//
// A function created by Module.NewFunc, or cloned with its module, cuts from
// the module's slab; a bare function has one of its own.
type slab struct {
	values  chunked[Value]
	blocks  chunked[Block]
	valPtrs chunked[*Value]
	blkPtrs chunked[*Block]
}

// chunked is one kind of a slab's memory: the chunk being cut, and the free
// list its next chunk comes from (nil: make).
type chunked[T any] struct {
	chunk []T
	free  *freeList[T]
}

// Chunk lengths double from the first bound to the second: a function of a
// few values (a NewFunc or CloneFunc function has a slab to itself) does not pay
// for a large one's chunk. 256 values are 28 KB, the allocator's largest
// small-object class. A megarepo unit (about 1 000 values) leaves a fifth of
// what it reserves unused; chunks of 64 leave 5 % and were 3-5 % slower on
// the frontend benchmark, so time won over bytes.
const (
	minChunk = 32
	maxChunk = 256
)

// cut takes n zeroed elements off the chunk — with no spare capacity, so
// appending to them moves them instead of running into their neighbours —
// and starts a new chunk when this one cannot hold them.
func cut[T any](s *chunked[T], n int) []T {
	c := s.chunk
	if len(c)+n > cap(c) {
		size := 2 * cap(c)
		if size < minChunk {
			size = minChunk
		} else if size > maxChunk {
			size = maxChunk
		}
		if 4*n > size {
			// A list this long gets its own memory; the chunk keeps serving
			// the short ones.
			return make([]T, n)
		}
		c = s.free.take(size)
	}
	end := len(c) + n
	s.chunk = c[:end]
	return c[end-n : end : end]
}

// Arena is IR memory reused from module to module: the chunks the modules
// made by NewModule are cut from. One module at a time, one goroutine; the
// zero value is ready.
type Arena struct {
	values  freeList[Value]
	blocks  freeList[Block]
	valPtrs freeList[*Value]
	blkPtrs freeList[*Block]
}

// NewModule returns an empty module whose IR is cut from the arena, valid
// until the arena's next Release.
func (a *Arena) NewModule(unit string) *Module {
	m := &Module{Unit: unit}
	m.mem.values.free = &a.values
	m.mem.blocks.free = &a.blocks
	m.mem.valPtrs.free = &a.valPtrs
	m.mem.blkPtrs.free = &a.blkPtrs
	return m
}

// Release takes back every chunk handed out since the last Release, wiped,
// keeping the memory. The modules cut from them must not be used again.
func (a *Arena) Release() {
	a.values.release()
	a.blocks.release()
	a.valPtrs.release()
	a.blkPtrs.release()
}

// freeList holds one kind's chunks: every chunk the arena has made, in the
// order it made them, those before next in use. A slab asks for the same
// sequence of sizes for every module, so a released chunk comes back for
// the request it was made for.
type freeList[T any] struct {
	chunks [][]T
	next   int
}

// take returns an empty chunk of at least size elements, all zero: a
// released one, or a new one (always, on a nil list).
func (l *freeList[T]) take(size int) []T {
	if l == nil {
		return make([]T, 0, size)
	}
	if l.next == len(l.chunks) {
		l.chunks = append(l.chunks, nil)
	}
	c := l.chunks[l.next]
	if cap(c) < size {
		c = make([]T, 0, size)
		l.chunks[l.next] = c
	}
	l.next++
	return c[:0]
}

func (l *freeList[T]) release() {
	for _, c := range l.chunks[:l.next] {
		Wipe(c)
	}
	l.next = 0
}

// slab returns the memory f's IR is cut from.
func (f *Func) slab() *slab {
	if f.mem == nil {
		f.mem = new(slab)
	}
	return f.mem
}

func (f *Func) newValue() *Value {
	v := &cut(&f.slab().values, 1)[0]
	v.ID = f.takeValueID()
	return v
}

// ValueList copies a complete list of values into the function's slab (nil
// for none): the operands of a value that had to be numbered before they
// were computed (v.Args = f.ValueList(x, y)); NewValue does the same for
// the operands it is given.
func (f *Func) ValueList(vs ...*Value) []*Value {
	if len(vs) == 0 {
		return nil
	}
	list := cut(&f.slab().valPtrs, len(vs))
	copy(list, vs)
	return list
}

// BlockList is ValueList for blocks: a branch's targets, a phi's incoming
// blocks, a finished function's layout.
func (f *Func) BlockList(bs ...*Block) []*Block {
	if len(bs) == 0 {
		return nil
	}
	list := cut(&f.slab().blkPtrs, len(bs))
	copy(list, bs)
	return list
}
