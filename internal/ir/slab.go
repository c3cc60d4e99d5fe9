package ir

// Slabs: a module's Values, Blocks and the pointer lists between them
// (operands, incoming blocks, the instruction lists irbuild and cloning
// size exactly, a block's first two predecessors) are cut from chunks the
// Module owns rather than allocated one by one. A chunk is never reused —
// what is cut from it is zero when it is handed out — and all of a module's
// IR becomes garbage together, when the last reference into the module goes.
//
// That is the ownership rule the workers' scratch memory follows (Wipe,
// Release): nothing that outlives a unit may point into it. One stale
// *Value used to pin the values reachable from it; now it pins its chunk,
// and through any value of the chunk the whole module.
//
// A function created by Module.NewFunc, or cloned with its module, cuts from
// the module's slab; a bare function (NewFunc, CloneFunc, a decoded body)
// has one of its own.
type slab struct {
	values  []Value
	blocks  []Block
	valPtrs []*Value
	blkPtrs []*Block
}

// Chunk lengths double from the first bound to the second: a function of a
// few values (a decoded full-cache body has a slab to itself) does not pay
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
func cut[T any](chunk *[]T, n int) []T {
	c := *chunk
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
		c = make([]T, 0, size)
	}
	end := len(c) + n
	*chunk = c[:end]
	return c[end-n : end : end]
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
