package parser

import "statefulcc/internal/ast"

// arena is the memory a worker's parser cuts a file's AST from: the hot
// node types — every one the megarepo uses five or more times a unit — and
// the exact-size lists take copies out, each kind from typed chunks that
// come back, wiped, when the scratch is released. A worker's scratch
// therefore parses unit after unit without feeding the garbage collector,
// and every tree cut from it is invalid after the release: its nodes are
// zero or belong to the next file. The rare nodes (a file, constants,
// array types, literals of bool and string, break, continue, expression
// statements) are allocated one by one. The package-level functions cut
// from a fresh arena that nobody releases, so their trees are the caller's.
//
// The ownership rule is irbuild's for IR (ir.Arena): nothing that outlives
// the unit may point into the arena. A tree points out of it only to
// strings, which are ordinary heap strings (lexer.Names), so the IR and the
// diagnostics made from a tree keep nothing of it alive.
type arena struct {
	funcs     chunks[ast.FuncDecl]
	externs   chunks[ast.ExternDecl]
	vars      chunks[ast.VarDecl]
	params    chunks[ast.Param]
	scalars   chunks[ast.ScalarType]
	blocks    chunks[ast.BlockStmt]
	declStmts chunks[ast.DeclStmt]
	assigns   chunks[ast.AssignStmt]
	ifs       chunks[ast.IfStmt]
	whiles    chunks[ast.WhileStmt]
	fors      chunks[ast.ForStmt]
	returns   chunks[ast.ReturnStmt]
	idents    chunks[ast.IdentExpr]
	ints      chunks[ast.IntLit]
	binaries  chunks[ast.BinaryExpr]
	unaries   chunks[ast.UnaryExpr]
	calls     chunks[ast.CallExpr]
	indexes   chunks[ast.IndexExpr]
	parens    chunks[ast.ParenExpr]

	stmtLists  chunks[ast.Stmt]
	exprLists  chunks[ast.Expr]
	paramLists chunks[*ast.Param]
	declLists  chunks[ast.Decl]
}

// release takes back every chunk handed out since the last release, wiped.
func (a *arena) release() {
	a.funcs.release()
	a.externs.release()
	a.vars.release()
	a.params.release()
	a.scalars.release()
	a.blocks.release()
	a.declStmts.release()
	a.assigns.release()
	a.ifs.release()
	a.whiles.release()
	a.fors.release()
	a.returns.release()
	a.idents.release()
	a.ints.release()
	a.binaries.release()
	a.unaries.release()
	a.calls.release()
	a.indexes.release()
	a.parens.release()
	a.stmtLists.release()
	a.exprLists.release()
	a.paramLists.release()
	a.declLists.release()
}

// chunks is one kind's memory: every chunk made so far, in the order it was
// made, the first next of them handed out since the last release and the
// last of those the one being cut. A chunk's length is how much of it is
// cut.
type chunks[T any] struct {
	made [][]T
	next int
}

// Chunk capacities double from the first bound to the second, as the IR
// slab's do (ir/slab.go): a small file does not pay for a large one's chunk.
// The k-th chunk of a kind always asks for the same size, so a released
// chunk comes back for the request it was made for.
const (
	minChunk = 32
	maxChunk = 256
)

// cut takes n zeroed elements off the current chunk — with no spare
// capacity, so appending to them moves them instead of running into their
// neighbours — or off the next one. A list longer than a chunk gets a chunk
// of its length, which stays with the arena.
func (c *chunks[T]) cut(n int) []T {
	if c.next > 0 {
		cur := c.made[c.next-1]
		if end := len(cur) + n; end <= cap(cur) {
			c.made[c.next-1] = cur[:end]
			return cur[end-n : end : end]
		}
	}
	size := maxChunk
	if c.next < 3 {
		size = minChunk << c.next
	}
	size = max(size, n)
	if c.next == len(c.made) {
		c.made = append(c.made, nil)
	}
	if cap(c.made[c.next]) < size {
		c.made[c.next] = make([]T, 0, size)
	}
	cur := c.made[c.next][:n]
	c.made[c.next] = cur
	c.next++
	return cur[:n:n]
}

func (c *chunks[T]) release() {
	for i, cur := range c.made[:c.next] {
		clear(cur)
		c.made[i] = cur[:0]
	}
	c.next = 0
}
