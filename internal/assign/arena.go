package assign

import (
	"oassis/internal/vocab"
)

// Bump arenas for successor generation. A Space generates thousands of
// lattice nodes per run and each node needs a [][]Term header plus one
// fresh value row; allocating them individually made Successors the
// engine's allocation hotspot. The arenas hand out sub-slices of
// block-allocated backing arrays instead: allocation is a bounds check and
// a slice expression, and the blocks are released together when the last
// assignment referencing them becomes unreachable (assignments keep their
// blocks alive through the sub-slices, so the arena owner — the per-session
// Space — may be dropped earlier).
//
// Lifetime rules: arena-allocated slices are immutable after being handed
// out (assignments are canonical and never mutated in place), blocks are
// never reused or shrunk, and the arenas are single-owner — only the
// engine goroutine that owns the Space may allocate. Rejected successor
// candidates never touch the arenas; they are assembled in reusable
// scratch buffers and copied in only once accepted.

// Block sizes, in terms (or rows). A Space's first block holds
// arenaMinBlock items, and each next block doubles the last one up to
// arenaBlock, where block allocations are amortized. The spare capacity a
// Space strands is thus at most its last block, which on a small lattice
// is no more than what the lattice uses. The serving tier keeps thousands
// of lattices of a few dozen nodes live at once; with full-size blocks
// from the start each of them held a 24 KB header block (1024 rows of
// 24 B) and a 4 KB term block, almost all of it unused.
const (
	arenaMinBlock = 16
	arenaBlock    = 1024
)

// nextBlock sizes the block that follows one of capacity prev (0 for the
// first) when n more items must fit.
func nextBlock(prev, n int) int {
	size := min(max(2*prev, arenaMinBlock), arenaBlock)
	return max(size, n)
}

// termArena bump-allocates immutable []vocab.Term rows.
type termArena struct {
	cur []vocab.Term
}

// clone copies vs into the arena and returns the stable full-capacity
// sub-slice.
func (a *termArena) clone(vs []vocab.Term) []vocab.Term {
	n := len(vs)
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		a.cur = make([]vocab.Term, 0, nextBlock(cap(a.cur), n))
	}
	start := len(a.cur)
	a.cur = a.cur[:start+n]
	out := a.cur[start : start+n : start+n]
	copy(out, vs)
	return out
}

// hdrArena bump-allocates immutable [][]vocab.Term assignment headers.
type hdrArena struct {
	cur [][]vocab.Term
}

// alloc returns an uninitialized n-row header from the arena.
func (a *hdrArena) alloc(n int) [][]vocab.Term {
	if n == 0 {
		return nil
	}
	if cap(a.cur)-len(a.cur) < n {
		a.cur = make([][]vocab.Term, 0, nextBlock(cap(a.cur), n))
	}
	start := len(a.cur)
	a.cur = a.cur[:start+n]
	return a.cur[start : start+n : start+n]
}
