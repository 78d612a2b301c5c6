// Package workspace provides a sync.Pool-backed arena of reusable scratch
// buffers for the hot path of the multilevel pipeline, in the spirit of
// METIS's wspace. Every coarsening level, refinement pass and initial
// partitioning trial needs a handful of vertex-sized integer and boolean
// arrays whose lifetime is bounded by a single call; allocating them fresh
// dominates the constant factor the paper's 10-35x speedup claim depends
// on. A Workspace keeps those buffers alive between calls so later levels
// and calls (via the global pool) reuse them instead of allocating.
//
// That reuse is partial, not allocation-free: a free list holds at most
// maxFree buffers per type and PutInt drops any buffer offered beyond
// that, whatever its size. On the recursive path the large per-level
// hierarchy arrays are the ones dropped. Measured on FE3D-125k (k=32,
// default options), one call obtains ~460 MiB of fresh buffers from Int,
// ~458 MiB of which PutInt then refuses; see ROADMAP.md.
//
// Invariants:
//
//   - A buffer obtained from a Workspace must be returned (PutInt etc.) or
//     abandoned to the garbage collector — never both retained by a caller
//     AND returned. No pooled buffer may escape the call tree that obtained
//     it; results that outlive a call are copied into fresh allocations
//     (see refine.(*Bisection).Detach).
//   - Buffers come back with arbitrary contents unless the getter says
//     otherwise (IntFilled, Bool); callers must fully initialize whatever
//     they read.
//   - A Workspace is NOT safe for concurrent use. Each goroutine gets its
//     own via Get/Put; the global pool makes that cheap.
package workspace

import (
	"math/rand"
	"sync"
)

// maxFree bounds the number of idle buffers retained per type so a
// pathological size mix cannot pin unbounded memory.
const maxFree = 32

// Workspace is a per-goroutine free list of scratch buffers.
type Workspace struct {
	ints   [][]int
	int64s [][]int64
	bools  [][]bool
}

var pool = sync.Pool{New: func() any { return new(Workspace) }}

// Get borrows a Workspace from the global pool.
func Get() *Workspace { return pool.Get().(*Workspace) }

// Put returns ws (and every buffer it holds) to the global pool. ws must
// not be used afterwards.
func Put(ws *Workspace) {
	if ws != nil {
		pool.Put(ws)
	}
}

// Int returns a length-n []int with arbitrary contents. A nil Workspace
// falls back to plain allocation, so ws-threaded code paths need no nil
// checks.
func (ws *Workspace) Int(n int) []int {
	if ws == nil {
		return make([]int, n)
	}
	if s, ok := takeInt(&ws.ints, n); ok {
		return s[:n]
	}
	// Headroom so a slightly larger request later in the V-cycle can still
	// reuse this buffer.
	return make([]int, n, n+n/4+8)
}

// IntFilled returns a length-n []int with every element set to v.
func (ws *Workspace) IntFilled(n, v int) []int {
	s := ws.Int(n)
	for i := range s {
		s[i] = v
	}
	return s
}

// PutInt returns a buffer obtained from Int/IntFilled to the free list.
// Passing a slice that was never pooled is allowed (it simply joins the
// list); passing one still referenced elsewhere is not.
func (ws *Workspace) PutInt(s []int) {
	if ws == nil || cap(s) == 0 || len(ws.ints) >= maxFree {
		return
	}
	ws.ints = append(ws.ints, s[:cap(s)])
}

// Int64 returns a length-n []int64 with arbitrary contents.
func (ws *Workspace) Int64(n int) []int64 {
	if ws == nil {
		return make([]int64, n)
	}
	if s, ok := takeInt64(&ws.int64s, n); ok {
		return s[:n]
	}
	return make([]int64, n, n+n/4+8)
}

// PutInt64 returns a buffer obtained from Int64 to the free list.
func (ws *Workspace) PutInt64(s []int64) {
	if ws == nil || cap(s) == 0 || len(ws.int64s) >= maxFree {
		return
	}
	ws.int64s = append(ws.int64s, s[:cap(s)])
}

// Bool returns a length-n []bool cleared to false.
func (ws *Workspace) Bool(n int) []bool {
	if ws == nil {
		return make([]bool, n)
	}
	if s, ok := takeBool(&ws.bools, n); ok {
		s = s[:n]
		for i := range s {
			s[i] = false
		}
		return s
	}
	return make([]bool, n, n+n/4+8)
}

// PutBool returns a buffer obtained from Bool to the free list.
func (ws *Workspace) PutBool(s []bool) {
	if ws == nil || cap(s) == 0 || len(ws.bools) >= maxFree {
		return
	}
	ws.bools = append(ws.bools, s[:cap(s)])
}

// PermInto writes a random permutation of [0,n) into p (typically a pooled
// buffer) and returns p[:n]. It consumes the RNG exactly like rng.Perm(n) —
// including the i = 0 draw — so pooled and allocating code paths produce
// bit-identical results for the same seed.
func PermInto(rng *rand.Rand, n int, p []int) []int {
	p = p[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// takeInt removes and returns the smallest free buffer with capacity >= n.
// Best-fit keeps the big finest-level buffers available for the requests
// that actually need them instead of burning them on tiny coarse levels.
func takeInt(free *[][]int, n int) ([]int, bool) {
	best := -1
	for i, s := range *free {
		if cap(s) >= n && (best < 0 || cap(s) < cap((*free)[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	s := (*free)[best]
	last := len(*free) - 1
	(*free)[best] = (*free)[last]
	(*free)[last] = nil
	*free = (*free)[:last]
	return s, true
}

func takeInt64(free *[][]int64, n int) ([]int64, bool) {
	best := -1
	for i, s := range *free {
		if cap(s) >= n && (best < 0 || cap(s) < cap((*free)[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	s := (*free)[best]
	last := len(*free) - 1
	(*free)[best] = (*free)[last]
	(*free)[last] = nil
	*free = (*free)[:last]
	return s, true
}

func takeBool(free *[][]bool, n int) ([]bool, bool) {
	best := -1
	for i, s := range *free {
		if cap(s) >= n && (best < 0 || cap(s) < cap((*free)[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	s := (*free)[best]
	last := len(*free) - 1
	(*free)[best] = (*free)[last]
	(*free)[last] = nil
	*free = (*free)[:last]
	return s, true
}
