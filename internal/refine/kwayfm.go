// Boundary k-way refinement (the BKWAY policy): the paper's §3.3 insight —
// only boundary vertices ever move, so restricting the search to the
// boundary buys KL-quality cuts at a fraction of the cost — applied to the
// direct k-way path. Where kway.Refine sweeps every vertex of the graph on
// every pass, this engine maintains an explicit boundary set plus a
// per-vertex best-move structure (best target partition and gain) and only
// ever touches boundary vertices.
//
// Each pass is a propose/commit protocol:
//
//  1. Snapshot: the current boundary is captured twice — permuted with a
//     pass-derived seed (the commit order), and in ascending vertex id
//     (the propose order).
//  2. Propose (parallelizable): for every boundary vertex whose external
//     degree is at least its internal degree (ext >= id, i.e. 2·ext >=
//     wdeg, the vertex's total edge weight), in ascending id, the best
//     admissible target partition and its gain are computed against the
//     start-of-pass state and recorded in the best-move arrays. Any other
//     boundary vertex gets no proposal without a scan: a move to part t
//     gains ed[t] - id <= ext - id < 0, which the best-move rule never
//     accepts — the same candidate rule as METIS's k-way refiner. On a
//     mesh that leaves about a tenth of the boundary to scan. Ascending
//     order walks the partition vector, the vertex weights and the
//     adjacency arrays front to back, so the loads stay in cache; one
//     adjacency scan both sums the per-part degrees and collects the
//     distinct adjacent parts the target choice ranges over. Proposals
//     read shared state but write only their own vertex's slot, so the
//     phase splits across a worker pool (contiguous id ranges, sized by
//     the number of candidates) without locks.
//  3. Commit (serial, in the shuffled snapshot order): every proposal is
//     re-validated against the live state — the gain is recomputed, the
//     balance constraint re-checked — and applied only if still
//     profitable.
//
// A proposal depends only on the start-of-pass state and picks the maximum
// of a total order (gain, then the lighter part, then the lower part id),
// so neither the propose order nor its chunking across workers can change
// it; commits happen in one seeded order. The result is therefore
// bit-identical for every worker count: Workers=0 is the deterministic
// golden reference and Workers=N is the same partition, faster.
package refine

import (
	"sync"
	"time"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// KWayOptions configures boundary k-way refinement (RefineKWay).
type KWayOptions struct {
	// MaxPasses bounds the number of propose/commit passes (0 means 8).
	MaxPasses int
	// Ubfactor is the allowed imbalance per part (0 means 1.05).
	Ubfactor float64
	// Seed drives the per-pass visit permutations; a fixed seed fixes the
	// result bit-for-bit.
	Seed int64
	// Workers is the propose-phase fan-out; <= 1 proposes serially. The
	// result is bit-identical for every worker count — commits are always
	// serial in snapshot order — so Workers is a scheduling knob, never a
	// quality one.
	Workers int
	// Workspace, when non-nil, supplies pooled scratch for every array the
	// engine needs; the move loop then runs allocation-free in steady
	// state. Results are identical either way.
	Workspace *workspace.Workspace
	// Level is the hierarchy level reported in trace events (engine-set).
	Level int
	// Tracer, when non-nil, receives one KindPass event per pass with the
	// boundary size, moves and resulting cut. Results are bit-identical
	// with or without a tracer.
	Tracer trace.Tracer
	// Counters, when non-nil, accumulates pass and move totals.
	Counters *trace.Counters
	// Injector, when non-nil, is consulted at every pass boundary
	// (faults.SiteKWayPass); an injected error abandons the remaining
	// passes, keeping the moves committed so far.
	Injector *faults.Injector
}

func (o KWayOptions) withDefaults() KWayOptions {
	if o.MaxPasses <= 0 {
		o.MaxPasses = 8
	}
	if o.Ubfactor <= 1 {
		o.Ubfactor = 1.05
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// splitmix64 is the per-pass permutation generator: a tiny value-type PRNG
// so the move loop stays allocation-free (math/rand.New allocates).
type splitmix64 struct{ x uint64 }

func (s *splitmix64) next() uint64 {
	s.x += 0x9E3779B97F4A7C15
	z := s.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is negligible at any
// boundary size this engine sees and keeps the draw branch-free.
func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}

// kwayRefiner is the engine state: the boundary hash over the k-way
// partition plus the per-vertex best-move structure. Every array is pooled.
type kwayRefiner struct {
	p *kway.Partition
	// ext[v] is the total weight of v's edges that cross parts; v is a
	// boundary vertex iff ext[v] > 0.
	ext []int
	// wdeg[v] is the total weight of v's edges; a boundary vertex with
	// 2·ext[v] < wdeg[v] has no move that keeps the cut.
	wdeg []int
	// Boundary set with O(1) insert/remove/membership.
	bndList  []int
	bndIndex []int
	// Best-move structure: bestTo[v] is the proposed target partition of
	// boundary vertex v (-1 when no admissible move exists) and
	// bestGain[v] the cut improvement of that move under the state it was
	// proposed against.
	bestTo   []int
	bestGain []int
}

func (r *kwayRefiner) bndInsert(v int) {
	if r.bndIndex[v] >= 0 {
		return
	}
	r.bndIndex[v] = len(r.bndList)
	r.bndList = append(r.bndList, v)
}

func (r *kwayRefiner) bndRemove(v int) {
	i := r.bndIndex[v]
	if i < 0 {
		return
	}
	last := len(r.bndList) - 1
	r.bndList[i] = r.bndList[last]
	r.bndIndex[r.bndList[i]] = i
	r.bndList = r.bndList[:last]
	r.bndIndex[v] = -1
}

// bndFix re-derives v's boundary membership from ext[v].
func (r *kwayRefiner) bndFix(v int) {
	if r.ext[v] > 0 {
		r.bndInsert(v)
	} else {
		r.bndRemove(v)
	}
}

// RefineKWay runs boundary k-way refinement on p in place and returns the
// final cut. See the package comment of this file for the propose/commit
// protocol; the result is deterministic for a fixed seed and identical for
// every Workers value.
func RefineKWay(p *kway.Partition, opts KWayOptions) int {
	opts = opts.withDefaults()
	g := p.G
	n := g.NumVertices()
	k := p.K
	if n == 0 || k < 2 {
		return p.Cut
	}
	limit := kwayLimit(g, k, opts.Ubfactor)

	ws := opts.Workspace
	if ws == nil {
		ws = workspace.Get()
		defer workspace.Put(ws)
	}
	// r stays a stack value: the propose workers are named functions taking
	// explicit arguments, never closures over r, so the serial move loop
	// runs without a single heap allocation in steady state.
	r := kwayRefiner{
		p:        p,
		ext:      ws.Int(n),
		wdeg:     ws.Int(n),
		bndIndex: ws.IntFilled(n, -1),
		bndList:  ws.Int(n)[:0],
		bestTo:   ws.Int(n),
		bestGain: ws.Int(n),
	}
	// Initial boundary build: one sweep over the edges.
	for v := 0; v < n; v++ {
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		e, d := 0, 0
		pv := p.Where[v]
		for i, u := range adj {
			d += wgt[i]
			if p.Where[u] != pv {
				e += wgt[i]
			}
		}
		r.ext[v] = e
		r.wdeg[v] = d
		if e > 0 {
			r.bndInsert(v)
		}
	}

	// order holds the permuted boundary snapshot of the current pass (the
	// commit order) and asc the same vertices in ascending id (the propose
	// order). The per-worker degree scratch lives in W*k slabs: ed and seen
	// with monotonically increasing stamps, so they never need clearing
	// between passes, and touched for the distinct adjacent parts of the
	// vertex being proposed.
	order := ws.Int(n)
	asc := ws.Int(n)
	workers := opts.Workers
	edSlab := ws.Int(workers * k)
	seenSlab := ws.IntFilled(workers*k, 0)
	touchedSlab := ws.Int(workers * k)
	stamps := ws.IntFilled(workers, 0)
	rng := splitmix64{x: uint64(opts.Seed)*0x9E3779B97F4A7C15 + 0x94D049BB133111EB}

	for pass := 0; pass < opts.MaxPasses; pass++ {
		if ierr := opts.Injector.Fire(faults.SiteKWayPass); ierr != nil {
			// Abandon the remaining passes; everything committed so far is
			// a valid, balanced partition.
			break
		}
		bsize := len(r.bndList)
		if bsize == 0 {
			break
		}
		var t0 time.Time
		if opts.Tracer != nil {
			t0 = time.Now()
		}

		// Snapshot and permute the boundary (Fisher-Yates on a copy, so
		// mid-pass boundary churn cannot perturb the visit order).
		snap := order[:bsize]
		copy(snap, r.bndList)
		for i := bsize - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			snap[i], snap[j] = snap[j], snap[i]
		}

		// Propose over the same vertices in ascending id: a sequential
		// bndIndex scan that drops the vertices with ext < id (they can
		// only lose cut, so their slot is cleared here). Each worker fills
		// the best-move slots of its contiguous range; the phase only
		// reads shared state, so neither the order nor the chunking
		// changes results.
		props := asc[:0]
		for v, i := range r.bndIndex {
			if i < 0 {
				continue
			}
			if 2*r.ext[v] < r.wdeg[v] {
				r.bestTo[v] = -1
				continue
			}
			props = append(props, v)
		}
		w := workers
		if maxW := len(props)/512 + 1; w > maxW {
			w = maxW
		}
		if w <= 1 {
			kwayPropose(p, r.bestTo, r.bestGain, props, edSlab[:k], seenSlab[:k], touchedSlab[:k], &stamps[0], limit)
		} else {
			r.proposeParallel(props, w, k, edSlab, seenSlab, touchedSlab, stamps, limit)
		}

		// Commit serially in the shuffled snapshot order, re-validating
		// every proposal against the live state.
		moves, posGain := r.commit(snap, edSlab[:k], seenSlab[:k], &stamps[0], limit)

		if opts.Counters != nil {
			opts.Counters.RefinePasses++
			opts.Counters.RefineMoves += moves
			opts.Counters.PositiveGainMoves += posGain
		}
		if opts.Tracer != nil {
			opts.Tracer.Event(trace.Event{
				Kind:              trace.KindPass,
				Level:             opts.Level,
				Pass:              pass,
				Moves:             moves,
				PositiveGainMoves: posGain,
				Boundary:          bsize,
				Cut:               p.Cut,
				Algorithm:         "BKWAY",
				ElapsedNS:         time.Since(t0).Nanoseconds(),
			})
		}
		if moves == 0 {
			break
		}
	}

	ws.PutInt(r.ext)
	ws.PutInt(r.wdeg)
	ws.PutInt(r.bndIndex)
	ws.PutInt(r.bndList)
	ws.PutInt(r.bestTo)
	ws.PutInt(r.bestGain)
	ws.PutInt(order)
	ws.PutInt(asc)
	ws.PutInt(edSlab)
	ws.PutInt(seenSlab)
	ws.PutInt(touchedSlab)
	ws.PutInt(stamps)
	return p.Cut
}

// kwayLimit is the heaviest a part may become: the same slackened
// tolerance as kway.Refine, the imbalance factor, never tighter than one
// maximum vertex above target (heavy multinodes on coarse levels must stay
// movable).
func kwayLimit(g *graph.Graph, k int, ubfactor float64) int {
	target := g.TotalVertexWeight() / k
	maxVwgt := 0
	for _, w := range g.Vwgt {
		maxVwgt = max(maxVwgt, w)
	}
	return max(int(ubfactor*float64(target)), target+maxVwgt)
}

// proposeParallel fans the propose phase out over w workers, the calling
// goroutine taking the first chunk. Workers are named functions with
// explicit arguments (no closures), so the parallel machinery costs the
// serial path nothing; worker panics are captured on the worker's own
// stack and re-raised here after the join, because recover never runs
// across goroutines and an unhandled worker panic would kill the process.
func (r *kwayRefiner) proposeParallel(verts []int, w, k int, edSlab, seenSlab, touchedSlab, stamps []int, limit int) {
	bsize := len(verts)
	chunk := (bsize + w - 1) / w
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for wi := 1; wi < w; wi++ {
		lo := wi * chunk
		hi := lo + chunk
		if hi > bsize {
			hi = bsize
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go kwayProposeWorker(&wg, &mu, &panicked, r.p, r.bestTo, r.bestGain, verts[lo:hi],
			edSlab[wi*k:(wi+1)*k], seenSlab[wi*k:(wi+1)*k], touchedSlab[wi*k:(wi+1)*k], &stamps[wi], limit)
	}
	kwayPropose(r.p, r.bestTo, r.bestGain, verts[:chunk], edSlab[:k], seenSlab[:k], touchedSlab[:k], &stamps[0], limit)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

func kwayProposeWorker(wg *sync.WaitGroup, mu *sync.Mutex, panicked *any,
	p *kway.Partition, bestTo, bestGain, verts, ed, seen, touched []int, stamp *int, limit int) {
	defer wg.Done()
	defer func() {
		if rec := recover(); rec != nil {
			mu.Lock()
			if *panicked == nil {
				*panicked = rec
			}
			mu.Unlock()
		}
	}()
	kwayPropose(p, bestTo, bestGain, verts, ed, seen, touched, stamp, limit)
}

// kwayPropose fills the best-move slots for the given boundary vertices:
// the admissible adjacent part with the highest gain (ties broken toward
// the lighter part, then the lower part id), or -1 when no move is worth
// committing. ed/seen/touched/stamp are the caller's private k-entry
// scratch; the function only reads shared partition state and writes its
// own vertices' best-move slots, which is what makes the visit order and
// the chunking result-neutral.
func kwayPropose(p *kway.Partition, bestTo, bestGain, verts, ed, seen, touched []int, stamp *int, limit int) {
	g := p.G
	for _, v := range verts {
		bestTo[v] = -1
		from := p.Where[v]
		vw := g.Vwgt[v]
		if p.Pwgt[from]-vw <= 0 {
			// Never propose emptying a part.
			continue
		}
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		*stamp++
		s := *stamp
		nt := 0
		for i, u := range adj {
			pu := p.Where[u]
			if seen[pu] != s {
				seen[pu] = s
				ed[pu] = 0
				touched[nt] = pu
				nt++
			}
			ed[pu] += wgt[i]
		}
		id := 0
		if seen[from] == s {
			id = ed[from]
		}
		best, bestG := -1, 0
		for _, to := range touched[:nt] {
			if to == from {
				continue
			}
			if p.Pwgt[to]+vw > limit {
				continue
			}
			gain := ed[to] - id
			var better bool
			if best < 0 {
				// First candidate: positive gain, or zero gain that
				// strictly improves the weight spread.
				better = gain > 0 || (gain == 0 && p.Pwgt[to]+vw < p.Pwgt[from])
			} else {
				better = gain > bestG ||
					(gain == bestG && (p.Pwgt[to] < p.Pwgt[best] ||
						(p.Pwgt[to] == p.Pwgt[best] && to < best)))
			}
			if better {
				best, bestG = to, gain
			}
		}
		if best >= 0 {
			bestTo[v] = best
			bestGain[v] = bestG
		}
	}
}

// commit applies the proposals in snapshot order. Each proposal's gain is
// recomputed against the live state (earlier commits of this pass may have
// changed it) and the balance constraints re-checked; a move is applied
// only if it still reduces the cut, or keeps it while strictly improving
// the weight spread. Returns the moves made and how many had positive gain.
func (r *kwayRefiner) commit(snap []int, ed, seen []int, stamp *int, limit int) (moves, posGain int) {
	p := r.p
	g := p.G
	for _, v := range snap {
		to := r.bestTo[v]
		if to < 0 {
			continue
		}
		from := p.Where[v]
		if from == to {
			continue
		}
		vw := g.Vwgt[v]
		if p.Pwgt[to]+vw > limit || p.Pwgt[from]-vw <= 0 {
			continue
		}
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		*stamp++
		s := *stamp
		totW := 0
		for i, u := range adj {
			pu := p.Where[u]
			if seen[pu] != s {
				seen[pu] = s
				ed[pu] = 0
			}
			ed[pu] += wgt[i]
			totW += wgt[i]
		}
		if seen[to] != s {
			// The proposed target is no longer adjacent; a commit would
			// only grow the cut.
			continue
		}
		id := 0
		if seen[from] == s {
			id = ed[from]
		}
		gain := ed[to] - id
		if gain < 0 || (gain == 0 && p.Pwgt[to]+vw >= p.Pwgt[from]) {
			continue
		}
		// Apply: partition vector, weights, cut, then the incremental
		// external degrees and boundary set of v and its neighbors.
		p.Where[v] = to
		p.Pwgt[from] -= vw
		p.Pwgt[to] += vw
		p.Cut -= gain
		r.ext[v] = totW - ed[to]
		r.bndFix(v)
		for i, u := range adj {
			switch p.Where[u] {
			case from:
				r.ext[u] += wgt[i]
				r.bndFix(u)
			case to:
				r.ext[u] -= wgt[i]
				r.bndFix(u)
			}
		}
		moves++
		if gain > 0 {
			posGain++
		}
	}
	return moves, posGain
}
