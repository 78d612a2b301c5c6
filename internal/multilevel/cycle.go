package multilevel

import (
	"fmt"
	"math/rand"
	"time"

	"mlpart/internal/coarsen"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// This file is the composable-cycle pipeline: the V-cycle decomposed into
// re-enterable phases — phaseCoarsen, phaseInitial, phaseSeed,
// phaseUncoarsenKWay — plus the iterated-cycle driver behind the
// eco/strong presets. The first cycle of a run is the classic coarsen →
// initial-partition → refine walk (runKWay composes it from the same
// phases); every extra cycle swaps phaseInitial for phaseSeed: the graph
// is re-coarsened *respecting* the current partition, which therefore
// projects onto the coarsest graph with exactly its fine-level cut (the
// contraction invariant), and boundary k-way refinement improves it at
// every level on the way back up.

// cycleBranch offsets the seed-derivation branch of extra cycles so they
// never collide with the recursion branches (2, 3) of the first cycle.
const cycleBranch int64 = 0x5EED

// phaseCoarsen builds one cycle's hierarchy, keeping at least 15*k coarse
// vertices so the coarsest graph can host k parts. respect, when non-nil,
// makes the coarsening partition-respecting (matchings never cross parts).
func (e *engine) phaseCoarsen(g *graph.Graph, k int, respect []int, rng *rand.Rand, ws *workspace.Workspace, tr trace.Tracer, stats *Stats) *coarsen.Hierarchy {
	coarsenTo := e.opts.CoarsenTo
	if min := 15 * k; coarsenTo < min {
		coarsenTo = min
	}
	t0 := time.Now()
	copts := coarsen.Options{
		Scheme:           e.opts.Matching,
		CoarsenTo:        coarsenTo,
		MaxClusterWeight: e.opts.MaxClusterWeight,
		LPRounds:         e.opts.LPRounds,
		Respect:          respect,
		Workers:          e.opts.CoarsenWorkers,
		Workspace:        ws,
		Tracer:           tr,
		Injector:         e.inj,
		Degradations:     &stats.Degradations,
	}
	h := coarsen.Coarsen(g, copts, rng)
	stats.CoarsenTime += time.Since(t0)
	stats.Levels += len(h.Levels)
	if n := h.Coarsest().NumVertices(); n > stats.CoarsestN {
		stats.CoarsestN = n
	}
	return h
}

// phaseInitial partitions the coarsest graph into k parts by recursive
// bisection (cheap: the coarsest graph is tiny) and returns the coarse
// where-vector. Its inner trace events are suppressed — the cycle reports
// one KindInitial event for the whole step — and its preset is forced to
// fast so the initial partition never recurses into iterated cycles.
func (e *engine) phaseInitial(h *coarsen.Hierarchy, k int, tr trace.Tracer, stats *Stats) ([]int, error) {
	t0 := time.Now()
	initOpts := e.opts
	initOpts.Parallel = false
	initOpts.KWayRefine = false
	initOpts.Tracer = nil
	initOpts.Preset = PresetFast
	initOpts.Cycles = 1
	coarse := h.Coarsest()
	cres, err := Partition(coarse, k, initOpts)
	if err != nil {
		return nil, err
	}
	stats.InitTime += time.Since(t0)
	stats.InitialCut = cres.EdgeCut
	stats.Bisections += k - 1
	if tr != nil {
		tr.Event(trace.Event{
			Kind:      trace.KindInitial,
			Level:     len(h.Levels) - 1,
			Vertices:  coarse.NumVertices(),
			Cut:       cres.EdgeCut,
			Algorithm: "RB",
			ElapsedNS: time.Since(t0).Nanoseconds(),
		})
	}
	return cres.Where, nil
}

// phaseSeed is the skip-initial-partition mode of extra cycles: it
// projects an existing finest-level partition down the hierarchy onto the
// coarsest graph. Because the hierarchy was coarsened respecting that
// partition, every multinode is pure and the projected coarse partition
// has exactly the fine partition's cut. The returned where is pooled.
func (e *engine) phaseSeed(h *coarsen.Hierarchy, where []int, ws *workspace.Workspace) []int {
	cur := ws.Int(h.Levels[0].Graph.NumVertices())
	copy(cur, where)
	for li := 0; li+1 < len(h.Levels); li++ {
		cmap := h.Levels[li].Cmap
		nxt := ws.Int(h.Levels[li+1].Graph.NumVertices())
		for v, c := range cmap {
			nxt[c] = cur[v]
		}
		ws.PutInt(cur)
		cur = nxt
	}
	return cur
}

// phaseUncoarsenKWay refines the coarsest k-way partition, then projects
// and refines level by level up to the finest graph. It takes ownership
// of where (pooled or fresh) and returns the finest-level where (pooled);
// on cancellation it releases where and returns nil, false. The hierarchy
// itself is not released. useBKWAY selects the boundary k-way kernel over
// the classic full-sweep greedy refinement. The k-way state (part weights
// and cut) is built once on the coarsest graph and carried up through
// every projection.
func (e *engine) phaseUncoarsenKWay(h *coarsen.Hierarchy, k int, where []int, seed int64, ws *workspace.Workspace, stats *Stats, tr trace.Tracer, useBKWAY bool) ([]int, bool) {
	kopts := kway.Options{Ubfactor: e.opts.Ubfactor, Seed: seed, Workspace: ws, Tracer: tr, Counters: &stats.Counters}
	t0 := time.Now()
	p := kway.NewPartition(h.Coarsest(), k, where)
	kopts.Level = len(h.Levels) - 1
	e.guardedKWayRefine(p, kopts, stats, tr, useBKWAY)
	stats.RefineTime += time.Since(t0)
	ok := e.uncoarsen(h, stats, tr, func(li int) int {
		projectKWay(p, h.Levels[li], ws)
		return p.Cut
	}, func(li int) {
		kopts.Level = li
		e.guardedKWayRefine(p, kopts, stats, tr, useBKWAY)
	})
	if !ok {
		ws.PutInt(p.Where)
		return nil, false
	}
	return p.Where, true
}

// projectKWay moves p from the next-coarser graph onto lvl's graph in
// place: the fine where-vector (pooled) replaces the coarse one, which is
// released. Contraction sums vertex weights into multinodes and edge
// weights into coarse edges, and every multinode lies in one part, so the
// projected partition has exactly the coarse partition's part weights and
// cut: Pwgt and Cut carry over without a rescan of the fine graph.
func projectKWay(p *kway.Partition, lvl coarsen.Level, ws *workspace.Workspace) {
	fineWhere := ws.Int(lvl.Graph.NumVertices())
	for v, c := range lvl.Cmap {
		fineWhere[v] = p.Where[c]
	}
	ws.PutInt(p.Where)
	p.G, p.Where = lvl.Graph, fineWhere
}

// vCycle runs one extra multilevel cycle seeded from seedWhere: coarsen
// respecting the partition, project it to the coarsest graph, refine with
// BKWAY at every level on the way up. It returns a fresh where-vector and
// its cut. Failures (injected via the "cycle" site or organic panics)
// surface as errors for the caller's degradation ladder; they never
// propagate a panic.
func (e *engine) vCycle(g *graph.Graph, k int, seedWhere []int, seed int64) (where []int, cut int, stats *Stats, err error) {
	stats = &Stats{}
	defer func() {
		if r := recover(); r != nil {
			where, cut, err = nil, 0, faults.AsPanic(faults.SiteCycle, r)
		}
	}()
	if ierr := e.inj.Fire(faults.SiteCycle); ierr != nil {
		return nil, 0, stats, ierr
	}
	tr := trace.WithSeed(e.tracer, seed)
	rng := rand.New(rand.NewSource(seed))
	ws := workspace.Get()
	defer workspace.Put(ws)

	h := e.phaseCoarsen(g, k, seedWhere, rng, ws, tr, stats)
	emitDegraded(tr, stats.Degradations, 0)
	if cerr := e.ctx.Err(); cerr != nil {
		h.Release(ws)
		return nil, 0, stats, cerr
	}
	cw := e.phaseSeed(h, seedWhere, ws)
	fw, ok := e.phaseUncoarsenKWay(h, k, cw, seed, ws, stats, tr, true)
	if !ok {
		h.Release(ws)
		if cerr := e.ctx.Err(); cerr != nil {
			return nil, 0, stats, cerr
		}
		e.mu.Lock()
		ferr := e.err
		e.mu.Unlock()
		return nil, 0, stats, ferr
	}
	where = make([]int, g.NumVertices())
	copy(where, fw)
	ws.PutInt(fw)
	h.Release(ws)
	return where, refine.ComputeCut(g, where), stats, nil
}

// iterate is the cycle driver behind the eco/strong presets: after the
// first cycle has produced res, it runs CycleCount()-1 extra V-cycles,
// each seeded from the best partition so far with its own derived seed,
// and keeps the best cut. Cancellation at a cycle boundary (or mid-cycle)
// returns the best completed partition silently — a full, valid result.
// Any other cycle failure degrades to the best completed partition,
// recorded in Stats.Degradations, never a hard error.
func (e *engine) iterate(g *graph.Graph, k int, res *Result) {
	res.Stats.Cycles = 1
	cycles := e.opts.CycleCount()
	if cycles <= 1 || k < 2 || g.NumVertices() == 0 {
		return
	}
	tr := trace.WithSeed(e.tracer, e.opts.Seed)
	bestCut := refine.ComputeCut(g, res.Where)
	if tr != nil {
		tr.Event(trace.Event{Kind: trace.KindCycle, Cycle: 0, Cut: bestCut})
	}
	for c := 1; c < cycles; c++ {
		if e.ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		where, cut, cstats, err := e.vCycle(g, k, res.Where, deriveSeed(e.opts.Seed, cycleBranch+int64(c)))
		if err != nil {
			if e.ctx.Err() != nil {
				break
			}
			e.noteDegradation(&res.Stats, tr, trace.Degradation{
				Phase:  "cycle",
				From:   fmt.Sprintf("cycle-%d", c),
				To:     "best-completed",
				Reason: err.Error(),
			})
			break
		}
		res.Stats.add(cstats)
		res.Stats.Cycles++
		if tr != nil {
			tr.Event(trace.Event{
				Kind:      trace.KindCycle,
				Cycle:     c,
				Cut:       cut,
				ElapsedNS: time.Since(t0).Nanoseconds(),
			})
		}
		// Refinement never worsens the seed it started from, so the new
		// cut is at most bestCut; adopt strict improvements only to keep
		// the best partition stable under ties.
		if cut < bestCut {
			bestCut = cut
			copy(res.Where, where)
		}
	}
}
