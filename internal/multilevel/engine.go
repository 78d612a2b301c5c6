package multilevel

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mlpart/internal/coarsen"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/initpart"
	"mlpart/internal/kway"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// splitSpec is the one thing that differs between uniform k-way recursion
// and weighted-fractions recursion: how many leaf parts a subproblem holds
// and what weight the left half-range targets. Everything else — the
// V-cycle, seed derivation, parallel fan-out, stats, tracing, cancellation
// — is shared by the engine.
//
// The two implementations keep their historical arithmetic exactly
// (integer tw*kl/k for uniform, float64 rounding for weighted) so that
// fixed-seed partitions are bit-identical to the pre-engine drivers.
type splitSpec interface {
	// parts is the number of leaf parts this subproblem produces.
	parts() int
	// target0 is the desired weight of the left half-range given the
	// subgraph's total vertex weight.
	target0(totalVwgt int) int
	// halves splits the spec for the two recursive subproblems.
	halves() (left, right splitSpec)
}

// uniformSplit is k equal parts.
type uniformSplit int

func (s uniformSplit) parts() int { return int(s) }

func (s uniformSplit) target0(tw int) int {
	k := int(s)
	return tw * (k / 2) / k
}

func (s uniformSplit) halves() (splitSpec, splitSpec) {
	kl := int(s) / 2
	return uniformSplit(kl), uniformSplit(int(s) - kl)
}

// weightedSplit holds normalized per-part weight fractions.
type weightedSplit []float64

func (s weightedSplit) parts() int { return len(s) }

func (s weightedSplit) target0(tw int) int {
	kl := len(s) / 2
	fracL := 0.0
	for _, f := range s[:kl] {
		fracL += f
	}
	fracTot := fracL
	for _, f := range s[kl:] {
		fracTot += f
	}
	return int(float64(tw) * fracL / fracTot)
}

func (s weightedSplit) halves() (splitSpec, splitSpec) {
	kl := len(s) / 2
	return s[:kl], s[kl:]
}

// engine is the single V-cycle driver behind Bisect, Partition,
// PartitionKWay and PartitionWeighted. It owns the recursion, the NCuts
// trial selection, derived seeds, workspace pooling, trace emission and
// context cancellation, so every entry point behaves identically.
type engine struct {
	opts   Options // defaults already applied
	ctx    context.Context
	tracer trace.Tracer
	inj    *faults.Injector // never consulted when nil beyond a nil check

	mu  sync.Mutex // guards Result fields and err during parallel recursion
	err error      // first cancellation or failure error observed
}

func newEngine(opts Options) *engine {
	opts = opts.withDefaults()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &engine{opts: opts, ctx: ctx, tracer: opts.Tracer, inj: opts.Injector}
}

// fail records the first error; later calls keep the original.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// failed reports whether any branch of the run has already failed; the
// recursion stops descending once it has.
func (e *engine) failed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err != nil
}

// cancelled reports (and records) whether the engine's context is done.
// It is the only cancellation probe: callers check it at level boundaries
// and recursion steps, never inside refinement passes.
func (e *engine) cancelled() bool {
	if err := e.ctx.Err(); err != nil {
		e.fail(err)
		return true
	}
	return false
}

// run builds a k-way partition of g by recursive bisection according to
// sp, optionally finishing with a direct k-way refinement pass (uniform
// targets only; weighted targets would violate kway.Refine's equal-target
// balance model).
func (e *engine) run(g *graph.Graph, sp splitSpec, kwayRefine bool) (res *Result, err error) {
	// A panic escaping the sequential recursion (the parallel branches
	// recover on their own goroutines) surfaces as an error, never as a
	// crashed caller: the engine is the outermost in-process boundary.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("multilevel: %w", faults.AsPanic("engine/run", r))
		}
	}()
	k := sp.parts()
	res = &Result{
		Where:       make([]int, g.NumVertices()),
		PartWeights: make([]int, k),
	}
	ids := make([]int, g.NumVertices())
	for i := range ids {
		ids[i] = i
	}
	e.recurse(g, ids, sp, 0, e.opts.Seed, 0, res)
	if e.err != nil {
		return nil, fmt.Errorf("multilevel: %w", e.err)
	}
	if kwayRefine && k >= 2 {
		ws := workspace.Get()
		t0 := time.Now()
		p := kway.NewPartition(g, k, res.Where)
		e.guardedKWayRefine(p, kway.Options{
			Ubfactor:  e.opts.Ubfactor,
			Seed:      e.opts.Seed,
			Workspace: ws,
			Tracer:    trace.WithSeed(e.tracer, e.opts.Seed),
			Counters:  &res.Stats.Counters,
		}, &res.Stats, trace.WithSeed(e.tracer, e.opts.Seed), e.opts.Refinement == refine.BKWAY)
		res.Stats.RefineTime += time.Since(t0)
		workspace.Put(ws)
	}
	if _, uniform := sp.(uniformSplit); uniform {
		// Extra cycles of the eco/strong presets. Weighted targets are
		// excluded: the k-way refinement kernels assume equal part targets.
		e.iterate(g, k, res)
	} else {
		res.Stats.Cycles = 1
	}
	for v, p := range res.Where {
		res.PartWeights[p] += g.Vwgt[v]
	}
	res.EdgeCut = refine.ComputeCut(g, res.Where)
	return res, nil
}

// recurse bisects g into sp.parts() leaf parts. ids maps local vertices to
// original ids; depth tracks the recursion level for parallel fan-out.
func (e *engine) recurse(g *graph.Graph, ids []int, sp splitSpec, base int, seed int64, depth int, res *Result) {
	if e.cancelled() || e.failed() {
		return
	}
	if sp.parts() <= 1 || g.NumVertices() == 0 {
		e.mu.Lock()
		for _, id := range ids {
			res.Where[id] = base
		}
		e.mu.Unlock()
		return
	}
	target0 := sp.target0(g.TotalVertexWeight())
	if target0 < 1 {
		// Degenerate weights (e.g. all-zero subgraph) must still seed part 0,
		// or the left recursion receives an empty graph forever.
		target0 = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b, stats := e.bisect(g, target0, rng, seed)
	e.mu.Lock()
	res.Stats.add(stats)
	e.mu.Unlock()
	if b == nil {
		// Cancelled mid-bisection; e.err is already set.
		return
	}

	left, l2gL := g.PartSubgraph(b.Where, 0)
	right, l2gR := g.PartSubgraph(b.Where, 1)
	idsL := make([]int, left.NumVertices())
	for i, lv := range l2gL {
		idsL[i] = ids[lv]
	}
	idsR := make([]int, right.NumVertices())
	for i, rv := range l2gR {
		idsR[i] = ids[rv]
	}
	kl := sp.parts() / 2
	spL, spR := sp.halves()
	seedL := deriveSeed(seed, 2)
	seedR := deriveSeed(seed, 3)
	// Fan out the top few levels of the recursion tree; deeper subproblems
	// are small enough that goroutine overhead dominates.
	if e.opts.Parallel && depth < e.opts.ParallelDepth && g.NumVertices() > e.opts.ParallelMinVertices {
		// Both branches run guarded: a panic on either one is captured
		// into e.err rather than unwinding past wg.Wait, which would
		// leak the sibling goroutine (and, on the spawned side, kill the
		// process — recover never runs on a foreign goroutine's stack).
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.recurseGuarded(left, idsL, spL, base, seedL, depth+1, res)
		}()
		e.recurseGuarded(right, idsR, spR, base+kl, seedR, depth+1, res)
		wg.Wait()
	} else {
		e.recurse(left, idsL, spL, base, seedL, depth+1, res)
		e.recurse(right, idsR, spR, base+kl, seedR, depth+1, res)
	}
}

// recurseGuarded is recurse with a panic boundary: any panic in the
// branch is recorded as the engine's failure and the branch abandoned.
func (e *engine) recurseGuarded(g *graph.Graph, ids []int, sp splitSpec, base int, seed int64, depth int, res *Result) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(faults.AsPanic(faults.SiteEngineBisect, r))
		}
	}()
	e.recurse(g, ids, sp, base, seed, depth, res)
}

// bisect dispatches between the single V-cycle and the NCuts best-of-N
// selection. seed identifies this bisection in trace events.
func (e *engine) bisect(g *graph.Graph, target0 int, rng *rand.Rand, seed int64) (*refine.Bisection, *Stats) {
	if e.opts.NCuts > 1 {
		return e.bisectNCuts(g, target0, rng)
	}
	return e.bisectOnce(g, target0, rng, seed)
}

// bisectNCuts repeats the full bisection opts.NCuts times with seeds derived
// from a single draw on rng and keeps the smallest cut (ties to the earliest
// trial). Because each trial owns a derived-seed RNG rather than sharing
// rng's stream, the trials are order-independent: with opts.Parallel they run
// concurrently and still pick the exact bisection the sequential loop picks.
func (e *engine) bisectNCuts(g *graph.Graph, target0 int, rng *rand.Rand) (*refine.Bisection, *Stats) {
	n := e.opts.NCuts
	base := rng.Int63()
	bs := make([]*refine.Bisection, n)
	ss := make([]*Stats, n)
	trial := func(i int) {
		seed := deriveSeed(base, int64(i))
		trng := rand.New(rand.NewSource(seed))
		bs[i], ss[i] = e.bisectOnce(g, target0, trng, seed)
	}
	if e.opts.Parallel {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Capture trial panics here, on the panicking goroutine:
				// a worker panic must fail this bisection, not the process.
				defer func() {
					if r := recover(); r != nil {
						e.fail(faults.AsPanic(faults.SiteEngineBisect, r))
					}
				}()
				trial(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			trial(i)
		}
	}
	var best *refine.Bisection
	total := &Stats{}
	for i := 0; i < n; i++ {
		if ss[i] != nil {
			total.add(ss[i])
		}
		if bs[i] != nil && (best == nil || bs[i].Cut < best.Cut) {
			best = bs[i]
		}
	}
	total.Bisections = 1
	if e.failed() {
		// A trial panicked (or hit an injected fault). Sibling trials may
		// have finished, but a poisoned bisection must fail as a whole:
		// the panic marks an invariant violation, not a quality trade.
		return nil, total
	}
	return best, total
}

// bisectOnce is the multilevel V-cycle: coarsen, partition the coarsest
// graph, then project and refine level by level. It returns a nil bisection
// (with the stats gathered so far) when the engine's context is cancelled.
func (e *engine) bisectOnce(g *graph.Graph, target0 int, rng *rand.Rand, seed int64) (*refine.Bisection, *Stats) {
	opts := e.opts
	if target0 <= 0 {
		target0 = g.TotalVertexWeight() / 2
	}
	stats := &Stats{Bisections: 1}
	tr := trace.WithSeed(e.tracer, seed)
	if e.cancelled() {
		return nil, stats
	}
	// All scratch for this bisection — hierarchy arrays, trial bisections,
	// gain buckets — comes from one pooled workspace. Nothing backed by it
	// may escape: the returned Bisection is detached into fresh memory below.
	// On a panic anywhere below, the deferred Put runs during unwinding;
	// buffers still checked out of ws at that moment are simply not
	// re-pooled, which is safe (the pool reallocates on demand).
	ws := workspace.Get()
	defer workspace.Put(ws)
	if ierr := e.inj.Fire(faults.SiteEngineBisect); ierr != nil {
		e.fail(ierr)
		return nil, stats
	}
	ropts := refine.Options{
		StopWindow: opts.StopWindow,
		Ubfactor:   opts.Ubfactor,
		TargetPwgt: [2]int{target0, g.TotalVertexWeight() - target0},
		OrigNvtxs:  g.NumVertices(),
		Workspace:  ws,
		Tracer:     tr,
		Counters:   &stats.Counters,
	}

	t0 := time.Now()
	copts := coarsen.Options{
		Scheme:           opts.Matching,
		CoarsenTo:        opts.CoarsenTo,
		MaxClusterWeight: opts.MaxClusterWeight,
		LPRounds:         opts.LPRounds,
		Workers:          opts.CoarsenWorkers,
		Workspace:        ws,
		Tracer:           tr,
		Injector:         e.inj,
		Degradations:     &stats.Degradations,
	}
	h := coarsen.Coarsen(g, copts, rng)
	stats.CoarsenTime = time.Since(t0)
	stats.Levels = len(h.Levels)
	stats.CoarsestN = h.Coarsest().NumVertices()
	emitDegraded(tr, stats.Degradations, 0)
	if e.cancelled() {
		h.Release(ws)
		return nil, stats
	}

	if ierr := e.inj.Fire(faults.SiteInitPart); ierr != nil {
		h.Release(ws)
		e.fail(ierr)
		return nil, stats
	}
	degBase := len(stats.Degradations)
	t0 = time.Now()
	b := initpart.Partition(h.Coarsest(), initpart.Options{
		Method:       opts.InitMethod,
		Trials:       opts.InitTrials,
		TargetPwgt0:  target0,
		Workspace:    ws,
		Level:        len(h.Levels) - 1,
		Tracer:       tr,
		Injector:     e.inj,
		Degradations: &stats.Degradations,
	}, rng)
	stats.InitTime = time.Since(t0)
	stats.InitialCut = b.Cut
	emitDegraded(tr, stats.Degradations, degBase)

	// Refine the coarsest partition, then project and refine level by level.
	t0 = time.Now()
	ropts.Level = len(h.Levels) - 1
	refine.ForceBalance(b, ropts)
	e.guardedRefine(b, opts.Refinement, ropts, stats, tr)
	stats.RefineTime += time.Since(t0)
	ok := e.uncoarsen(h, stats, tr, func(li int) int {
		nb := refine.ProjectWS(h.Levels[li].Graph, h.Levels[li].Cmap, b, ws)
		b.Release(ws)
		b = nb
		return b.Cut
	}, func(li int) {
		ropts.Level = li
		e.guardedRefine(b, opts.Refinement, ropts, stats, tr)
	})
	if !ok {
		b.Release(ws)
		h.Release(ws)
		return nil, stats
	}
	b = b.Detach(ws)
	h.Release(ws)
	emitPhases(tr, stats)
	return b, stats
}

// uncoarsen walks the hierarchy from the second-coarsest level to the
// finest, projecting then refining at each level. It is shared by the
// bisection V-cycle and the direct k-way V-cycle, which supply the
// projection (returning the projected cut) and the per-level refinement.
// It returns false as soon as the engine's context is cancelled.
func (e *engine) uncoarsen(h *coarsen.Hierarchy, stats *Stats, tr trace.Tracer, project func(li int) int, refineLevel func(li int)) bool {
	for li := len(h.Levels) - 2; li >= 0; li-- {
		if e.cancelled() {
			return false
		}
		t0 := time.Now()
		cut := project(li)
		stats.ProjectTime += time.Since(t0)
		stats.Projections++
		if tr != nil {
			tr.Event(trace.Event{
				Kind:      trace.KindProject,
				Level:     li,
				Cut:       cut,
				ElapsedNS: time.Since(t0).Nanoseconds(),
			})
		}
		t0 = time.Now()
		refineLevel(li)
		stats.RefineTime += time.Since(t0)
	}
	return true
}

// emitPhases reports the per-phase wall time of one completed V-cycle.
func emitPhases(tr trace.Tracer, stats *Stats) {
	if tr == nil {
		return
	}
	for _, p := range [...]struct {
		name string
		d    time.Duration
	}{
		{"coarsen", stats.CoarsenTime},
		{"initial", stats.InitTime},
		{"refine", stats.RefineTime},
		{"project", stats.ProjectTime},
	} {
		tr.Event(trace.Event{Kind: trace.KindPhase, Phase: p.name, ElapsedNS: p.d.Nanoseconds()})
	}
}

// noteDegradation records a fallback in the run's stats and, when tracing,
// emits the matching KindDegraded event.
func (e *engine) noteDegradation(stats *Stats, tr trace.Tracer, d trace.Degradation) {
	stats.Degradations = append(stats.Degradations, d)
	if tr != nil {
		tr.Event(trace.Event{
			Kind:       trace.KindDegraded,
			Level:      d.Level,
			Phase:      d.Phase,
			Algorithm:  d.From,
			FallbackTo: d.To,
			Reason:     d.Reason,
		})
	}
}

// emitDegraded emits KindDegraded events for ds[from:] — degradations the
// coarsening and initial-partitioning phases recorded without a tracer in
// scope.
func emitDegraded(tr trace.Tracer, ds []trace.Degradation, from int) {
	if tr == nil {
		return
	}
	for _, d := range ds[from:] {
		tr.Event(trace.Event{
			Kind:       trace.KindDegraded,
			Level:      d.Level,
			Phase:      d.Phase,
			Algorithm:  d.From,
			FallbackTo: d.To,
			Reason:     d.Reason,
		})
	}
}

// guardedRefine runs one level's refinement behind a fault boundary: an
// injected error skips the pass, and a panic (injected or organic) abandons
// it. Either way the level keeps its projected partition — refinement is an
// improvement step, never a correctness requirement — with the balance
// invariant restored if the abandoned pass had moved vertices.
func (e *engine) guardedRefine(b *refine.Bisection, policy refine.Policy, ropts refine.Options, stats *Stats, tr trace.Tracer) {
	if ierr := e.inj.Fire(faults.SiteRefineLevel); ierr != nil {
		e.noteDegradation(stats, tr, trace.Degradation{
			Phase: "refine", From: policy.String(), To: "projected",
			Level: ropts.Level, Reason: ierr.Error(),
		})
		return
	}
	defer func() {
		if r := recover(); r != nil {
			pe := faults.AsPanic(faults.SiteRefineLevel, r)
			e.noteDegradation(stats, tr, trace.Degradation{
				Phase: "refine", From: policy.String(), To: "projected",
				Level: ropts.Level, Reason: pe.Error(),
			})
			rebalance(b, ropts)
		}
	}()
	refine.Refine(b, policy, ropts)
}

// rebalance restores the part-weight tolerance after an abandoned
// refinement pass (a mid-pass panic can leave moves half-applied). It runs
// behind its own recover so a bisection corrupted badly enough to break
// ForceBalance degrades to "imbalanced but structurally valid" instead of
// cascading the panic.
func rebalance(b *refine.Bisection, ropts refine.Options) {
	defer func() { _ = recover() }()
	refine.ForceBalance(b, ropts)
}

// guardedKWayRefine is guardedRefine's direct k-way counterpart: a faulted
// or panicking k-way pass keeps the level's partition vector as the
// abandoned pass left it. A panic may strike mid-commit, between the
// Where update and the Pwgt/Cut update, so the recover path re-derives
// both from Where: the direct k-way V-cycle carries them to the next
// level instead of recomputing them.
// useBKWAY selects the kernel — the boundary engine of refine.RefineKWay
// (with RefineWorkers propose-phase fan-out) versus the classic full-sweep
// kway.Refine. First cycles pass the Refinement policy's choice; the extra
// cycles of the eco/strong presets always use BKWAY.
func (e *engine) guardedKWayRefine(p *kway.Partition, kopts kway.Options, stats *Stats, tr trace.Tracer, useBKWAY bool) {
	algo := "KWAY"
	if useBKWAY {
		algo = "BKWAY"
	}
	if ierr := e.inj.Fire(faults.SiteKWayLevel); ierr != nil {
		e.noteDegradation(stats, tr, trace.Degradation{
			Phase: "kway", From: algo, To: "projected",
			Level: kopts.Level, Reason: ierr.Error(),
		})
		return
	}
	defer func() {
		if r := recover(); r != nil {
			pe := faults.AsPanic(faults.SiteKWayLevel, r)
			e.noteDegradation(stats, tr, trace.Degradation{
				Phase: "kway", From: algo, To: "projected",
				Level: kopts.Level, Reason: pe.Error(),
			})
			p.Recount()
		}
	}()
	if useBKWAY {
		refine.RefineKWay(p, refine.KWayOptions{
			Ubfactor:  kopts.Ubfactor,
			Seed:      kopts.Seed,
			Workers:   e.opts.RefineWorkers,
			Workspace: kopts.Workspace,
			Level:     kopts.Level,
			Tracer:    kopts.Tracer,
			Counters:  kopts.Counters,
			Injector:  e.inj,
		})
		return
	}
	kway.Refine(p, kopts)
}
