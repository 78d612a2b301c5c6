// Package multilevel assembles the three phases of the paper's algorithm —
// coarsening (internal/coarsen), initial partitioning (internal/initpart)
// and refinement during uncoarsening (internal/refine) — into the complete
// multilevel bisection of §3, and builds k-way partitions by recursive
// bisection as described in §2.
//
// Every driver — Bisect, Partition, PartitionKWay, PartitionWeighted — is a
// thin parameterization of the single V-cycle engine in engine.go, which
// owns depth-parallel recursion, NCuts trial selection, derived seeds,
// workspace pooling, per-level trace events and context cancellation in
// exactly one place.
package multilevel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mlpart/internal/coarsen"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/initpart"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
)

// Preset selects how many multilevel cycles a partition runs. The first
// cycle is always the full coarsen → initial-partition → refine V-cycle;
// each extra cycle re-coarsens the graph *respecting* the current
// partition (matchings never cross part boundaries, so the partition
// projects onto the coarse graph with exactly the same cut), skips
// initial partitioning, and refines the seeded partition with boundary
// k-way refinement on the way back up. Every cycle derives its own seed,
// so runs stay bit-identical across worker counts, and the best cut of
// any completed cycle wins.
type Preset int

const (
	// PresetFast is today's single V-cycle (the zero value: no behavior
	// change for existing callers).
	PresetFast Preset = iota
	// PresetEco runs one extra V-cycle seeded from the first result.
	PresetEco
	// PresetStrong runs four cycles total, best-of-N with derived
	// per-cycle seeds.
	PresetStrong
)

// Cycle counts behind the presets.
const (
	ecoCycles    = 2
	strongCycles = 4
)

// String returns the preset's name as used in options, flags and wire.
func (p Preset) String() string {
	switch p {
	case PresetFast:
		return "fast"
	case PresetEco:
		return "eco"
	case PresetStrong:
		return "strong"
	}
	return fmt.Sprintf("Preset(%d)", int(p))
}

// Valid reports whether p is one of the defined presets.
func (p Preset) Valid() bool { return p >= PresetFast && p <= PresetStrong }

// ParsePreset converts a preset name ("fast", "eco", "strong") to a
// Preset; the empty string is fast (the default).
func ParsePreset(s string) (Preset, error) {
	switch s {
	case "", "fast":
		return PresetFast, nil
	case "eco":
		return PresetEco, nil
	case "strong":
		return PresetStrong, nil
	}
	return 0, fmt.Errorf("multilevel: unknown preset %q (want fast, eco or strong)", s)
}

// Options selects the algorithm for each phase plus the shared knobs. The
// zero value is the paper's recommended configuration: HEM coarsening to
// 100 vertices, GGGP initial partitioning, BKLGR refinement.
type Options struct {
	// Matching is the coarsening scheme; the zero value selects HEM (the
	// paper's choice), not coarsen.RM.
	Matching coarsen.Scheme
	// matchingSet distinguishes an explicit RM from the zero value.
	// Use WithMatching to set RM explicitly.
	matchingSet bool
	// InitMethod is the coarsest-graph partitioner (zero value: GGGP).
	InitMethod initpart.Method
	// Refinement is the uncoarsening policy; the zero value selects BKLGR
	// (the paper's choice), not refine.NoRefine. Use WithRefinement to
	// disable refinement explicitly.
	Refinement refine.Policy
	// refinementSet distinguishes an explicit NoRefine from the zero value.
	refinementSet bool

	// CoarsenTo is the coarsest-graph size (0 means 100).
	CoarsenTo int
	// InitTrials overrides the number of initial-partitioning trials
	// (0 means the paper's defaults: 10 for GGP, 5 for GGGP).
	InitTrials int
	// StopWindow is the refinement stop parameter x (0 means 50).
	StopWindow int
	// Ubfactor is the allowed part imbalance (0 means 1.05).
	Ubfactor float64
	// Seed makes every run deterministic; the same seed gives the same
	// partition, as the paper's "fixed seed" experiments require.
	Seed int64
	// Parallel partitions independent subgraphs of the recursive k-way
	// decomposition on separate goroutines, and runs the NCuts > 1 trials
	// of each bisection concurrently. Results are identical to the
	// sequential run because every subproblem derives its own seed.
	Parallel bool
	// ParallelDepth bounds how deep the recursion tree fans out onto new
	// goroutines when Parallel is set: subproblems deeper than this run
	// sequentially, because goroutine overhead dominates on the small
	// graphs there. 0 means 4 (at most 2^4 concurrent branches).
	ParallelDepth int
	// ParallelMinVertices is the smallest subgraph that still fans out
	// when Parallel is set; smaller subproblems run sequentially.
	// 0 means 2000.
	ParallelMinVertices int
	// KWayRefine runs a direct k-way greedy refinement pass over the
	// assembled partition after recursive bisection, the natural extension
	// of the paper's scheme (it never worsens the cut).
	KWayRefine bool
	// NCuts runs each full multilevel bisection this many times with
	// independent seeds and keeps the smallest cut (quality for time, the
	// same trade the paper's GGP/GGGP trial counts make); <=1 means once.
	NCuts int
	// CoarsenWorkers > 1 fans the propose phase of GCLP label propagation
	// out over that many workers (coarsen.Options.Workers). It never
	// changes the result: proposals read only the round snapshot and
	// commits are serial, and the matching schemes ignore it. The paper
	// observes that coarsening is the easy phase to parallelize; this is
	// that observation for shared memory.
	CoarsenWorkers int
	// MaxClusterWeight caps one GCLP cluster's total vertex weight; <= 0
	// derives the cap from the graph (total weight / CoarsenTo). Ignored
	// by the matching schemes.
	MaxClusterWeight int
	// LPRounds bounds GCLP's label-propagation rounds per level (<= 0
	// means the coarsener's default of 8). Ignored by the matching schemes.
	LPRounds int
	// Preset selects the number of multilevel cycles: fast (the zero
	// value) is a single V-cycle, eco adds one partition-seeded extra
	// cycle, strong runs four cycles best-of-N. Extra cycles apply to
	// Partition and PartitionKWay; PartitionWeighted ignores the preset
	// (iterated refinement assumes equal part targets). A failed extra
	// cycle degrades to the best completed partition (recorded in
	// Stats.Degradations), never a hard error.
	Preset Preset
	// Cycles, when > 0, overrides the preset's cycle count directly
	// (1 = fast). 0 defers to Preset.
	Cycles int
	// RefineWorkers > 1 fans the propose phase of boundary k-way refinement
	// (the BKWAY policy on the direct k-way path) out over that many
	// workers. Like CoarsenWorkers it never changes the result: proposals
	// are chunk-independent and commits are serial, so the partition is
	// bit-identical for every worker count. <= 1 refines serially.
	RefineWorkers int

	// Context, when non-nil, is checked at every level boundary of the
	// V-cycle and at every recursion step: once it is cancelled or past
	// its deadline, Partition/PartitionKWay/PartitionWeighted return
	// ctx.Err() (wrapped) instead of completing. A nil Context never
	// cancels and costs nothing.
	Context context.Context
	// Tracer, when non-nil, receives typed per-level events (levels built,
	// initial cut, refinement passes, projections, phase times). It must
	// be safe for concurrent use when Parallel is set. Partition results
	// are bit-identical with or without a tracer.
	Tracer trace.Tracer
	// Injector, when non-nil, is the deterministic fault injector consulted
	// at the engine's named sites (see internal/faults). Nil falls back to
	// faults.Default() — the MLPART_FAULTS plan, normally nil — and a nil
	// injector costs one nil check per site, keeping fault-free runs
	// bit-identical and allocation-identical.
	Injector *faults.Injector
}

// WithMatching returns o with the matching scheme set explicitly, allowing
// coarsen.RM (whose value is 0) to be distinguished from "use the default".
func (o Options) WithMatching(s coarsen.Scheme) Options {
	o.Matching = s
	o.matchingSet = true
	return o
}

// WithRefinement returns o with the refinement policy set explicitly,
// allowing refine.NoRefine (whose value is 0) to be distinguished from
// "use the default".
func (o Options) WithRefinement(p refine.Policy) Options {
	o.Refinement = p
	o.refinementSet = true
	return o
}

func (o Options) withDefaults() Options {
	if !o.matchingSet && o.Matching == coarsen.Scheme(0) {
		o.Matching = coarsen.HEM
	}
	if !o.refinementSet && o.Refinement == refine.Policy(0) {
		o.Refinement = refine.BKLGR
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 100
	}
	if o.Ubfactor <= 1 {
		o.Ubfactor = 1.05
	}
	if o.ParallelDepth <= 0 {
		o.ParallelDepth = 4
	}
	if o.ParallelMinVertices <= 0 {
		o.ParallelMinVertices = 2000
	}
	if o.Injector == nil {
		o.Injector = faults.Default()
	}
	return o
}

// Validate rejects option values that would otherwise recurse silently
// into nonsense: unknown phase algorithms, negative trial/worker counts,
// and imbalance factors below 1 (every part may always hold at least its
// target weight). It checks the options alone — constraints that also
// involve the graph or k (k in range, k vs vertex count) live in validate,
// which every entry point runs — so callers like the service can reject a
// malformed request before any graph work happens.
func (o Options) Validate() error {
	if o.NCuts < 0 {
		return fmt.Errorf("multilevel: NCuts = %d, want >= 0", o.NCuts)
	}
	if !o.Matching.Valid() {
		return fmt.Errorf("multilevel: invalid matching scheme %d", int(o.Matching))
	}
	if !o.InitMethod.Valid() {
		return fmt.Errorf("multilevel: invalid initial-partitioning method %d", int(o.InitMethod))
	}
	if !o.Refinement.Valid() {
		return fmt.Errorf("multilevel: invalid refinement policy %d", int(o.Refinement))
	}
	if o.InitTrials < 0 {
		return fmt.Errorf("multilevel: InitTrials = %d, want >= 0", o.InitTrials)
	}
	if o.CoarsenWorkers < 0 {
		return fmt.Errorf("multilevel: CoarsenWorkers = %d, want >= 0", o.CoarsenWorkers)
	}
	if o.RefineWorkers < 0 {
		return fmt.Errorf("multilevel: RefineWorkers = %d, want >= 0", o.RefineWorkers)
	}
	if o.MaxClusterWeight < 0 {
		return fmt.Errorf("multilevel: MaxClusterWeight = %d, want >= 0", o.MaxClusterWeight)
	}
	if o.LPRounds < 0 {
		return fmt.Errorf("multilevel: LPRounds = %d, want >= 0", o.LPRounds)
	}
	if math.IsNaN(o.Ubfactor) || math.IsInf(o.Ubfactor, 0) {
		return fmt.Errorf("multilevel: Ubfactor = %v, want a finite value", o.Ubfactor)
	}
	if o.Ubfactor != 0 && o.Ubfactor < 1 {
		return fmt.Errorf("multilevel: Ubfactor = %v, want >= 1 (or 0 for the default)", o.Ubfactor)
	}
	if o.ParallelDepth < 0 {
		return fmt.Errorf("multilevel: ParallelDepth = %d, want >= 0", o.ParallelDepth)
	}
	if o.ParallelMinVertices < 0 {
		return fmt.Errorf("multilevel: ParallelMinVertices = %d, want >= 0", o.ParallelMinVertices)
	}
	if !o.Preset.Valid() {
		return fmt.Errorf("multilevel: invalid preset %d", int(o.Preset))
	}
	if o.Cycles < 0 {
		return fmt.Errorf("multilevel: Cycles = %d, want >= 0", o.Cycles)
	}
	return nil
}

// CycleCount resolves the preset and the Cycles override into the number
// of multilevel cycles a partition runs: an explicit Cycles wins, else
// fast=1, eco=2, strong=4. The service cache key uses this too, so
// option spellings with the same effective cycle count share entries.
func (o Options) CycleCount() int {
	if o.Cycles > 0 {
		return o.Cycles
	}
	switch o.Preset {
	case PresetEco:
		return ecoCycles
	case PresetStrong:
		return strongCycles
	}
	return 1
}

// validate is the full entry-point check: the option checks of Validate
// plus the constraints that need the graph and k.
func validate(g *graph.Graph, k int, o Options) error {
	if k < 1 {
		return fmt.Errorf("multilevel: k = %d, want >= 1", k)
	}
	if k > g.NumVertices() && g.NumVertices() > 0 {
		return fmt.Errorf("multilevel: k = %d exceeds vertex count %d", k, g.NumVertices())
	}
	return o.Validate()
}

// Stats reports where the time went, matching the columns of the paper's
// Table 2 (CoarsenTime is CTime; the sum of InitTime, RefineTime and
// ProjectTime is UTime), plus the per-level event totals the tracer
// observes — pass counts, moves, positive-gain moves and projections —
// aggregated across every bisection of a recursive run.
type Stats struct {
	CoarsenTime time.Duration // CTime: building the hierarchy
	InitTime    time.Duration // ITime: partitioning the coarsest graph
	RefineTime  time.Duration // RTime: refinement at every level
	ProjectTime time.Duration // PTime: projecting partitions between levels
	Levels      int           // number of hierarchy levels
	CoarsestN   int           // vertices in the coarsest graph
	InitialCut  int           // cut of the coarsest-graph partition
	Bisections  int           // bisections performed (k-1 for k-way)

	// Cycles is the number of multilevel cycles that completed (1 for the
	// fast preset). It is set once per run, never summed across
	// bisections.
	Cycles int

	// Counters aggregates the refinement and projection event totals
	// (RefinePasses, RefineMoves, PositiveGainMoves, Projections).
	trace.Counters

	// Degradations records every graceful-degradation fallback taken during
	// the run — HCM matching stalls falling back to HEM, SBP Lanczos
	// non-convergence falling back to GGGP, abandoned refinement passes
	// leaving a level's projected partition — in the order they occurred.
	Degradations []trace.Degradation
}

// UncoarsenTime is the paper's UTime: ITime + RTime + PTime.
func (s *Stats) UncoarsenTime() time.Duration {
	return s.InitTime + s.RefineTime + s.ProjectTime
}

func (s *Stats) add(o *Stats) {
	s.CoarsenTime += o.CoarsenTime
	s.InitTime += o.InitTime
	s.RefineTime += o.RefineTime
	s.ProjectTime += o.ProjectTime
	s.Levels += o.Levels
	s.InitialCut += o.InitialCut
	s.Bisections += o.Bisections
	if o.CoarsestN > s.CoarsestN {
		s.CoarsestN = o.CoarsestN
	}
	s.Counters.Add(&o.Counters)
	s.Degradations = append(s.Degradations, o.Degradations...)
}

// Bisect runs the full multilevel bisection of g. target0 is the desired
// weight of part 0 (0 means half the total). When opts.NCuts > 1, the
// whole bisection is repeated with independent seeds and the smallest cut
// wins. It returns the refined bisection of g and per-phase timing
// statistics (summed over the NCuts runs). If opts.Context is cancelled
// mid-run, the returned bisection is nil.
func Bisect(g *graph.Graph, target0 int, opts Options, rng *rand.Rand) (*refine.Bisection, *Stats) {
	e := newEngine(opts)
	b, stats := e.bisect(g, target0, rng, opts.Seed)
	if b == nil && e.err != nil && e.ctx.Err() == nil {
		// Bisect's contract is "nil means cancelled" (nested dissection
		// stops recursing on nil and leaves a valid partial ordering). A
		// worker panic or injected fault is not cancellation, so escalate
		// it to the caller's recovery boundary rather than returning a nil
		// that would be silently misread as a clean stop.
		panic(e.err)
	}
	return b, stats
}

// Result is the outcome of a k-way partition.
type Result struct {
	// Where[v] is the part (0..k-1) of vertex v.
	Where []int
	// EdgeCut is the total weight of edges crossing parts.
	EdgeCut int
	// PartWeights[p] is the vertex weight of part p.
	PartWeights []int
	// Stats aggregates timings over all bisections.
	Stats Stats
}

// Balance returns k * max(PartWeights) / total: 1.0 is perfect.
func (r *Result) Balance() float64 {
	tot, maxw := 0, 0
	for _, w := range r.PartWeights {
		tot += w
		if w > maxw {
			maxw = w
		}
	}
	if tot == 0 {
		return 1
	}
	return float64(len(r.PartWeights)) * float64(maxw) / float64(tot)
}

// Partition divides g into k parts by recursive multilevel bisection
// (log k levels of bisection, with target weights proportional to the
// number of leaf parts on each side, so any k >= 1 is supported).
func Partition(g *graph.Graph, k int, opts Options) (*Result, error) {
	if err := validate(g, k, opts); err != nil {
		return nil, err
	}
	e := newEngine(opts)
	return e.run(g, uniformSplit(k), e.opts.KWayRefine)
}

// deriveSeed produces a child RNG seed from the parent seed and the branch
// path, keeping parallel and sequential runs identical.
func deriveSeed(seed int64, branch int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(branch)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
