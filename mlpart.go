// Package mlpart is a from-scratch Go implementation of the multilevel
// graph partitioning schemes of Karypis & Kumar, "Multilevel Graph
// Partitioning Schemes" (ICPP 1995) — the algorithms that became METIS.
//
// The package partitions the vertices of a weighted undirected graph into k
// parts of roughly equal weight while minimizing the weight of edges that
// cross parts, and computes fill-reducing orderings of symmetric sparse
// matrices by multilevel nested dissection. The multilevel scheme works in
// three phases:
//
//  1. Coarsening: the graph is repeatedly shrunk by collapsing the pairs of
//     a maximal matching (heavy-edge matching by default) into multinodes.
//  2. Initial partitioning: the few-hundred-vertex coarsest graph is split
//     by greedy graph growing (GGGP by default).
//  3. Uncoarsening: the partition is projected back level by level and
//     refined with boundary Kernighan-Lin variants (BKLGR by default).
//
// Every phase algorithm evaluated in the paper is available through
// Options, as are the paper's baselines (multilevel spectral bisection,
// Chaco-ML, multiple minimum degree) via the experiment harness in
// cmd/mlbench.
//
// Quick start:
//
//	g, _ := mlpart.NewGraphFromCSR(xadj, adjncy, nil, nil)
//	res, _ := mlpart.Partition(g, 8, nil)
//	fmt.Println(res.EdgeCut, res.PartWeights)
package mlpart

import (
	"context"
	"fmt"
	"io"
	"time"

	"mlpart/internal/coarsen"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/initpart"
	"mlpart/internal/matgen"
	"mlpart/internal/metrics"
	"mlpart/internal/mmd"
	"mlpart/internal/multilevel"
	"mlpart/internal/ordering"
	"mlpart/internal/refine"
	"mlpart/internal/sparse"
	"mlpart/internal/trace"
)

// Graph is a weighted undirected graph in CSR form; see NewGraphFromCSR
// and NewGraphBuilder for construction.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a validated Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// NewGraphFromCSR wraps CSR arrays (xadj of length n+1, adjncy/adjwgt of
// length xadj[n], vwgt of length n) in a validated Graph. vwgt and adjwgt
// may be nil for unit weights.
func NewGraphFromCSR(xadj, adjncy, adjwgt, vwgt []int) (*Graph, error) {
	return graph.FromCSR(xadj, adjncy, adjwgt, vwgt)
}

// ReadGraph decodes a graph in METIS graph-file format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph encodes a graph in METIS graph-file format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// ReadMatrixMarket decodes the adjacency structure of a square sparse
// matrix in MatrixMarket coordinate format (the SuiteSparse collection's
// format); see the package-level documentation of internal/graph for the
// symmetrization and weight-rounding rules.
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return graph.ReadMatrixMarket(r) }

// WriteMatrixMarket encodes g as a symmetric integer MatrixMarket file.
func WriteMatrixMarket(w io.Writer, g *Graph) error { return graph.WriteMatrixMarket(w, g) }

// WriteDOT encodes g in Graphviz DOT format; when where is non-nil,
// vertices are colored by part and cut edges drawn dashed. For small
// graphs and documentation.
func WriteDOT(w io.Writer, g *Graph, where []int) error { return graph.WriteDOT(w, g, where) }

// WriteBinaryGraph encodes g in the binary CSR wire format ("csrb"): the
// zero-copy ingest format shared by `.csrb` files, graphgen output and the
// daemon's Content-Type: application/x-mlpart-csr request bodies. The
// byte-level layout is documented in docs/WIRE.md.
func WriteBinaryGraph(w io.Writer, g *Graph) error { return graph.EncodeBinary(w, g) }

// WriteBinaryGraphPart is WriteBinaryGraph with an optional partition
// vector (length n, nil to omit) appended as an extra section; the
// repartition endpoint reads its incumbent partition from it.
func WriteBinaryGraphPart(w io.Writer, g *Graph, part []int) error {
	return graph.EncodeBinaryPart(w, g, part)
}

// DecodeBinaryGraph decodes a binary CSR payload. When the encoded word
// width matches the host the returned Graph aliases data without copying;
// the caller must keep data alive and unmodified for the Graph's lifetime.
// Validation is a single fused pass over the sections.
func DecodeBinaryGraph(data []byte) (*Graph, error) { return graph.DecodeBinary(data) }

// DecodeBinaryGraphPart is DecodeBinaryGraph plus the optional partition
// section; part is nil when the payload carries none.
func DecodeBinaryGraphPart(data []byte) (*Graph, []int, error) {
	return graph.DecodeBinaryPart(data)
}

// OpenBinaryGraph memory-maps (copy-on-write; falls back to a plain read
// where mmap is unavailable) a `.csrb` file and decodes it zero-copy. The
// returned closer releases the mapping and must outlive every use of the
// Graph.
func OpenBinaryGraph(path string) (*Graph, io.Closer, error) { return graph.OpenBinaryFile(path) }

// GenerateWorkload builds one of the named synthetic workloads standing in
// for the paper's Table 1 matrices (see internal/matgen); scale 1.0 gives
// laptop-sized graphs, smaller values shrink them. WorkloadNames lists the
// valid names.
func GenerateWorkload(name string, scale float64) (*Graph, error) {
	w, err := matgen.Generate(name, scale)
	if err != nil {
		return nil, err
	}
	return w.Graph, nil
}

// WorkloadNames lists the names accepted by GenerateWorkload.
func WorkloadNames() []string { return matgen.AllNames() }

// Coarsening scheme names accepted by CoarseningOptions.Scheme (and the
// deprecated Options.Matching alias). RM/HEM/LEM/HCM are the paper's
// pairwise matchings; GCLP is the aggregation-family extension. Names are
// case-insensitive on every input surface; these consts are the canonical
// spellings.
const (
	MatchRM   = "RM"   // random matching
	MatchHEM  = "HEM"  // heavy-edge matching (default; the paper's choice)
	MatchLEM  = "LEM"  // light-edge matching
	MatchHCM  = "HCM"  // heavy-clique matching
	MatchGCLP = "GCLP" // size-constrained label-propagation clustering
)

// Coarsening scheme families reported by CoarseningScheme.Family.
const (
	// FamilyMatching marks the pairwise matchings (RM, HEM, LEM, HCM):
	// each coarsening level at best halves the vertex count.
	FamilyMatching = coarsen.FamilyMatching
	// FamilyAggregation marks cluster coarseners (GCLP): a level can shrink
	// the graph by an arbitrary factor bounded by the cluster weight cap,
	// which is what keeps power-law graphs coarsening where matchings stall.
	FamilyAggregation = coarsen.FamilyAggregation
)

// CoarseningScheme describes one coarsening scheme: canonical name, a
// one-line description and its family (FamilyMatching or
// FamilyAggregation). It is coarsen.SchemeInfo re-exported.
type CoarseningScheme = coarsen.SchemeInfo

// CoarseningSchemes lists every supported coarsening scheme. CLI help, the
// mlbench tables and the daemon's /v1/capabilities endpoint all render this
// registry, so SDK users can discover schemes instead of hardcoding names.
func CoarseningSchemes() []CoarseningScheme { return coarsen.AllSchemes() }

// Initial-partitioning method names accepted by Options.InitPart.
const (
	InitGGGP = "GGGP" // greedy graph growing (default; the paper's choice)
	InitGGP  = "GGP"  // BFS graph growing
	InitSBP  = "SBP"  // spectral bisection of the coarsest graph
)

// Ordering scheme names accepted by Options.Ordering.
const (
	// OrderingNone leaves the vertex labeling untouched (default).
	OrderingNone = graph.OrderNone
	// OrderingDegree relabels by nondecreasing degree before partitioning.
	OrderingDegree = graph.OrderDegree
	// OrderingBFSBlock relabels in per-component BFS visitation order
	// before partitioning.
	OrderingBFSBlock = graph.OrderBFSBlock
)

// Quality preset names accepted by Options.Preset. Fast is one multilevel
// cycle (the historical behavior and the default); eco and strong run
// extra V-cycles, each coarsening the graph *respecting* the current
// partition, skipping initial partitioning, and refining the seeded
// partition with the boundary k-way engine on the way back up. Extra
// cycles trade latency for edge-cut roughly linearly and stay
// bit-identical across RefineWorkers counts.
const (
	PresetFast   = "fast"   // 1 cycle (default)
	PresetEco    = "eco"    // 2 cycles: one partition-seeded extra V-cycle
	PresetStrong = "strong" // 4 cycles, best-of-N with derived per-cycle seeds
)

// Refinement policy names accepted by Options.Refinement.
const (
	RefineNone  = "NONE"  // no refinement (projection only)
	RefineGR    = "GR"    // greedy (one KL pass)
	RefineKLR   = "KLR"   // Kernighan-Lin to convergence
	RefineBGR   = "BGR"   // boundary greedy
	RefineBKLR  = "BKLR"  // boundary Kernighan-Lin
	RefineBKLGR = "BKLGR" // hybrid (default; the paper's choice)
	RefineBKWAY = "BKWAY" // boundary k-way engine on the direct k-way path
)

// CoarseningOptions selects the coarsening scheme and its per-scheme knobs
// — the structured replacement for the deprecated stringly-typed
// Options.Matching. The zero value means MatchHEM with default knobs.
type CoarseningOptions struct {
	// Scheme is the coarsening scheme: MatchRM, MatchHEM, MatchLEM,
	// MatchHCM or MatchGCLP (case-insensitive). Empty means MatchHEM.
	Scheme string `json:"scheme,omitempty"`
	// MaxClusterWeight caps one GCLP cluster's total vertex weight. 0
	// derives the cap from the graph — total vertex weight divided by
	// CoarsenTo — which guarantees the coarsest graph keeps roughly
	// CoarsenTo vertices however aggressively clusters grow. Only
	// meaningful for MatchGCLP; rejected as nonzero for other schemes so a
	// typo'd configuration fails loudly instead of silently doing nothing.
	MaxClusterWeight int `json:"max_cluster_weight,omitempty"`
	// LPRounds bounds GCLP's label-propagation rounds per level (0 means
	// 8; propagation also stops early once no vertex moves). Only
	// meaningful for MatchGCLP, like MaxClusterWeight.
	LPRounds int `json:"lp_rounds,omitempty"`
}

// Options configures partitioning and ordering. The zero value (and a nil
// *Options) is the configuration the paper recommends: HEM coarsening to
// 100 vertices, GGGP initial partitioning with 5 trials, BKLGR refinement,
// 5% imbalance tolerance, seed 0.
//
// Options is part of the wire schema shared by `mlpart -json` and the
// mlserved HTTP daemon (see wire.go and docs/SERVICE.md): every field
// except Tracer round-trips through JSON under the tags below.
type Options struct {
	// Matching is the coarsening scheme: MatchRM, MatchHEM, MatchLEM,
	// MatchHCM or MatchGCLP. Empty means MatchHEM.
	//
	// Deprecated: use Coarsening, which also carries the per-scheme knobs.
	// Matching remains a permanent wire alias (docs/SERVICE.md documents
	// the deprecation policy): it canonicalizes into the same effective
	// configuration, produces identical service cache keys, and when both
	// fields are set they must agree. New code should set Coarsening only.
	Matching string `json:"matching,omitempty"`
	// Coarsening selects the coarsening scheme and its knobs. Nil defers to
	// the deprecated Matching field, or MatchHEM when that is empty too.
	Coarsening *CoarseningOptions `json:"coarsening,omitempty"`
	// InitPart is the coarsest-graph partitioner: InitGGGP, InitGGP or
	// InitSBP. Empty means InitGGGP.
	InitPart string `json:"init_part,omitempty"`
	// Refinement is the uncoarsening policy: RefineNone, RefineGR,
	// RefineKLR, RefineBGR, RefineBKLR, RefineBKLGR or RefineBKWAY. Empty
	// means RefineBKLGR. RefineBKWAY selects the boundary k-way engine on
	// the direct k-way path (PartitionDirectKWay and the KWayRefine
	// post-pass) and behaves like RefineBKLGR during recursive bisection.
	Refinement string `json:"refinement,omitempty"`
	// CoarsenTo is the coarsest-graph size (0 means 100).
	CoarsenTo int `json:"coarsen_to,omitempty"`
	// Ubfactor is the allowed imbalance (0 means 1.05). On the recursive
	// bisection path it bounds each bisection's two sides, not the
	// assembled k-way result: refinement lets a side grow to
	// max(Ubfactor·target, target+maxVwgt), where target is that side's
	// share of the bisected subgraph and maxVwgt the heaviest vertex of
	// the graph being refined, and nothing re-checks the final k parts.
	// The direct k-way refiners apply the same formula to each of the k
	// parts with target = total weight / k.
	Ubfactor float64 `json:"ubfactor,omitempty"`
	// Seed drives all randomized choices; equal seeds give identical
	// results.
	Seed int64 `json:"seed,omitempty"`
	// Parallel runs independent subproblems of recursive bisection and
	// nested dissection on separate goroutines, and the NCuts trials of
	// each bisection concurrently; results are unchanged.
	Parallel bool `json:"parallel,omitempty"`
	// ParallelDepth bounds how many recursion levels fan out onto new
	// goroutines when Parallel is set (0 means 4, i.e. at most 16
	// concurrent branches). Deeper subproblems run sequentially.
	ParallelDepth int `json:"parallel_depth,omitempty"`
	// ParallelMinVertices is the smallest subgraph that still fans out
	// when Parallel is set (0 means 2000).
	ParallelMinVertices int `json:"parallel_min_vertices,omitempty"`
	// KWayRefine runs an extra direct k-way refinement pass over the
	// assembled partition after recursive bisection (never worsens the
	// edge-cut; costs one extra sweep over the graph per pass).
	KWayRefine bool `json:"kway_refine,omitempty"`
	// NCuts runs every bisection this many times with independent seeds
	// and keeps the best cut, trading time for quality; <=1 means once.
	NCuts int `json:"ncuts,omitempty"`
	// CoarsenWorkers > 1 fans the propose phase of GCLP label propagation
	// out over that many workers. Pure scheduling: the partition is
	// bit-identical for every worker count (proposals read only the round
	// snapshot, commits are serial), and the matching schemes (RM, HEM,
	// LEM, HCM) ignore it. <= 1 coarsens serially.
	CoarsenWorkers int `json:"coarsen_workers,omitempty"`
	// RefineWorkers > 1 fans the propose phase of RefineBKWAY boundary
	// k-way refinement out over that many workers. Pure scheduling: the
	// partition is bit-identical for every worker count (proposals are
	// chunk-independent, commits serial). <= 1 refines serially.
	RefineWorkers int `json:"refine_workers,omitempty"`
	// Preset selects the quality/latency trade: PresetFast (or "") is one
	// multilevel cycle, PresetEco adds one partition-seeded extra V-cycle,
	// PresetStrong runs four cycles best-of-N. Applies to Partition and
	// PartitionDirectKWay; PartitionWeighted and NestedDissection ignore
	// it. A failed extra cycle degrades to the best completed partition
	// (see Partitioning.Degradations), never a hard error.
	Preset string `json:"preset,omitempty"`
	// Cycles, when > 0, overrides the preset's cycle count directly
	// (1 behaves like PresetFast). 0 defers to Preset.
	Cycles int `json:"cycles,omitempty"`
	// Ordering relabels the vertices at ingest for memory locality before
	// the multilevel engine runs: OrderingNone (or ""), OrderingDegree or
	// OrderingBFSBlock. The engine partitions the permuted graph and every
	// output (Where, perm, iperm) is inverse-mapped back to the caller's
	// original labeling, so only the traversal order — and therefore the
	// cut a seed-driven heuristic converges to — can differ, never the
	// meaning of the result.
	Ordering string `json:"ordering,omitempty"`
	// CompressGraph enables indistinguishable-vertex compression before
	// NestedDissection: groups of vertices with identical closed
	// neighborhoods (multiple degrees of freedom per mesh node) collapse
	// into weighted supervertices, shrinking every later phase. It has no
	// effect on Partition.
	CompressGraph bool `json:"compress_graph,omitempty"`
	// Tracer, when non-nil, receives typed per-level events while the
	// partitioner runs: hierarchy levels as they are built, the initial
	// cut, every refinement pass, every projection, and per-phase wall
	// time. Use a TraceCollector to gather events in memory or
	// NewJSONTracer to stream them as JSON lines. The tracer must be safe
	// for concurrent use when Parallel is set; results are bit-identical
	// with or without one. Tracer does not cross the wire; the daemon's
	// per-request ?trace=1 capture installs one server-side.
	Tracer Tracer `json:"-"`
	// FaultPlan is a deterministic fault-injection plan (see ParseFaultPlan
	// for the grammar) applied to this run's named sites; empty means the
	// MLPART_FAULTS environment plan (normally none). Like Tracer it does
	// not cross the wire: fault injection is an operator capability, not a
	// client one.
	FaultPlan string `json:"-"`
	// FaultInjector, when non-nil, takes precedence over FaultPlan. Sharing
	// one injector across runs shares its per-site hit counters, which is
	// how "fire on the Nth call" plans span multiple requests.
	FaultInjector *FaultInjector `json:"-"`
}

// FaultInjector fires deterministic faults (panics, errors, delays) at the
// partitioner's named sites; see ParseFaultPlan. It is faults.Injector
// re-exported. A nil injector is valid and costs one nil check per site.
type FaultInjector = faults.Injector

// ParseFaultPlan compiles a fault-injection plan: semicolon-separated
// directives, each `seed=N` or `site=kind[@trigger]` with kind one of
// `panic`, `error`, `delay:<duration>` and trigger `N` (the Nth hit, the
// default 1), `N+` (the Nth hit onward), `pF` (probability F per hit) or
// `*` (every hit). An empty plan returns a nil injector. Site names are
// listed by FaultSites.
func ParseFaultPlan(plan string) (*FaultInjector, error) { return faults.Parse(plan) }

// FaultSites lists the named injection sites, sorted.
func FaultSites() []string { return faults.Sites() }

// Degradation records one graceful-degradation fallback taken during a
// run; see Partitioning.Degradations. It is trace.Degradation re-exported.
type Degradation = trace.Degradation

// Tracer receives structured events from the partitioner; see
// Options.Tracer. It is trace.Tracer re-exported.
type Tracer = trace.Tracer

// TraceEvent is one structured observation from the partitioner (a level
// built, an initial cut, a refinement pass, a projection, or a phase
// timing); see its Kind field.
type TraceEvent = trace.Event

// TraceCollector is a Tracer that gathers events in memory, safe for
// concurrent use.
type TraceCollector = trace.Collector

// NewJSONTracer returns a Tracer that writes each event as one JSON line
// to w, safe for concurrent use.
func NewJSONTracer(w io.Writer) Tracer { return trace.NewJSONTracer(w) }

// EffectiveCoarsening canonicalizes the coarsening configuration: the
// structured Coarsening field, the deprecated Matching alias, or the
// default when neither is set. The result always carries the canonical
// upper-case scheme name, so two spellings of the same configuration
// compare equal — the service cache key is built from this value, which is
// how `matching` and `coarsening` requests share cache entries.
//
// Rules: a nil receiver or empty configuration means MatchHEM. When both
// Matching and Coarsening.Scheme are set they must agree (after
// normalization); disagreeing fields are an error, not a silent
// precedence. GCLP-only knobs (MaxClusterWeight, LPRounds) must be zero
// for the matching-family schemes and never negative.
func (o *Options) EffectiveCoarsening() (CoarseningOptions, error) {
	var eff CoarseningOptions
	name := ""
	if o != nil {
		name = o.Matching
		if o.Coarsening != nil {
			eff = *o.Coarsening
			if eff.Scheme != "" {
				name = eff.Scheme
			}
			if o.Matching != "" && o.Coarsening.Scheme != "" {
				ms, err := coarsen.ParseScheme(o.Matching)
				if err != nil {
					return eff, err
				}
				cs, err := coarsen.ParseScheme(o.Coarsening.Scheme)
				if err != nil {
					return eff, err
				}
				if ms != cs {
					return eff, fmt.Errorf("matching %q and coarsening.scheme %q disagree; set only coarsening", o.Matching, o.Coarsening.Scheme)
				}
			}
		}
	}
	if name == "" {
		name = MatchHEM
	}
	s, err := coarsen.ParseScheme(name)
	if err != nil {
		return eff, err
	}
	eff.Scheme = s.String()
	if eff.MaxClusterWeight < 0 {
		return eff, fmt.Errorf("coarsening.max_cluster_weight = %d, want >= 0", eff.MaxClusterWeight)
	}
	if eff.LPRounds < 0 {
		return eff, fmt.Errorf("coarsening.lp_rounds = %d, want >= 0", eff.LPRounds)
	}
	if s != coarsen.GCLP && (eff.MaxClusterWeight != 0 || eff.LPRounds != 0) {
		return eff, fmt.Errorf("coarsening knobs max_cluster_weight/lp_rounds apply only to %s, not %s", MatchGCLP, eff.Scheme)
	}
	return eff, nil
}

// toML converts public options to the internal configuration.
func (o *Options) toML() (multilevel.Options, error) {
	ml := multilevel.Options{}
	if o == nil {
		return ml, nil
	}
	ml.CoarsenTo = o.CoarsenTo
	ml.Ubfactor = o.Ubfactor
	ml.Seed = o.Seed
	ml.Parallel = o.Parallel
	ml.ParallelDepth = o.ParallelDepth
	ml.ParallelMinVertices = o.ParallelMinVertices
	ml.KWayRefine = o.KWayRefine
	ml.NCuts = o.NCuts
	ml.CoarsenWorkers = o.CoarsenWorkers
	ml.RefineWorkers = o.RefineWorkers
	ml.Tracer = o.Tracer
	if o.FaultInjector != nil {
		ml.Injector = o.FaultInjector
	} else if o.FaultPlan != "" {
		inj, err := faults.Parse(o.FaultPlan)
		if err != nil {
			return ml, err
		}
		ml.Injector = inj
	}
	co, err := o.EffectiveCoarsening()
	if err != nil {
		return ml, err
	}
	if o.Matching != "" || o.Coarsening != nil {
		s, err := coarsen.ParseScheme(co.Scheme)
		if err != nil {
			return ml, err
		}
		ml = ml.WithMatching(s)
		ml.MaxClusterWeight = co.MaxClusterWeight
		ml.LPRounds = co.LPRounds
	}
	if o.InitPart != "" {
		m, err := initpart.ParseMethod(o.InitPart)
		if err != nil {
			return ml, err
		}
		ml.InitMethod = m
	}
	if o.Refinement != "" {
		p, err := refine.ParsePolicy(o.Refinement)
		if err != nil {
			return ml, err
		}
		ml = ml.WithRefinement(p)
	}
	if o.Preset != "" {
		p, err := multilevel.ParsePreset(o.Preset)
		if err != nil {
			return ml, err
		}
		ml.Preset = p
	}
	ml.Cycles = o.Cycles
	return ml, nil
}

// EffectiveCycles resolves Preset and Cycles into the number of multilevel
// cycles a partition will run: an explicit Cycles wins, else fast=1,
// eco=2, strong=4. Option spellings with equal effective cycle counts
// produce identical partitions, which is why the service cache keys on
// this value rather than the raw preset string. Invalid options resolve
// to 1 (Validate reports them properly).
func (o *Options) EffectiveCycles() int {
	ml, err := o.toML()
	if err != nil {
		return 1
	}
	return ml.CycleCount()
}

// Validate reports whether the options are well-formed without running
// anything: unknown algorithm names, negative counts, imbalance factors
// below 1 and invalid FaultPlan strings are rejected with the same error
// the entry points would return. A nil receiver (the default
// configuration) is always valid. Servers should call it before accepting
// a request so a malformed configuration is a client error, never an
// internal one.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	ml, err := o.toML()
	if err != nil {
		return fmt.Errorf("mlpart: %w", err)
	}
	if err := ml.Validate(); err != nil {
		return fmt.Errorf("mlpart: %w", err)
	}
	if _, err := graph.ParseOrdering(o.Ordering); err != nil {
		return fmt.Errorf("mlpart: %w", err)
	}
	return nil
}

// Partitioning is the result of a k-way partition.
type Partitioning struct {
	// Where[v] is the part (0..k-1) assigned to vertex v.
	Where []int
	// EdgeCut is the total weight of edges whose endpoints lie in
	// different parts — the objective the paper minimizes.
	EdgeCut int
	// PartWeights[p] is the total vertex weight of part p.
	PartWeights []int
	// Cycles is the number of multilevel cycles that completed (1 under
	// the fast preset; see Options.Preset). A count below the preset's
	// target means cancellation or a degraded cycle stopped iteration at
	// the best completed partition.
	Cycles int
	// Degradations lists every graceful-degradation fallback the run took
	// (HCM matching stall -> HEM, SBP non-convergence -> GGGP, abandoned
	// refinement pass -> projected partition), in order. Empty on a clean
	// run; a non-empty list means the partition is valid and balanced but
	// may have a worse cut than a clean run would produce.
	Degradations []Degradation
}

// Balance returns k*max(PartWeights)/total; 1.0 is a perfect balance.
func (p *Partitioning) Balance() float64 {
	tot, maxw := 0, 0
	for _, w := range p.PartWeights {
		tot += w
		if w > maxw {
			maxw = w
		}
	}
	if tot == 0 {
		return 1
	}
	return float64(len(p.PartWeights)) * float64(maxw) / float64(tot)
}

// Partition divides g into k parts by recursive multilevel bisection,
// minimizing the edge-cut subject to the balance tolerance. opts may be
// nil for the paper's recommended configuration.
func Partition(g *Graph, k int, opts *Options) (*Partitioning, error) {
	return PartitionCtx(context.Background(), g, k, opts)
}

// PartitionCtx is Partition with cancellation: ctx is checked at every
// level boundary of each multilevel V-cycle and at every recursion step,
// and a wrapped ctx.Err() is returned once it fires. With a
// never-cancelled ctx the result is identical to Partition's.
func PartitionCtx(ctx context.Context, g *Graph, k int, opts *Options) (*Partitioning, error) {
	ml, err := optsOrDefault(opts)
	if err != nil {
		return nil, err
	}
	ml.Context = ctx
	gp, perm, err := applyOrdering(g, opts)
	if err != nil {
		return nil, err
	}
	res, err := multilevel.Partition(gp, k, ml)
	if err != nil {
		return nil, err
	}
	return &Partitioning{
		Where:        unpermuteWhere(res.Where, perm),
		EdgeCut:      res.EdgeCut,
		PartWeights:  res.PartWeights,
		Cycles:       res.Stats.Cycles,
		Degradations: res.Stats.Degradations,
	}, nil
}

// PartitionWeighted divides g into len(fractions) parts where part p
// receives approximately fractions[p] of the total vertex weight — for
// heterogeneous targets such as processors of different speeds. Fractions
// must be positive and are normalized internally.
func PartitionWeighted(g *Graph, fractions []float64, opts *Options) (*Partitioning, error) {
	return PartitionWeightedCtx(context.Background(), g, fractions, opts)
}

// PartitionWeightedCtx is PartitionWeighted with cancellation, mirroring
// PartitionCtx.
func PartitionWeightedCtx(ctx context.Context, g *Graph, fractions []float64, opts *Options) (*Partitioning, error) {
	ml, err := optsOrDefault(opts)
	if err != nil {
		return nil, err
	}
	ml.Context = ctx
	gp, perm, err := applyOrdering(g, opts)
	if err != nil {
		return nil, err
	}
	res, err := multilevel.PartitionWeighted(gp, fractions, ml)
	if err != nil {
		return nil, err
	}
	return &Partitioning{
		Where:        unpermuteWhere(res.Where, perm),
		EdgeCut:      res.EdgeCut,
		PartWeights:  res.PartWeights,
		Cycles:       res.Stats.Cycles,
		Degradations: res.Stats.Degradations,
	}, nil
}

// PartitionDirectKWay divides g into k parts with the direct multilevel
// k-way scheme: one coarsening pass, a k-way split of the coarsest graph,
// and k-way refinement at every uncoarsening level. It is substantially
// faster than Partition for large k at comparable quality (the follow-up
// direction of the paper's authors; provided as an extension).
func PartitionDirectKWay(g *Graph, k int, opts *Options) (*Partitioning, error) {
	return PartitionDirectKWayCtx(context.Background(), g, k, opts)
}

// PartitionDirectKWayCtx is PartitionDirectKWay with cancellation,
// mirroring PartitionCtx.
func PartitionDirectKWayCtx(ctx context.Context, g *Graph, k int, opts *Options) (*Partitioning, error) {
	ml, err := optsOrDefault(opts)
	if err != nil {
		return nil, err
	}
	ml.Context = ctx
	gp, perm, err := applyOrdering(g, opts)
	if err != nil {
		return nil, err
	}
	res, err := multilevel.PartitionKWay(gp, k, ml)
	if err != nil {
		return nil, err
	}
	return &Partitioning{
		Where:        unpermuteWhere(res.Where, perm),
		EdgeCut:      res.EdgeCut,
		PartWeights:  res.PartWeights,
		Cycles:       res.Stats.Cycles,
		Degradations: res.Stats.Degradations,
	}, nil
}

// Bisect splits g into two parts of equal target weight and returns the
// 2-way Partitioning.
func Bisect(g *Graph, opts *Options) (*Partitioning, error) {
	return BisectCtx(context.Background(), g, opts)
}

// BisectCtx is Bisect with cancellation, mirroring PartitionCtx. It is the
// k = 2 case of PartitionCtx — one engine path, one set of recovery and
// cancellation semantics — and produces the identical partition.
func BisectCtx(ctx context.Context, g *Graph, opts *Options) (*Partitioning, error) {
	return PartitionCtx(ctx, g, 2, opts)
}

// EdgeCut returns the edge-cut of an arbitrary partition vector of g; use
// it to evaluate externally produced partitions.
func EdgeCut(g *Graph, where []int) int { return refine.ComputeCut(g, where) }

// PartitionReport summarizes partition quality beyond the edge-cut:
// communication volume, boundary size, balance, part adjacency and
// per-part connectivity.
type PartitionReport = metrics.Report

// EvaluatePartition computes a PartitionReport for any partition vector
// with parts in 0..k-1, whether produced by this package or externally.
func EvaluatePartition(g *Graph, where []int, k int) (*PartitionReport, error) {
	return metrics.Evaluate(g, where, k)
}

// NestedDissection computes a fill-reducing ordering of the symmetric
// matrix whose adjacency structure is g, using multilevel nested dissection
// (MLND). It returns perm (perm[i] = the vertex eliminated i-th) and iperm
// (its inverse: iperm[v] = the position of v in the elimination order).
func NestedDissection(g *Graph, opts *Options) (perm, iperm []int, err error) {
	return NestedDissectionCtx(context.Background(), g, opts)
}

// NestedDissectionCtx is NestedDissection with cancellation: ctx is checked
// at every dissection step and V-cycle level boundary, and a wrapped
// ctx.Err() is returned once it fires. With a never-cancelled ctx the
// ordering is identical to NestedDissection's.
func NestedDissectionCtx(ctx context.Context, g *Graph, opts *Options) (perm, iperm []int, err error) {
	ml, err := optsOrDefault(opts)
	if err != nil {
		return nil, nil, err
	}
	// The dissection re-raises panics captured on its worker goroutines
	// (and a failed bisection escalates as a panic); recover here so
	// library callers always see an error, never a crash.
	defer func() {
		if r := recover(); r != nil {
			perm, iperm, err = nil, nil, fmt.Errorf("mlpart: %w", faults.AsPanic("mlpart/ordering", r))
		}
	}()
	gp, rperm, err := applyOrdering(g, opts)
	if err != nil {
		return nil, nil, err
	}
	o := ordering.Options{ML: ml, Seed: ml.Seed, Parallel: ml.Parallel}
	if opts != nil && opts.CompressGraph {
		perm, err = ordering.MLNDCompressedCtx(ctx, gp, o)
	} else {
		perm, err = ordering.MLNDCtx(ctx, gp, o)
	}
	if err != nil {
		return nil, nil, err
	}
	if rperm != nil {
		// perm is an elimination order in relabeled ids; translate each
		// entry back to the caller's labeling (inv[new] = old).
		inv := make([]int, len(rperm))
		for old, nw := range rperm {
			inv[nw] = old
		}
		for i, v := range perm {
			perm[i] = inv[v]
		}
	}
	return perm, sparse.InversePerm(perm), nil
}

// MinimumDegree computes a fill-reducing ordering with the multiple
// minimum degree algorithm (the serial baseline the paper compares MLND
// against). Returns perm and iperm as in NestedDissection.
func MinimumDegree(g *Graph) (perm, iperm []int) {
	perm = mmd.Order(g)
	return perm, sparse.InversePerm(perm)
}

// OrderingStats reports the symbolic Cholesky cost of factoring the matrix
// with adjacency structure g under a given elimination order.
type OrderingStats struct {
	// FactorNonzeros is nnz(L), counting the diagonal.
	FactorNonzeros int64 `json:"factor_nonzeros"`
	// OperationCount is the factorization flop count (sum of squared
	// column counts), the measure the paper's Figure 5 compares.
	OperationCount float64 `json:"operation_count"`
	// TreeHeight is the elimination tree height; lower means more
	// concurrency for parallel factorization.
	TreeHeight int `json:"tree_height"`
}

// AnalyzeOrdering symbolically factors g under perm and reports the cost.
func AnalyzeOrdering(g *Graph, perm []int) (*OrderingStats, error) {
	a, err := sparse.Analyze(g, perm)
	if err != nil {
		return nil, err
	}
	return &OrderingStats{
		FactorNonzeros: a.NnzL,
		OperationCount: a.Flops,
		TreeHeight:     a.Height,
	}, nil
}

// applyOrdering relabels g per opts.Ordering and returns the graph the
// engine should run on plus the permutation used (perm[old] = new; nil
// when no relabeling happened, in which case the returned graph is g
// itself). The relabel is recorded as a KindPhase "relabel" trace event
// carrying the scheme name and wall time.
func applyOrdering(g *Graph, opts *Options) (*Graph, []int, error) {
	if opts == nil || opts.Ordering == "" {
		return g, nil, nil
	}
	scheme, err := graph.ParseOrdering(opts.Ordering)
	if err != nil {
		return nil, nil, fmt.Errorf("mlpart: %w", err)
	}
	start := time.Now()
	perm, err := graph.RelabelPerm(g, scheme)
	if err != nil {
		return nil, nil, fmt.Errorf("mlpart: %w", err)
	}
	if perm == nil {
		return g, nil, nil
	}
	gp := graph.Permute(g, perm)
	if opts.Tracer != nil {
		opts.Tracer.Event(trace.Event{
			Kind:      trace.KindPhase,
			Phase:     "relabel",
			Algorithm: scheme,
			Vertices:  g.NumVertices(),
			Edges:     g.NumEdges(),
			ElapsedNS: time.Since(start).Nanoseconds(),
		})
	}
	return gp, perm, nil
}

// unpermuteWhere maps a partition vector computed on the relabeled graph
// back to the caller's labeling: where[old] = whereP[perm[old]]. A nil
// perm returns whereP unchanged.
func unpermuteWhere(whereP, perm []int) []int {
	if perm == nil {
		return whereP
	}
	where := make([]int, len(whereP))
	for old, nw := range perm {
		where[old] = whereP[nw]
	}
	return where
}

func optsOrDefault(opts *Options) (multilevel.Options, error) {
	if opts == nil {
		opts = &Options{}
	}
	ml, err := opts.toML()
	if err != nil {
		return ml, fmt.Errorf("mlpart: %w", err)
	}
	return ml, nil
}
