// Package coarsen implements the coarsening phase of the multilevel scheme
// (§3.1 of the paper): maximal matchings computed by one of four heuristics
// — random matching (RM), heavy-edge matching (HEM), light-edge matching
// (LEM) and heavy-clique matching (HCM) — and the contraction that collapses
// each matched pair into a multinode of the next-coarser graph. A second
// coarsening family, GCLP (size-constrained label-propagation clustering,
// gclp.go), contracts arbitrary-size clusters instead of pairs, which keeps
// shrinking power-law graphs where maximal matchings stall.
//
// Contraction preserves the evaluation invariant the paper relies on: a
// partition of the coarse graph has exactly the same edge-cut as the
// corresponding partition of the fine graph, because multinode vertex
// weights are the sums of their constituents and parallel edges collapse by
// summing weights. It follows that W(E_{i+1}) = W(E_i) - W(M_i).
package coarsen

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// Scheme selects the coarsening heuristic used at each level: one of the
// paper's four matchings, or the GCLP cluster aggregation.
type Scheme int

const (
	// RM visits vertices in random order and matches each with a random
	// unmatched neighbor.
	RM Scheme = iota
	// HEM matches each vertex with the unmatched neighbor connected by the
	// heaviest edge, maximizing the matching weight removed from the graph.
	HEM
	// LEM matches across the lightest incident edge, minimizing the weight
	// removed (used by the paper as a control; it raises the coarse graph's
	// average degree).
	LEM
	// HCM matches the pair whose merged multinode has the highest edge
	// density, approximating coarsening by highly-connected components.
	HCM
	// GCLP groups vertices into arbitrary-size clusters by size-constrained
	// label propagation and contracts whole clusters, not pairs. On
	// power-law graphs (social networks, web graphs) maximal matchings
	// leave most vertices unmatched around hubs and coarsening stalls; GCLP
	// lets a hub absorb many leaves per level, so the hierarchy keeps
	// shrinking. See gclp.go.
	GCLP
)

// Scheme families as reported by SchemeInfo.Family.
const (
	// FamilyMatching marks the paper's pairwise matchings (RM, HEM, LEM,
	// HCM): each level at best halves the vertex count.
	FamilyMatching = "matching"
	// FamilyAggregation marks cluster coarseners (GCLP): each level can
	// shrink the graph by an arbitrary factor bounded by the cluster
	// weight cap.
	FamilyAggregation = "aggregation"
)

// String returns the scheme's abbreviation as used in the paper (GCLP is
// this package's extension).
func (s Scheme) String() string {
	switch s {
	case RM:
		return "RM"
	case HEM:
		return "HEM"
	case LEM:
		return "LEM"
	case HCM:
		return "HCM"
	case GCLP:
		return "GCLP"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Family returns the scheme's family: FamilyMatching for the pairwise
// matchings, FamilyAggregation for GCLP.
func (s Scheme) Family() string {
	if s == GCLP {
		return FamilyAggregation
	}
	return FamilyMatching
}

// Valid reports whether s is one of the defined schemes; Match panics on
// anything else, so user-reachable entry points must gate on this.
func (s Scheme) Valid() bool { return s >= RM && s <= GCLP }

// ParseScheme converts an abbreviation ("RM", "HEM", "LEM", "HCM", "GCLP")
// to a Scheme. Parsing is the single normalization point for every surface
// that accepts a scheme name — CLI flags, JSON options, query parameters —
// so case and surrounding whitespace are forgiven here once ("hem" and
// " HEM " both parse) instead of inconsistently per caller.
func ParseScheme(s string) (Scheme, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "RM":
		return RM, nil
	case "HEM":
		return HEM, nil
	case "LEM":
		return LEM, nil
	case "HCM":
		return HCM, nil
	case "GCLP":
		return GCLP, nil
	}
	return 0, fmt.Errorf("coarsen: unknown coarsening scheme %q (want RM, HEM, LEM, HCM or GCLP)", s)
}

// SchemeInfo describes one coarsening scheme for discovery surfaces: the
// CLI help text, mlbench tables and the service's /v1/capabilities endpoint
// all render the same registry instead of hardcoding scheme lists.
type SchemeInfo struct {
	Scheme      Scheme
	Name        string
	Description string
	Family      string
}

// schemeRegistry is the registry behind AllSchemes, in Scheme order.
var schemeRegistry = [...]SchemeInfo{
	{RM, "RM", "random matching: match each vertex with a random unmatched neighbor", FamilyMatching},
	{HEM, "HEM", "heavy-edge matching: match across the heaviest incident edge (the paper's choice)", FamilyMatching},
	{LEM, "LEM", "light-edge matching: match across the lightest incident edge (the paper's control)", FamilyMatching},
	{HCM, "HCM", "heavy-clique matching: match the pair with the densest merged multinode", FamilyMatching},
	{GCLP, "GCLP", "size-constrained label-propagation clustering: contract arbitrary-size clusters, built for power-law graphs where matchings stall", FamilyAggregation},
}

// AllSchemes lists every supported coarsening scheme with its name,
// description and family, in Scheme order. The returned slice is a copy.
func AllSchemes() []SchemeInfo {
	out := make([]SchemeInfo, len(schemeRegistry))
	copy(out, schemeRegistry[:])
	return out
}

// Match computes a maximal matching of g in O(|E|) using the given scheme.
// The result maps each vertex to its partner; unmatched vertices map to
// themselves. cew is the contracted edge weight of each vertex (the total
// weight of original edges already inside the multinode); it is only
// consulted by HCM and may be nil for the others or for level-0 graphs.
func Match(g *graph.Graph, scheme Scheme, cew []int, rng *rand.Rand) []int {
	return MatchWS(g, scheme, cew, nil, rng, nil)
}

// MatchWS is Match drawing its scratch (and the returned matching) from ws;
// the caller releases the result with ws.PutInt once contracted. A nil ws
// allocates, exactly like Match.
//
// respect, when non-nil, assigns each vertex a group (typically its part in
// an existing partition) and restricts the matching to pairs inside one
// group. Matchings that never cross groups make the contraction
// partition-respecting: the existing partition projects onto the coarse
// graph with exactly the same cut, which is what lets an iterated
// multilevel cycle seed itself from the previous cycle's result.
func MatchWS(g *graph.Graph, scheme Scheme, cew, respect []int, rng *rand.Rand, ws *workspace.Workspace) []int {
	n := g.NumVertices()
	match := ws.IntFilled(n, -1)
	order := workspace.PermInto(rng, n, ws.Int(n))
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		adj := g.Neighbors(u)
		wgt := g.EdgeWeights(u)
		pick := -1
		switch scheme {
		case RM:
			// First unmatched neighbor scanning from a random offset —
			// equivalent to the paper's randomly permuted adjacency lists,
			// and the cheapest scheme (one RNG call per vertex).
			if len(adj) > 0 {
				off := rng.Intn(len(adj))
				for t := 0; t < len(adj); t++ {
					v := adj[(off+t)%len(adj)]
					if match[v] < 0 && v != u && (respect == nil || respect[v] == respect[u]) {
						pick = v
						break
					}
				}
			}
		case HEM:
			best := -1
			for i, v := range adj {
				if match[v] < 0 && wgt[i] > best && (respect == nil || respect[v] == respect[u]) {
					best = wgt[i]
					pick = v
				}
			}
		case LEM:
			best := int(^uint(0) >> 1)
			for i, v := range adj {
				if match[v] < 0 && wgt[i] < best && (respect == nil || respect[v] == respect[u]) {
					best = wgt[i]
					pick = v
				}
			}
		case HCM:
			best := -1.0
			for i, v := range adj {
				if match[v] >= 0 || (respect != nil && respect[v] != respect[u]) {
					continue
				}
				d := mergedDensity(g, cew, u, v, wgt[i])
				if d > best {
					best = d
					pick = v
				}
			}
		default:
			panic(fmt.Sprintf("coarsen: invalid scheme %d", scheme))
		}
		if pick >= 0 {
			match[u] = pick
			match[pick] = u
		} else {
			match[u] = u
		}
	}
	ws.PutInt(order)
	return match
}

// mergedDensity returns the edge density 2|E_U| / (|U|(|U|-1)) of the
// multinode formed by merging u and v, where |U| is the number of original
// vertices (the multinode weight) and |E_U| the total weight of original
// edges inside it.
func mergedDensity(g *graph.Graph, cew []int, u, v, w int) float64 {
	size := g.Vwgt[u] + g.Vwgt[v]
	if size < 2 {
		size = 2
	}
	inner := w
	if cew != nil {
		inner += cew[u] + cew[v]
	}
	return 2 * float64(inner) / (float64(size) * float64(size-1))
}

// Contract builds the next-coarser graph induced by a matching. It returns
// the coarse graph, the vertex map cmap (fine vertex -> coarse vertex), and
// the coarse contracted-edge-weight array (needed by HCM at deeper levels).
// cew may be nil, meaning all-zero. The returned adjacency arrays are
// length-trimmed: the coarse graph pins no more memory than it needs.
func Contract(g *graph.Graph, match []int, cew []int) (*graph.Graph, []int, []int) {
	return ContractWS(g, match, cew, nil)
}

// ContractWS is Contract drawing its scratch and the coarse graph's arrays
// from ws. The returned graph, cmap and cew arrays are pooled buffers owned
// by the caller (Coarsen releases them through Hierarchy.Release); with a
// nil ws the coarse arrays are freshly allocated at their exact sizes.
func ContractWS(g *graph.Graph, match []int, cew []int, ws *workspace.Workspace) (*graph.Graph, []int, []int) {
	n := g.NumVertices()
	cmap := ws.Int(n)
	cn := 0
	for v := 0; v < n; v++ {
		if match[v] >= v || match[v] < 0 {
			// v is the representative of its pair (or unmatched).
			cmap[v] = cn
			cn++
		}
	}
	for v := 0; v < n; v++ {
		if match[v] >= 0 && match[v] < v {
			cmap[v] = cmap[match[v]]
		}
	}

	cvwgt := ws.Int(cn)
	ccew := ws.IntFilled(cn, 0)
	// Stage the coarse adjacency at its upper bound — the fine graph's total
	// degree — dedup in place, and trim afterwards.
	ub := len(g.Adjncy)
	cadjncy := ws.Int(ub)
	cadjwgt := ws.Int(ub)

	// htable[c] is the position of coarse neighbor c in the current coarse
	// vertex's adjacency, or -1.
	htable := ws.IntFilled(cn, -1)
	pos := 0
	cxadj := ws.Int(cn + 1)
	cv := 0
	for v := 0; v < n; v++ {
		if match[v] >= 0 && match[v] < v {
			continue // handled with its representative
		}
		start := pos
		cxadj[cv] = start
		if cew != nil {
			ccew[cv] = cew[v]
		}
		cvwgt[cv] = g.Vwgt[v]
		if match[v] != v && match[v] >= 0 {
			cvwgt[cv] += g.Vwgt[match[v]]
			if cew != nil {
				ccew[cv] += cew[match[v]]
			}
			ccew[cv] += g.EdgeWeight(v, match[v])
		}
		for j := 0; j < 2; j++ {
			u := v
			if j == 1 {
				if match[v] == v || match[v] < 0 {
					break
				}
				u = match[v]
			}
			adj := g.Neighbors(u)
			wgt := g.EdgeWeights(u)
			for i, w := range adj {
				c := cmap[w]
				if c == cv {
					continue // internal edge of the multinode
				}
				if p := htable[c]; p >= 0 {
					cadjwgt[p] += wgt[i]
				} else {
					htable[c] = pos
					cadjncy[pos] = c
					cadjwgt[pos] = wgt[i]
					pos++
				}
			}
		}
		for p := start; p < pos; p++ {
			htable[cadjncy[p]] = -1
		}
		cv++
		cxadj[cv] = pos
	}
	ws.PutInt(htable)

	if ws == nil {
		// Trim: the staging arrays were sized to the upper bound; copy the
		// used prefix so the coarse graph does not pin ~2x its needed
		// memory for the lifetime of the hierarchy.
		trimmedNcy := make([]int, pos)
		copy(trimmedNcy, cadjncy)
		trimmedWgt := make([]int, pos)
		copy(trimmedWgt, cadjwgt)
		cadjncy, cadjwgt = trimmedNcy, trimmedWgt
	}
	cg := &graph.Graph{
		Xadj:   cxadj,
		Adjncy: cadjncy[:pos],
		Adjwgt: cadjwgt[:pos],
		Vwgt:   cvwgt,
	}
	return cg, cmap, ccew
}

// Level is one rung of the coarsening hierarchy: the graph at this level
// and the map from its vertices to the next-coarser level's vertices.
type Level struct {
	Graph *graph.Graph
	// Cmap maps this level's vertices to the next (coarser) level's
	// vertices; nil on the coarsest level.
	Cmap []int
}

// Hierarchy is the sequence of graphs G_0 (finest) .. G_m (coarsest)
// produced by repeated matching and contraction.
type Hierarchy struct {
	Levels []Level
	// pooled records whether the level arrays (except the finest graph,
	// which belongs to the caller) came from a workspace.
	pooled bool
}

// Coarsest returns the last (smallest) graph of the hierarchy.
func (h *Hierarchy) Coarsest() *graph.Graph {
	return h.Levels[len(h.Levels)-1].Graph
}

// Release returns every pooled array of the hierarchy — the coarse graphs
// and all cmaps, but never the caller-owned finest graph — to ws, leaving h
// empty. It is a no-op for hierarchies built without a workspace. The
// caller must not touch any level after Release.
func (h *Hierarchy) Release(ws *workspace.Workspace) {
	if ws == nil || !h.pooled {
		return
	}
	for i := range h.Levels {
		if h.Levels[i].Cmap != nil {
			ws.PutInt(h.Levels[i].Cmap)
		}
		if i > 0 {
			releaseGraph(ws, h.Levels[i].Graph)
		}
	}
	h.Levels = nil
}

// releaseGraph returns a coarse graph's four CSR arrays to ws.
func releaseGraph(ws *workspace.Workspace, g *graph.Graph) {
	ws.PutInt(g.Xadj)
	ws.PutInt(g.Adjncy)
	ws.PutInt(g.Adjwgt)
	ws.PutInt(g.Vwgt)
}

// Options configures Coarsen.
type Options struct {
	// Scheme is the coarsening heuristic (default RM for the zero value).
	Scheme Scheme
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices. The paper coarsens "down to a few hundred vertices";
	// callers typically pass 100.
	CoarsenTo int
	// MaxClusterWeight caps the total vertex weight of one GCLP cluster.
	// <= 0 derives the cap from the finest graph: total weight divided by
	// CoarsenTo, which guarantees the coarsest graph keeps at least
	// ~CoarsenTo vertices however aggressively clusters grow. Ignored by
	// the matching schemes.
	MaxClusterWeight int
	// LPRounds is the number of label-propagation propose/commit rounds
	// GCLP runs per level (<= 0 means 8). Propagation also stops early the
	// first round no vertex moves. Ignored by the matching schemes.
	LPRounds int
	// MaxLevels bounds the number of coarsening levels (safety net for
	// graphs that barely contract); <=0 means no bound.
	MaxLevels int
	// Respect, when non-nil, maps each finest-level vertex to a group
	// (typically its part in an existing partition). Matchings never cross
	// groups, so the grouping projects exactly onto every coarse level —
	// the prerequisite for seeding an iterated multilevel cycle from a
	// previous partition. The slice is caller-owned and never released.
	Respect []int
	// Workers chunks GCLP's propose phase across that many goroutines
	// (<= 1 proposes serially). Proposals read only the round snapshot and
	// commits are serial, so the hierarchy is bit-identical for every
	// worker count; the matching schemes ignore it.
	Workers int
	// Workspace, when non-nil, supplies pooled scratch buffers and backs
	// the hierarchy's own arrays; the caller must call Hierarchy.Release
	// when done with the hierarchy. Results are identical either way.
	Workspace *workspace.Workspace
	// Tracer, when non-nil, receives one KindLevel event for the finest
	// graph and one per contraction (vertices, edges, matching rate, wall
	// time). Results are bit-identical with or without a tracer.
	Tracer trace.Tracer
	// Injector, when non-nil, is consulted at the coarsening fault sites:
	// faults.SiteCoarsenLevel at each level boundary (an injected error
	// stops coarsening early, leaving a valid but shallower hierarchy)
	// and faults.SiteCoarsenMatch after each matching (an injected error
	// forces the stall path). A nil Injector costs one nil check.
	Injector *faults.Injector
	// Degradations, when non-nil, receives a record for every graceful
	// fallback taken — a stalled HCM or GCLP level retried as HEM.
	Degradations *[]trace.Degradation
}

// emitLevel reports a new hierarchy level to tr. fine is the level the
// contraction started from (nil for the finest level's own event); scheme
// is the heuristic that produced the contraction (after any stall
// fallback), carried in the event's Algorithm field.
func emitLevel(tr trace.Tracer, level int, fine, cur *graph.Graph, scheme Scheme, elapsed time.Duration) {
	ev := trace.Event{
		Kind:      trace.KindLevel,
		Level:     level,
		Algorithm: scheme.String(),
		Vertices:  cur.NumVertices(),
		Edges:     cur.NumEdges(),
		ElapsedNS: elapsed.Nanoseconds(),
	}
	if fine != nil && fine.NumVertices() > 0 {
		if scheme == GCLP {
			// Fraction of the finer level's vertices absorbed into
			// clusters; pairs can't express arbitrary-size merges.
			ev.MatchRate = float64(fine.NumVertices()-cur.NumVertices()) / float64(fine.NumVertices())
		} else {
			// Fraction of the finer level's vertices absorbed into pairs.
			ev.MatchRate = 2 * float64(fine.NumVertices()-cur.NumVertices()) / float64(fine.NumVertices())
		}
	}
	tr.Event(ev)
}

// Coarsen builds the full hierarchy for g. Coarsening stops when the graph
// has at most opts.CoarsenTo vertices, when a level shrinks the graph by
// less than 10% (matchings have become ineffective, e.g. star graphs), or
// when the graph has no edges left. A stalled HCM or GCLP level is retried
// once per level with HEM (recorded in opts.Degradations); only if HEM
// stalls too does coarsening stop early.
func Coarsen(g *graph.Graph, opts Options, rng *rand.Rand) *Hierarchy {
	if opts.CoarsenTo <= 0 {
		opts.CoarsenTo = 100
	}
	maxClusterW := opts.MaxClusterWeight
	if maxClusterW <= 0 {
		// Derived cap: clusters of at most total/CoarsenTo weight keep at
		// least ~CoarsenTo coarse vertices however fast GCLP aggregates.
		maxClusterW = g.TotalVertexWeight() / opts.CoarsenTo
		if maxClusterW < 1 {
			maxClusterW = 1
		}
	}
	lpRounds := opts.LPRounds
	if lpRounds <= 0 {
		lpRounds = defaultLPRounds
	}
	ws := opts.Workspace
	// step contracts one level under the given scheme: cluster contraction
	// for GCLP, matching contraction for the paper's four schemes.
	step := func(cur *graph.Graph, scheme Scheme, cew, respect []int) (*graph.Graph, []int, []int) {
		if scheme == GCLP {
			cmap, cn := clusterLPWS(cur, respect, lpConfig{
				maxWeight: maxClusterW,
				rounds:    lpRounds,
				workers:   opts.Workers,
			}, rng, ws)
			next, ccew := ContractClustersWS(cur, cmap, cn, cew, ws)
			return next, cmap, ccew
		}
		match := MatchWS(cur, scheme, cew, respect, rng, ws)
		next, cmap, ccew := ContractWS(cur, match, cew, ws)
		ws.PutInt(match)
		return next, cmap, ccew
	}
	h := &Hierarchy{pooled: ws != nil}
	cur := g
	if opts.Tracer != nil {
		emitLevel(opts.Tracer, 0, nil, g, opts.Scheme, 0)
	}
	scheme := opts.Scheme
	var cew []int // zero at the finest level
	respect := opts.Respect
	respectPooled := false // the finest-level respect belongs to the caller
	for {
		h.Levels = append(h.Levels, Level{Graph: cur})
		if cur.NumVertices() <= opts.CoarsenTo || cur.NumEdges() == 0 {
			break
		}
		if opts.MaxLevels > 0 && len(h.Levels) > opts.MaxLevels {
			break
		}
		if opts.Injector.Fire(faults.SiteCoarsenLevel) != nil {
			// An injected error at the level boundary stops coarsening
			// early: the hierarchy so far is valid, just shallower.
			break
		}
		var t0 time.Time
		if opts.Tracer != nil {
			t0 = time.Now()
		}
		stallErr := opts.Injector.Fire(faults.SiteCoarsenMatch)
		next, cmap, ccew := step(cur, scheme, cew, respect)
		stalled := stallErr != nil || next.NumVertices() > cur.NumVertices()*9/10
		if stalled && (scheme == HCM || scheme == GCLP) {
			// HCM's density criterion can stop matching on graphs HEM
			// still coarsens (dense multinodes make every merge look bad),
			// and GCLP's weight cap can freeze label propagation once every
			// neighboring cluster is full. Fall back to HEM for this and
			// all deeper levels rather than abandoning the hierarchy at a
			// coarse size the initial partitioner handles poorly.
			if ws != nil {
				releaseGraph(ws, next)
				ws.PutInt(cmap)
			}
			ws.PutInt(ccew)
			reason := "matching stalled"
			if stallErr != nil {
				reason = stallErr.Error()
			} else if scheme == GCLP {
				reason = "clustering stalled"
			}
			if opts.Degradations != nil {
				*opts.Degradations = append(*opts.Degradations, trace.Degradation{
					Phase:  "coarsen",
					From:   scheme.String(),
					To:     HEM.String(),
					Level:  len(h.Levels) - 1,
					Reason: reason,
				})
			}
			scheme = HEM
			next, cmap, ccew = step(cur, scheme, cew, respect)
			stalled = next.NumVertices() > cur.NumVertices()*9/10
		}
		if stalled {
			// Coarsening stalled; further levels would waste time.
			if ws != nil {
				releaseGraph(ws, next)
				ws.PutInt(cmap)
			}
			ws.PutInt(ccew)
			break
		}
		if opts.Tracer != nil {
			emitLevel(opts.Tracer, len(h.Levels), cur, next, scheme, time.Since(t0))
		}
		h.Levels[len(h.Levels)-1].Cmap = cmap
		ws.PutInt(cew) // the previous level's cew is dead once contracted
		if respect != nil {
			// Project the grouping onto the coarse level. Well-defined
			// because neither matchings nor label propagation ever merge
			// vertices of different groups, so every fine vertex of a
			// multinode agrees on the group.
			cr := ws.Int(next.NumVertices())
			for v, c := range cmap {
				cr[c] = respect[v]
			}
			if respectPooled {
				ws.PutInt(respect)
			}
			respect = cr
			respectPooled = true
		}
		cur = next
		cew = ccew
	}
	ws.PutInt(cew)
	if respectPooled {
		ws.PutInt(respect)
	}
	return h
}
