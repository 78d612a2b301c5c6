// Package kway implements direct k-way partition refinement: a greedy
// Kernighan-Lin-style pass over the boundary vertices of a k-way partition
// that moves vertices between adjacent parts when that decreases the
// edge-cut (or keeps it equal while improving balance). The paper produces
// k-way partitions by recursive bisection (§2); refining the assembled
// k-way partition directly afterwards is the natural extension the authors
// pursued in the follow-up METIS work, and it is exposed here through
// multilevel.Options.
package kway

import (
	"math/rand"
	"time"

	"mlpart/internal/graph"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// Options configures k-way refinement.
type Options struct {
	// MaxPasses bounds the number of full sweeps (0 means 8).
	MaxPasses int
	// Ubfactor is the allowed imbalance per part (0 means 1.05).
	Ubfactor float64
	// Seed orders the sweep deterministically.
	Seed int64
	// Workspace, when non-nil, supplies pooled scratch for the sweep order
	// and per-part degree arrays. Results are identical either way.
	Workspace *workspace.Workspace
	// Level is the hierarchy level reported in trace events (engine-set).
	Level int
	// Tracer, when non-nil, receives one KindPass event per greedy sweep.
	// Results are bit-identical with or without a tracer.
	Tracer trace.Tracer
	// Counters, when non-nil, accumulates pass and move totals.
	Counters *trace.Counters
}

func (o Options) withDefaults() Options {
	if o.MaxPasses <= 0 {
		o.MaxPasses = 8
	}
	if o.Ubfactor <= 1 {
		o.Ubfactor = 1.05
	}
	return o
}

// Partition is k-way partition state with incremental part weights and cut.
type Partition struct {
	G     *graph.Graph
	K     int
	Where []int
	Pwgt  []int
	Cut   int
}

// NewPartition builds refinement state for an existing partition vector.
// where is retained, not copied.
func NewPartition(g *graph.Graph, k int, where []int) *Partition {
	p := &Partition{G: g, K: k, Where: where, Pwgt: make([]int, k)}
	p.Recount()
	return p
}

// Recount re-derives Pwgt and Cut from Where in one O(n+m) sweep,
// discarding whatever the incremental state held.
func (p *Partition) Recount() {
	g, where := p.G, p.Where
	clear(p.Pwgt)
	p.Cut = 0
	for v := 0; v < g.NumVertices(); v++ {
		p.Pwgt[where[v]] += g.Vwgt[v]
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			if where[u] != where[v] {
				p.Cut += wgt[i]
			}
		}
	}
	p.Cut /= 2
}

// Balance returns k*max(Pwgt)/total; 1.0 is perfect.
func (p *Partition) Balance() float64 {
	tot, maxw := 0, 0
	for _, w := range p.Pwgt {
		tot += w
		if w > maxw {
			maxw = w
		}
	}
	if tot == 0 {
		return 1
	}
	return float64(p.K) * float64(maxw) / float64(tot)
}

// Refine runs greedy k-way refinement in place and returns the final cut.
// Each pass visits the vertices in a fixed random order; for every boundary
// vertex the best admissible move to an adjacent part is applied when it
// reduces the cut, or keeps the cut while strictly improving the weight
// spread. Passes repeat until none makes a move, or MaxPasses.
func Refine(p *Partition, opts Options) int {
	opts = opts.withDefaults()
	n := p.G.NumVertices()
	if n == 0 || p.K < 2 {
		return p.Cut
	}
	tot := p.G.TotalVertexWeight()
	target := tot / p.K
	maxVwgt := 0
	for _, w := range p.G.Vwgt {
		if w > maxVwgt {
			maxVwgt = w
		}
	}
	limit := int(opts.Ubfactor * float64(target))
	if lim2 := target + maxVwgt; lim2 > limit {
		limit = lim2
	}

	ws := opts.Workspace
	order := workspace.PermInto(rand.New(rand.NewSource(opts.Seed)), n, ws.Int(n))
	// Scratch arrays for per-part external degrees of the current vertex.
	// seen must start clean: a stale entry equal to a future stamp would
	// corrupt the degree collection.
	ed := ws.Int(p.K)
	seen := ws.IntFilled(p.K, 0)
	stamp := 0

	for pass := 0; pass < opts.MaxPasses; pass++ {
		var t0 time.Time
		if opts.Tracer != nil {
			t0 = time.Now()
		}
		moves := 0
		posGain := 0
		for _, v := range order {
			from := p.Where[v]
			adj := p.G.Neighbors(v)
			wgt := p.G.EdgeWeights(v)
			// Collect degrees to each adjacent part.
			stamp++
			boundary := false
			for i, u := range adj {
				pu := p.Where[u]
				if seen[pu] != stamp {
					seen[pu] = stamp
					ed[pu] = 0
				}
				ed[pu] += wgt[i]
				if pu != from {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			id := 0
			if seen[from] == stamp {
				id = ed[from]
			}
			// Best admissible destination among adjacent parts.
			best, bestGain := -1, 0
			for i := range adj {
				to := p.Where[adj[i]]
				if to == from || seen[to] != stamp {
					continue
				}
				if p.Pwgt[to]+p.G.Vwgt[v] > limit {
					continue
				}
				gain := ed[to] - id
				better := gain > bestGain
				if gain == bestGain && gain >= 0 && best != -1 && p.Pwgt[to] < p.Pwgt[best] {
					better = true
				}
				if gain == 0 && best == -1 && p.Pwgt[to]+p.G.Vwgt[v] < p.Pwgt[from] {
					// Zero-gain move that strictly improves spread.
					better = true
				}
				if better {
					best, bestGain = to, gain
				}
			}
			if best < 0 {
				continue
			}
			// Never empty a part.
			if p.Pwgt[from]-p.G.Vwgt[v] <= 0 {
				continue
			}
			p.Where[v] = best
			p.Pwgt[from] -= p.G.Vwgt[v]
			p.Pwgt[best] += p.G.Vwgt[v]
			p.Cut -= bestGain
			moves++
			if bestGain > 0 {
				posGain++
			}
		}
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
				Cut:               p.Cut,
				Algorithm:         "KWAY",
				ElapsedNS:         time.Since(t0).Nanoseconds(),
			})
		}
		if moves == 0 {
			break
		}
	}
	ws.PutInt(order)
	ws.PutInt(ed)
	ws.PutInt(seen)
	return p.Cut
}
