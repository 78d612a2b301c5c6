package refine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/trace"
)

// refineKWayUnfiltered is the reference RefineKWay is held to: the same
// protocol with every boundary vertex proposed, serially. It shares the
// propose and commit kernels, so any difference from RefineKWay comes from
// the ext >= id propose filter or from how the propose phase is scheduled.
func refineKWayUnfiltered(p *kway.Partition, opts KWayOptions) int {
	opts = opts.withDefaults()
	g, k := p.G, p.K
	n := g.NumVertices()
	if n == 0 || k < 2 {
		return p.Cut
	}
	limit := kwayLimit(g, k, opts.Ubfactor)
	r := kwayRefiner{p: p, ext: make([]int, n), bndIndex: make([]int, n), bestTo: make([]int, n), bestGain: make([]int, n)}
	for v := 0; v < n; v++ {
		r.bndIndex[v] = -1
		for i, u := range g.Neighbors(v) {
			if p.Where[u] != p.Where[v] {
				r.ext[v] += g.EdgeWeights(v)[i]
			}
		}
		r.bndFix(v)
	}
	ed, seen, touched, stamp := make([]int, k), make([]int, k), make([]int, k), 0
	rng := splitmix64{x: uint64(opts.Seed)*0x9E3779B97F4A7C15 + 0x94D049BB133111EB}
	for pass := 0; pass < opts.MaxPasses && len(r.bndList) > 0; pass++ {
		snap := slices.Clone(r.bndList)
		for i := len(snap) - 1; i > 0; i-- {
			j := rng.intn(i + 1)
			snap[i], snap[j] = snap[j], snap[i]
		}
		asc := slices.Clone(snap)
		slices.Sort(asc)
		kwayPropose(p, r.bestTo, r.bestGain, asc, ed, seen, touched, &stamp, limit)
		moves, posGain := r.commit(snap, ed, seen, &stamp, limit)
		if opts.Counters != nil {
			opts.Counters.RefinePasses++
			opts.Counters.RefineMoves += moves
			opts.Counters.PositiveGainMoves += posGain
		}
		if moves == 0 {
			break
		}
	}
	return p.Cut
}

// reweighted returns a copy of g with vertex weights in [1,4] and
// symmetric edge weights in [1,5], both drawn from seed.
func reweighted(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	h := g.Clone()
	for v := range h.Vwgt {
		h.Vwgt[v] = 1 + rng.Intn(4)
	}
	for v := 0; v < h.NumVertices(); v++ {
		for i, u := range h.Neighbors(v) {
			if u > v {
				w := 1 + rng.Intn(5)
				h.EdgeWeights(v)[i] = w
				for j, x := range h.Neighbors(u) {
					if x == v {
						h.EdgeWeights(u)[j] = w
					}
				}
			}
		}
	}
	return h
}

// randomWeighted is an Erdős–Rényi-style graph with n vertices, about m
// edges, vertex weights in [1,4] and edge weights in [1,5].
func randomWeighted(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 1+rng.Intn(4))
	}
	for i := 0; i < m; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddWeightedEdge(u, v, 1+rng.Intn(5))
		}
	}
	return b.MustBuild()
}

// noisyBlocks assigns contiguous id ranges to parts and then moves a
// tenth of the vertices to random parts: a partition with a realistic
// interior plus boundary vertices on both sides of the ext >= id line.
func noisyBlocks(n, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	where := make([]int, n)
	for v := range where {
		where[v] = v * k / n
		if rng.Intn(10) == 0 {
			where[v] = rng.Intn(k)
		}
	}
	return where
}

// TestRefineKWayMatchesUnfiltered holds the propose filter to exactness:
// dropping the boundary vertices with ext < id from the propose phase, and
// sizing the worker fan-out by the vertices left, changes no partition,
// cut, part weight or counter against the unfiltered reference.
func TestRefineKWayMatchesUnfiltered(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"FE3D", matgen.FE3DTetra(12, 12, 12, 5)},
		{"FE3D-weighted", reweighted(matgen.FE3DTetra(10, 10, 10, 6), 1)},
		{"SOC", matgen.SocialNetwork(3000, 4, 7)},
		{"SOC-weighted", reweighted(matgen.SocialNetwork(2000, 3, 8), 2)},
		{"random-weighted", randomWeighted(1500, 6000, 3)},
	}
	for _, tc := range graphs {
		n := tc.g.NumVertices()
		for _, k := range []int{2, 3, 8, 32} {
			starts := map[string][]int{
				"blocks": noisyBlocks(n, k, int64(k)),
				"random": randomKWhere(n, k, int64(k)+100),
			}
			for start, base := range starts {
				seed := int64(k)*7 + 1
				want := kway.NewPartition(tc.g, k, slices.Clone(base))
				var wantCtr trace.Counters
				refineKWayUnfiltered(want, KWayOptions{Seed: seed, Counters: &wantCtr})
				for _, workers := range []int{1, 4} {
					got := kway.NewPartition(tc.g, k, slices.Clone(base))
					var gotCtr trace.Counters
					cut := RefineKWay(got, KWayOptions{Seed: seed, Workers: workers, Counters: &gotCtr})
					if cut != want.Cut || got.Cut != want.Cut || !slices.Equal(got.Pwgt, want.Pwgt) ||
						!slices.Equal(got.Where, want.Where) || gotCtr != wantCtr {
						t.Fatalf("%s k=%d %s workers=%d: cut %d pwgt %v counters %+v, unfiltered cut %d pwgt %v counters %+v (where equal: %v)",
							tc.name, k, start, workers, got.Cut, got.Pwgt, gotCtr,
							want.Cut, want.Pwgt, wantCtr, slices.Equal(got.Where, want.Where))
					}
					verifyKWay(t, got)
				}
			}
		}
	}
}

// TestKWayProposeRejectsExtBelowID is the property the filter rests on:
// for every boundary vertex whose external degree is below its internal
// degree (2·ext < wdeg), the unfiltered propose finds no move. The
// partitions are skewed so that the balance and never-empty rules are in
// play too.
func TestKWayProposeRejectsExtBelowID(t *testing.T) {
	checked := 0
	for _, k := range []int{2, 3, 8, 32} {
		for trial := int64(0); trial < 3; trial++ {
			seed := int64(k)*10 + trial
			rng := rand.New(rand.NewSource(seed))
			g := reweighted(matgen.FE3DTetra(8, 8, 8, seed), seed)
			limit := kwayLimit(g, k, 1.5)
			where := noisyBlocks(g.NumVertices(), k, seed)
			if trial == 2 {
				where = skewedWhere(g, k, limit, rng)
			}
			p := kway.NewPartition(g, k, where)
			var bnd []int
			for v := range p.Where {
				for _, u := range g.Neighbors(v) {
					if p.Where[u] != p.Where[v] {
						bnd = append(bnd, v)
						break
					}
				}
			}
			n := g.NumVertices()
			bestTo, bestGain := make([]int, n), make([]int, n)
			kwayPropose(p, bestTo, bestGain, bnd, make([]int, k), make([]int, k), make([]int, k), new(int), limit)
			for _, v := range bnd {
				ext, wdeg := 0, 0
				for i, u := range g.Neighbors(v) {
					wdeg += g.EdgeWeights(v)[i]
					if p.Where[u] != p.Where[v] {
						ext += g.EdgeWeights(v)[i]
					}
				}
				if 2*ext >= wdeg {
					continue
				}
				checked++
				if bestTo[v] != -1 {
					t.Fatalf("k=%d trial=%d: vertex %d has ext %d < id %d but proposes part %d gain %d",
						k, trial, v, ext, wdeg-ext, bestTo[v], bestGain[v])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no boundary vertex with ext < id: the property went unexercised")
	}
}

// FuzzRefineKWay runs the filtered engine and the unfiltered reference on
// a small fuzzed weighted graph and partition: both must agree exactly,
// and the incrementally maintained cut and part weights must match a
// recomputation from the partition vector.
func FuzzRefineKWay(f *testing.F) {
	f.Add(uint8(10), uint8(2), int64(1), []byte{0, 1, 3, 1, 2, 1, 2, 3, 2, 3, 4, 5, 4, 5, 1, 5, 6, 2}, []byte{0, 0, 1, 1, 0, 1, 1, 0, 0, 1})
	f.Add(uint8(40), uint8(5), int64(7), []byte("the quick brown fox jumps over the lazy dog, twice over"), []byte("partition"))
	f.Add(uint8(3), uint8(9), int64(-3), []byte{0, 1, 1, 1, 2, 1}, []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, nv, kv uint8, seed int64, edges, parts []byte) {
		n := 2 + int(nv)%62
		k := 2 + int(kv)%9
		b := graph.NewBuilder(n)
		for i := 0; i+2 < len(edges); i += 3 {
			if u, v := int(edges[i])%n, int(edges[i+1])%n; u != v {
				b.AddWeightedEdge(u, v, 1+int(edges[i+2])%7)
			}
		}
		where := make([]int, n)
		for v := range where {
			if len(parts) > 0 {
				c := parts[v%len(parts)]
				where[v] = int(c) % k
				b.SetVertexWeight(v, 1+int(c>>4)%4)
			} else {
				where[v] = v % k
			}
		}
		g := b.MustBuild()
		want := kway.NewPartition(g, k, slices.Clone(where))
		var wantCtr trace.Counters
		refineKWayUnfiltered(want, KWayOptions{Seed: seed, Counters: &wantCtr})
		for _, workers := range []int{1, 3} {
			got := kway.NewPartition(g, k, slices.Clone(where))
			var gotCtr trace.Counters
			RefineKWay(got, KWayOptions{Seed: seed, Workers: workers, Counters: &gotCtr})
			verifyKWay(t, got)
			if !reflect.DeepEqual(got, want) || gotCtr != wantCtr {
				t.Fatalf("workers=%d: cut %d pwgt %v where %v counters %+v; unfiltered cut %d pwgt %v where %v counters %+v",
					workers, got.Cut, got.Pwgt, got.Where, gotCtr, want.Cut, want.Pwgt, want.Where, wantCtr)
			}
		}
	})
}
