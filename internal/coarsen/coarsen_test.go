package coarsen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func allSchemes() []Scheme { return []Scheme{RM, HEM, LEM, HCM} }

// checkMatching verifies the structural properties of a matching: symmetry,
// adjacency of matched pairs, and maximality.
func checkMatching(t *testing.T, g *graph.Graph, match []int, scheme Scheme) {
	t.Helper()
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		m := match[v]
		if m < 0 || m >= n {
			t.Fatalf("%v: match[%d] = %d out of range", scheme, v, m)
		}
		if match[m] != v {
			t.Fatalf("%v: asymmetric match %d<->%d", scheme, v, m)
		}
		if m != v && !g.HasEdge(v, m) {
			t.Fatalf("%v: matched pair (%d,%d) not adjacent", scheme, v, m)
		}
	}
	// Maximality: no edge between two unmatched vertices.
	for v := 0; v < n; v++ {
		if match[v] != v {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if match[u] == u {
				t.Fatalf("%v: unmatched adjacent pair (%d,%d) violates maximality", scheme, v, u)
			}
		}
	}
}

func TestMatchProperties(t *testing.T) {
	g := matgen.Mesh2DTri(20, 20, 0.03, 1)
	for _, s := range allSchemes() {
		match := Match(g, s, nil, rng(42))
		checkMatching(t, g, match, s)
	}
}

func TestMatchPathGraph(t *testing.T) {
	// Path 0-1-2-3: maximal matchings leave at most 2 vertices unmatched.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	for _, s := range allSchemes() {
		match := Match(g, s, nil, rng(1))
		checkMatching(t, g, match, s)
		matched := 0
		for v := 0; v < 4; v++ {
			if match[v] != v {
				matched++
			}
		}
		if matched < 2 {
			t.Fatalf("%v: only %d matched vertices on a path", s, matched)
		}
	}
}

func TestHEMPicksHeaviestEdge(t *testing.T) {
	// Star with one heavy spoke: HEM must take the heavy edge when it
	// visits the center or the heavy leaf first. Build a triangle where
	// the choice is unambiguous.
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(0, 2, 10)
	b.AddWeightedEdge(1, 2, 1)
	g := b.MustBuild()
	// Whatever the visit order, vertex 0 or 2 is visited first or second;
	// check over many seeds that the heavy edge is in the matching whenever
	// 0 or 2 is visited while both are free.
	heavy := 0
	for seed := int64(0); seed < 50; seed++ {
		match := Match(g, HEM, nil, rng(seed))
		checkMatching(t, g, match, HEM)
		if match[0] == 2 {
			heavy++
		}
	}
	if heavy < 25 {
		t.Fatalf("HEM chose the heavy edge only %d/50 times", heavy)
	}
	// And LEM must prefer the light edges.
	light := 0
	for seed := int64(0); seed < 50; seed++ {
		match := Match(g, LEM, nil, rng(seed))
		if match[0] != 2 {
			light++
		}
	}
	if light < 25 {
		t.Fatalf("LEM avoided the heavy edge only %d/50 times", light)
	}
}

func TestContractInvariants(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 2)
	for _, s := range allSchemes() {
		match := Match(g, s, nil, rng(7))
		cg, cmap, ccew := Contract(g, match, nil)
		if err := cg.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// Total vertex weight is conserved.
		if cg.TotalVertexWeight() != g.TotalVertexWeight() {
			t.Fatalf("%v: vertex weight %d -> %d", s, g.TotalVertexWeight(), cg.TotalVertexWeight())
		}
		// W(E_{i+1}) = W(E_i) - W(M_i).
		wm := 0
		for v := 0; v < g.NumVertices(); v++ {
			if match[v] > v {
				wm += g.EdgeWeight(v, match[v])
			}
		}
		if cg.TotalEdgeWeight() != g.TotalEdgeWeight()-wm {
			t.Fatalf("%v: edge weight %d -> %d, matching weight %d",
				s, g.TotalEdgeWeight(), cg.TotalEdgeWeight(), wm)
		}
		// cmap is consistent with the matching.
		for v := 0; v < g.NumVertices(); v++ {
			if cmap[v] != cmap[match[v]] {
				t.Fatalf("%v: matched pair maps to different multinodes", s)
			}
		}
		// Contracted edge weight accounts exactly for the removed matching.
		totCew := 0
		for _, c := range ccew {
			totCew += c
		}
		if totCew != wm {
			t.Fatalf("%v: total cew %d, want matching weight %d", s, totCew, wm)
		}
	}
}

func TestContractPreservesCutStructure(t *testing.T) {
	// Any partition of the coarse graph, projected to the fine graph, has
	// the same edge-cut. Check on a random graph with a random coarse
	// partition.
	g := matgen.Mesh2DTri(15, 15, 0, 3)
	match := Match(g, HEM, nil, rng(5))
	cg, cmap, _ := Contract(g, match, nil)
	r := rng(9)
	cwhere := make([]int, cg.NumVertices())
	for i := range cwhere {
		cwhere[i] = r.Intn(2)
	}
	coarseCut := 0
	for v := 0; v < cg.NumVertices(); v++ {
		adj := cg.Neighbors(v)
		wgt := cg.EdgeWeights(v)
		for i, u := range adj {
			if cwhere[u] != cwhere[v] {
				coarseCut += wgt[i]
			}
		}
	}
	coarseCut /= 2
	fineCut := 0
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			if cwhere[cmap[u]] != cwhere[cmap[v]] {
				fineCut += wgt[i]
			}
		}
	}
	fineCut /= 2
	if coarseCut != fineCut {
		t.Fatalf("cut changed under projection: coarse %d, fine %d", coarseCut, fineCut)
	}
}

func TestCoarsenHierarchy(t *testing.T) {
	g := matgen.Stiffness3D(10, 10, 10)
	for _, s := range allSchemes() {
		h := Coarsen(g, Options{Scheme: s, CoarsenTo: 100}, rng(11))
		if len(h.Levels) < 2 {
			t.Fatalf("%v: no coarsening happened", s)
		}
		if h.Levels[0].Graph != g {
			t.Fatalf("%v: level 0 is not the input graph", s)
		}
		for i := 0; i+1 < len(h.Levels); i++ {
			fine, coarse := h.Levels[i].Graph, h.Levels[i+1].Graph
			if coarse.NumVertices() >= fine.NumVertices() {
				t.Fatalf("%v: level %d did not shrink (%d -> %d)",
					s, i, fine.NumVertices(), coarse.NumVertices())
			}
			if coarse.TotalVertexWeight() != fine.TotalVertexWeight() {
				t.Fatalf("%v: vertex weight changed at level %d", s, i)
			}
			if h.Levels[i].Cmap == nil {
				t.Fatalf("%v: missing cmap at level %d", s, i)
			}
		}
		if last := h.Levels[len(h.Levels)-1]; last.Cmap != nil {
			t.Fatalf("%v: coarsest level has a cmap", s)
		}
		cn := h.Coarsest().NumVertices()
		// Either reached the target or stalled legitimately.
		if cn > 100 && cn <= g.NumVertices()*9/10 {
			t.Fatalf("%v: stopped early at %d vertices without stalling", s, cn)
		}
	}
}

func TestCoarsenEdgelessGraph(t *testing.T) {
	b := graph.NewBuilder(5)
	g := b.MustBuild()
	h := Coarsen(g, Options{Scheme: RM, CoarsenTo: 2}, rng(1))
	if len(h.Levels) != 1 {
		t.Fatalf("edgeless graph coarsened: %d levels", len(h.Levels))
	}
}

func TestCoarsenMaxLevels(t *testing.T) {
	g := matgen.Grid2D(50, 50)
	h := Coarsen(g, Options{Scheme: HEM, CoarsenTo: 1, MaxLevels: 3}, rng(1))
	if len(h.Levels) > 4 {
		t.Fatalf("MaxLevels ignored: %d levels", len(h.Levels))
	}
}

func TestSchemeStringRoundTrip(t *testing.T) {
	for _, s := range allSchemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip failed for %v: %v, %v", s, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("ParseScheme accepted bogus input")
	}
}

func TestMatchDeterministicGivenSeed(t *testing.T) {
	g := matgen.Mesh2DTri(12, 12, 0.05, 4)
	a := Match(g, HEM, nil, rng(99))
	b := Match(g, HEM, nil, rng(99))
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("matching not deterministic under fixed seed")
		}
	}
}

// Property: for random graphs and all schemes, coarsening preserves total
// vertex weight at every level and the sum of edge weight plus accumulated
// contracted weight.
func TestCoarsenPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := matgen.FE3DTetra(5, 5, 5, seed)
		for _, s := range allSchemes() {
			h := Coarsen(g, Options{Scheme: s, CoarsenTo: 10}, rng(seed+1))
			for _, lv := range h.Levels {
				if lv.Graph.TotalVertexWeight() != g.TotalVertexWeight() {
					return false
				}
				if lv.Graph.Validate() != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestHCMUsesDensity(t *testing.T) {
	// Two triangles joined by one edge. With cew tracking, HCM should
	// prefer collapsing triangle edges (density toward cliques) over the
	// bridge once multinodes form. At level 0 with uniform weights this is
	// exercised via the hierarchy.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	h := Coarsen(g, Options{Scheme: HCM, CoarsenTo: 2}, rng(5))
	if h.Coarsest().NumVertices() >= g.NumVertices() {
		t.Fatal("HCM failed to coarsen")
	}
}

func BenchmarkMatch(b *testing.B) {
	b.ReportAllocs()
	g := matgen.Stiffness3D(20, 20, 20)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Match(g, HEM, nil, r)
	}
}

func BenchmarkContract(b *testing.B) {
	b.ReportAllocs()
	g := matgen.Stiffness3D(16, 16, 16)
	match := Match(g, HEM, nil, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Contract(g, match, nil)
	}
}
