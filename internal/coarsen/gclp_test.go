package coarsen

import (
	"testing"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// starGraph builds a hub-and-spokes graph: the pathological case for maximal
// matchings (one pair per level) and the motivating case for GCLP.
func starGraph(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, i)
	}
	return b.MustBuild()
}

func checkClustering(t *testing.T, g *graph.Graph, cmap []int, cn, maxW int) {
	t.Helper()
	n := g.NumVertices()
	if len(cmap) < n {
		t.Fatalf("cmap length %d < n %d", len(cmap), n)
	}
	seen := make([]bool, cn)
	cwgt := make([]int, cn)
	for v := 0; v < n; v++ {
		c := cmap[v]
		if c < 0 || c >= cn {
			t.Fatalf("cmap[%d] = %d out of range [0,%d)", v, c, cn)
		}
		seen[c] = true
		cwgt[c] += g.Vwgt[v]
	}
	for c := 0; c < cn; c++ {
		if !seen[c] {
			t.Fatalf("cluster %d empty: cmap not dense", c)
		}
		// Singletons may exceed the cap (a single heavy vertex has nowhere
		// else to go); only multi-member clusters must respect it.
		if cwgt[c] > maxW {
			members := 0
			for v := 0; v < n; v++ {
				if cmap[v] == c {
					members++
				}
			}
			if members > 1 {
				t.Fatalf("cluster %d weight %d exceeds cap %d with %d members", c, cwgt[c], maxW, members)
			}
		}
	}
}

func TestClusterLPBasics(t *testing.T) {
	g := matgen.Mesh2DTri(20, 20, 0.03, 1)
	maxW := g.TotalVertexWeight() / 50
	cmap, cn := clusterLPWS(g, nil, lpConfig{maxWeight: maxW, rounds: defaultLPRounds, workers: 1}, rng(42), nil)
	if cn >= g.NumVertices() {
		t.Fatalf("no clustering happened: %d clusters of %d vertices", cn, g.NumVertices())
	}
	checkClustering(t, g, cmap, cn, maxW)
}

func TestClusterLPRespectsGroups(t *testing.T) {
	g := matgen.Mesh2DTri(16, 16, 0, 2)
	n := g.NumVertices()
	respect := make([]int, n)
	for v := range respect {
		respect[v] = v % 3
	}
	cmap, cn := clusterLPWS(g, respect, lpConfig{maxWeight: 64, rounds: defaultLPRounds, workers: 1}, rng(3), nil)
	checkClustering(t, g, cmap, cn, 64)
	group := make([]int, cn)
	for i := range group {
		group[i] = -1
	}
	for v := 0; v < n; v++ {
		c := cmap[v]
		if group[c] < 0 {
			group[c] = respect[v]
		} else if group[c] != respect[v] {
			t.Fatalf("cluster %d mixes groups %d and %d", c, group[c], respect[v])
		}
	}
}

func TestContractClustersInvariants(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 2)
	maxW := g.TotalVertexWeight() / 40
	cmap, cn := clusterLPWS(g, nil, lpConfig{maxWeight: maxW, rounds: defaultLPRounds, workers: 1}, rng(7), nil)
	cg, ccew := ContractClusters(g, cmap, cn, nil)
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.NumVertices() != cn {
		t.Fatalf("coarse graph has %d vertices, want %d", cg.NumVertices(), cn)
	}
	if cg.TotalVertexWeight() != g.TotalVertexWeight() {
		t.Fatalf("vertex weight %d -> %d", g.TotalVertexWeight(), cg.TotalVertexWeight())
	}
	// W(E_{i+1}) = W(E_i) - (weight of intra-cluster edges), and the coarse
	// cew array accounts exactly for the removed weight.
	internal := 0
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(v)
		wgt := g.EdgeWeights(v)
		for i, u := range adj {
			if cmap[u] == cmap[v] {
				internal += wgt[i]
			}
		}
	}
	internal /= 2
	if cg.TotalEdgeWeight() != g.TotalEdgeWeight()-internal {
		t.Fatalf("edge weight %d -> %d, internal %d", g.TotalEdgeWeight(), cg.TotalEdgeWeight(), internal)
	}
	totCew := 0
	for _, c := range ccew {
		totCew += c
	}
	if totCew != internal {
		t.Fatalf("total cew %d, want internal weight %d", totCew, internal)
	}
}

func TestContractClustersPreservesCut(t *testing.T) {
	g := matgen.Mesh2DTri(15, 15, 0, 3)
	maxW := g.TotalVertexWeight() / 30
	cmap, cn := clusterLPWS(g, nil, lpConfig{maxWeight: maxW, rounds: defaultLPRounds, workers: 1}, rng(5), nil)
	cg, _ := ContractClusters(g, cmap, cn, nil)
	r := rng(9)
	cwhere := make([]int, cn)
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

func TestGCLPCoarsenHierarchy(t *testing.T) {
	g := matgen.SocialNetwork(4096, 4, 23)
	h := Coarsen(g, Options{Scheme: GCLP, CoarsenTo: 100}, rng(11))
	if len(h.Levels) < 2 {
		t.Fatal("GCLP: no coarsening happened")
	}
	for i := 0; i+1 < len(h.Levels); i++ {
		fine, coarse := h.Levels[i].Graph, h.Levels[i+1].Graph
		if coarse.NumVertices() >= fine.NumVertices() {
			t.Fatalf("level %d did not shrink (%d -> %d)", i, fine.NumVertices(), coarse.NumVertices())
		}
		if coarse.TotalVertexWeight() != fine.TotalVertexWeight() {
			t.Fatalf("vertex weight changed at level %d", i)
		}
		if err := coarse.Validate(); err != nil {
			t.Fatalf("level %d: %v", i+1, err)
		}
	}
	// The derived cluster cap guarantees the coarsest graph keeps roughly
	// CoarsenTo vertices: total/CoarsenTo per cluster means at least
	// CoarsenTo clusters (up to rounding).
	if cn := h.Coarsest().NumVertices(); cn < 50 {
		t.Fatalf("over-coarsened to %d vertices despite the weight cap", cn)
	}
}

// TestGCLPStarVsHEM pins the motivating behavior: on a star, one matching
// level removes a single vertex (hub pairs with one leaf) and coarsening
// stalls immediately, while one GCLP level absorbs leaves up to the weight
// cap. A star only ever supports one cluster (leaves are adjacent to nothing
// but the hub), so the cap is raised explicitly to let that cluster grow.
func TestGCLPStarVsHEM(t *testing.T) {
	g := starGraph(1000)
	hem := Coarsen(g, Options{Scheme: HEM, CoarsenTo: 10}, rng(1))
	if len(hem.Levels) > 2 {
		t.Fatalf("HEM unexpectedly coarsened a star through %d levels", len(hem.Levels))
	}
	gclp := Coarsen(g, Options{Scheme: GCLP, CoarsenTo: 10, MaxClusterWeight: 301}, rng(1))
	if len(gclp.Levels) < 2 {
		t.Fatal("GCLP stalled on the star despite the raised cap")
	}
	second := gclp.Levels[1].Graph.NumVertices()
	if second > g.NumVertices()-250 {
		t.Fatalf("GCLP first level only reached %d vertices from %d", second, g.NumVertices()+1)
	}
}

// TestGCLPParallelBitIdentical pins GCLP's determinism contract: the whole
// hierarchy — including any HEM-fallback levels — is bit-identical for
// every worker count, because the propose phase reads only the round
// snapshot and the commit is serial.
func TestGCLPParallelBitIdentical(t *testing.T) {
	g := matgen.SocialNetwork(8192, 4, 23)
	ref := Coarsen(g, Options{Scheme: GCLP, CoarsenTo: 80, Workers: 1}, rng(9))
	for _, workers := range []int{2, 4, 8} {
		got := Coarsen(g, Options{Scheme: GCLP, CoarsenTo: 80, Workers: workers}, rng(9))
		sameHierarchy(t, "GCLP", ref, got)
	}
}

// TestGCLPSequentialParallelAgree pins the other half of the contract:
// while GCLP is active (no fallback has fired), a Coarsen call that leaves
// Workers unset is bit-identical to one whose propose phase is chunked
// across workers — both run the same clusterLPWS.
func TestGCLPSequentialParallelAgree(t *testing.T) {
	g := matgen.SocialNetwork(8192, 4, 23)
	var degs []trace.Degradation
	opts := Options{Scheme: GCLP, CoarsenTo: 80, MaxLevels: 2, Degradations: &degs}
	ref := Coarsen(g, opts, rng(9))
	if len(degs) != 0 {
		t.Fatalf("fallback fired within %d levels: %+v", opts.MaxLevels, degs)
	}
	for _, workers := range []int{1, 4} {
		par := opts
		par.Workers = workers
		got := Coarsen(g, par, rng(9))
		sameHierarchy(t, "GCLP seq/par", ref, got)
	}
}

// TestGCLPWorkspaceParity checks pooled and allocating runs agree, and that
// the hierarchy releases cleanly.
func TestGCLPWorkspaceParity(t *testing.T) {
	g := matgen.SocialNetwork(2048, 4, 5)
	ref := Coarsen(g, Options{Scheme: GCLP, CoarsenTo: 60}, rng(4))
	ws := workspace.Get()
	defer workspace.Put(ws)
	got := Coarsen(g, Options{Scheme: GCLP, CoarsenTo: 60, Workspace: ws}, rng(4))
	sameHierarchy(t, "GCLP+ws", ref, got)
	got.Release(ws)
}

// TestGCLPFallbackToHEM drives the stall ladder with an injected fault at
// the coarsen/match site: the GCLP level must be retried as HEM and the
// degradation recorded.
func TestGCLPFallbackToHEM(t *testing.T) {
	g := matgen.Mesh2DTri(20, 20, 0, 6)
	var degs []trace.Degradation
	h := Coarsen(g, Options{
		Scheme:       GCLP,
		CoarsenTo:    50,
		Injector:     faults.MustParse("coarsen/match=error@1"),
		Degradations: &degs,
	}, rng(2))
	if len(h.Levels) < 2 {
		t.Fatal("hierarchy abandoned instead of degrading to HEM")
	}
	if len(degs) == 0 {
		t.Fatal("no degradation recorded")
	}
	d := degs[0]
	if d.Phase != "coarsen" || d.From != "GCLP" || d.To != "HEM" {
		t.Fatalf("unexpected degradation record %+v", d)
	}
}

// TestGCLPRespectHierarchy checks partition-respecting GCLP coarsening end
// to end: the projected grouping must stay pure at every level.
func TestGCLPRespectHierarchy(t *testing.T) {
	g := matgen.Mesh2DTri(18, 18, 0, 8)
	n := g.NumVertices()
	respect := make([]int, n)
	for v := range respect {
		respect[v] = v % 2
	}
	h := Coarsen(g, Options{Scheme: GCLP, CoarsenTo: 40, Respect: respect}, rng(13))
	group := respect
	for i := 0; i+1 < len(h.Levels); i++ {
		cmap := h.Levels[i].Cmap
		coarseN := h.Levels[i+1].Graph.NumVertices()
		next := make([]int, coarseN)
		for j := range next {
			next[j] = -1
		}
		for v, c := range cmap {
			if next[c] < 0 {
				next[c] = group[v]
			} else if next[c] != group[v] {
				t.Fatalf("level %d cluster %d mixes groups", i, c)
			}
		}
		group = next
	}
}

// TestGCLPCoarseningRatioSOC is the regression test for the gap that
// motivated GCLP: on a power-law graph, pairwise matchings shrink each
// level by well under their theoretical 2x (hubs leave most neighbors
// unmatched), while cluster aggregation shrinks by whole multiples.
// Measured on this generator/seed: HEM ~1.5x per level over 13 levels,
// GCLP ~3.9x geometric mean over 4 (15.3x on the first level).
func TestGCLPCoarseningRatioSOC(t *testing.T) {
	g := matgen.SocialNetwork(16384, 4, 23)
	// The mean per-level ratio is compared without roots: a hierarchy
	// averages at least r per level iff its total shrink >= r^levels.
	shrink := func(s Scheme) (float64, int) {
		h := Coarsen(g, Options{Scheme: s, CoarsenTo: 100}, rng(3))
		levels := len(h.Levels) - 1
		if levels < 1 {
			t.Fatalf("%v did not coarsen at all", s)
		}
		return float64(g.NumVertices()) / float64(h.Coarsest().NumVertices()), levels
	}
	hemTotal, hemLevels := shrink(HEM)
	gclpTotal, gclpLevels := shrink(GCLP)
	pow := func(b float64, e int) float64 {
		r := 1.0
		for i := 0; i < e; i++ {
			r *= b
		}
		return r
	}
	if gclpTotal < pow(1.7, gclpLevels) {
		t.Fatalf("GCLP mean ratio below 1.7x/level: %.0fx over %d levels", gclpTotal, gclpLevels)
	}
	if hemTotal >= pow(1.7, hemLevels) {
		t.Fatalf("HEM mean ratio unexpectedly reached 1.7x/level: %.0fx over %d levels — matchings no longer stall on SOC, revisit GCLP's motivation", hemTotal, hemLevels)
	}
	if gclpLevels*2 > hemLevels {
		t.Fatalf("GCLP hierarchy not substantially shallower: %d vs %d levels", gclpLevels, hemLevels)
	}
}

func TestSchemeFamilyAndRegistry(t *testing.T) {
	infos := AllSchemes()
	if len(infos) != 5 {
		t.Fatalf("registry has %d schemes, want 5", len(infos))
	}
	for _, info := range infos {
		if info.Name != info.Scheme.String() {
			t.Fatalf("registry name %q != String() %q", info.Name, info.Scheme.String())
		}
		if info.Family != info.Scheme.Family() {
			t.Fatalf("%s: registry family %q != Family() %q", info.Name, info.Family, info.Scheme.Family())
		}
		if info.Description == "" {
			t.Fatalf("%s: empty description", info.Name)
		}
		got, err := ParseScheme(info.Name)
		if err != nil || got != info.Scheme {
			t.Fatalf("registry name %q does not round-trip", info.Name)
		}
	}
	if GCLP.Family() != FamilyAggregation || HEM.Family() != FamilyMatching {
		t.Fatal("families misassigned")
	}
}

func TestParseSchemeCaseInsensitive(t *testing.T) {
	for _, in := range []string{"gclp", "Gclp", " GCLP ", "hem", "Hem"} {
		if _, err := ParseScheme(in); err != nil {
			t.Fatalf("ParseScheme(%q) rejected: %v", in, err)
		}
	}
	if _, err := ParseScheme("GCL"); err == nil {
		t.Fatal("ParseScheme accepted a prefix")
	}
}
