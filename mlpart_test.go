package mlpart

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// testMesh returns a small 2D mesh through the public API.
func testMesh(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateWorkload("4ELT", 0.03)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionDefaults(t *testing.T) {
	g := testMesh(t)
	res, err := Partition(g, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut <= 0 {
		t.Fatalf("EdgeCut = %d", res.EdgeCut)
	}
	if got := EdgeCut(g, res.Where); got != res.EdgeCut {
		t.Fatalf("EdgeCut reports %d, result says %d", got, res.EdgeCut)
	}
	if len(res.PartWeights) != 8 {
		t.Fatalf("PartWeights has %d entries", len(res.PartWeights))
	}
	if b := res.Balance(); b > 1.35 {
		t.Errorf("balance %v", b)
	}
}

func TestBisect(t *testing.T) {
	g := testMesh(t)
	res, err := Bisect(g, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PartWeights) != 2 {
		t.Fatal("Bisect did not return 2 parts")
	}
	for _, p := range res.Where {
		if p != 0 && p != 1 {
			t.Fatal("Bisect assigned part outside {0,1}")
		}
	}
}

func TestOptionsAllAlgorithms(t *testing.T) {
	g := testMesh(t)
	for _, m := range []string{MatchRM, MatchHEM, MatchLEM, MatchHCM} {
		for _, ip := range []string{InitGGGP, InitGGP, InitSBP} {
			for _, r := range []string{RefineNone, RefineGR, RefineKLR, RefineBGR, RefineBKLR, RefineBKLGR} {
				res, err := Partition(g, 4, &Options{Matching: m, InitPart: ip, Refinement: r, Seed: 1})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", m, ip, r, err)
				}
				if res.EdgeCut <= 0 {
					t.Fatalf("%s/%s/%s: cut %d", m, ip, r, res.EdgeCut)
				}
			}
		}
	}
}

func TestOptionsRejectUnknownNames(t *testing.T) {
	g := testMesh(t)
	cases := []*Options{
		{Matching: "XXX"},
		{InitPart: "XXX"},
		{Refinement: "XXX"},
	}
	for i, o := range cases {
		if _, err := Partition(g, 2, o); err == nil {
			t.Errorf("case %d: bad option accepted", i)
		}
	}
}

func TestNestedDissectionAndAnalysis(t *testing.T) {
	g := testMesh(t)
	perm, iperm, err := NestedDissection(g, &Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	if len(perm) != n || len(iperm) != n {
		t.Fatal("wrong permutation lengths")
	}
	for i, v := range perm {
		if iperm[v] != i {
			t.Fatal("iperm is not the inverse of perm")
		}
	}
	nd, err := AnalyzeOrdering(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	mdPerm, _ := MinimumDegree(g)
	md, err := AnalyzeOrdering(g, mdPerm)
	if err != nil {
		t.Fatal(err)
	}
	if nd.OperationCount <= 0 || md.OperationCount <= 0 {
		t.Fatal("missing operation counts")
	}
	if nd.FactorNonzeros < int64(n) || md.FactorNonzeros < int64(n) {
		t.Fatal("factor smaller than the diagonal")
	}
	if nd.TreeHeight >= md.TreeHeight {
		t.Errorf("MLND height %d not below MMD height %d on a mesh", nd.TreeHeight, md.TreeHeight)
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := testMesh(t)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
}

func TestNewGraphFromCSR(t *testing.T) {
	g, err := NewGraphFromCSR([]int{0, 1, 2}, []int{1, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatal("CSR wrap lost the edge")
	}
	if _, err := NewGraphFromCSR([]int{0, 1, 1}, []int{1}, nil, nil); err == nil {
		t.Fatal("asymmetric CSR accepted")
	}
}

func TestGraphBuilder(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddWeightedEdge(1, 2, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalEdgeWeight() != 5 {
		t.Fatalf("edge weight %d, want 5", g.TotalEdgeWeight())
	}
}

func TestWorkloadNames(t *testing.T) {
	names := WorkloadNames()
	if len(names) < 20 {
		t.Fatalf("only %d workloads", len(names))
	}
	for _, n := range names {
		if strings.TrimSpace(n) == "" {
			t.Fatal("empty workload name")
		}
	}
	if _, err := GenerateWorkload("NOPE", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	g := testMesh(t)
	a, _ := Partition(g, 8, &Options{Seed: 5})
	b, _ := Partition(g, 8, &Options{Seed: 5})
	for i := range a.Where {
		if a.Where[i] != b.Where[i] {
			t.Fatal("same seed gave different partitions")
		}
	}
}

func TestParallelOptionIdenticalResult(t *testing.T) {
	g := testMesh(t)
	seq, _ := Partition(g, 16, &Options{Seed: 6})
	par, _ := Partition(g, 16, &Options{Seed: 6, Parallel: true})
	if seq.EdgeCut != par.EdgeCut {
		t.Fatal("parallel changed the result")
	}
}

func TestKWayRefineOption(t *testing.T) {
	g := testMesh(t)
	base, err := Partition(g, 16, &Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Partition(g, 16, &Options{Seed: 9, KWayRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if refined.EdgeCut > base.EdgeCut {
		t.Fatalf("KWayRefine worsened cut: %d -> %d", base.EdgeCut, refined.EdgeCut)
	}
	if b := refined.Balance(); b > 1.35 {
		t.Errorf("balance %v after k-way refinement", b)
	}
}

func TestEvaluatePartition(t *testing.T) {
	g := testMesh(t)
	res, err := Partition(g, 8, &Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	report, err := EvaluatePartition(g, res.Where, 8)
	if err != nil {
		t.Fatal(err)
	}
	if report.EdgeCut != res.EdgeCut {
		t.Fatalf("report cut %d, partition cut %d", report.EdgeCut, res.EdgeCut)
	}
	if report.CommVolume <= 0 || report.BoundaryVertices <= 0 {
		t.Fatalf("degenerate report: %+v", report)
	}
	if _, err := EvaluatePartition(g, res.Where[:5], 8); err == nil {
		t.Fatal("short where accepted")
	}
}

func TestNCutsOptionPublic(t *testing.T) {
	g := testMesh(t)
	one, err := Partition(g, 8, &Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	best, err := Partition(g, 8, &Options{Seed: 11, NCuts: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Statistically best-of-4 should not be worse; hard-require no more
	// than 10% regression to keep the test robust.
	if float64(best.EdgeCut) > 1.1*float64(one.EdgeCut) {
		t.Fatalf("NCuts=4 cut %d much worse than single %d", best.EdgeCut, one.EdgeCut)
	}
}

func TestPartitionDirectKWay(t *testing.T) {
	g := testMesh(t)
	res, err := PartitionDirectKWay(g, 16, &Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got := EdgeCut(g, res.Where); got != res.EdgeCut {
		t.Fatalf("cut mismatch: %d vs %d", res.EdgeCut, got)
	}
	if len(res.PartWeights) != 16 {
		t.Fatal("wrong part count")
	}
	rec, err := Partition(g, 16, &Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.EdgeCut) > 1.4*float64(rec.EdgeCut) {
		t.Errorf("direct k-way cut %d far above recursive %d", res.EdgeCut, rec.EdgeCut)
	}
}

func TestPartitionWeightedPublic(t *testing.T) {
	g := testMesh(t)
	tot := 0
	for _, w := range g.Vwgt {
		tot += w
	}
	res, err := PartitionWeighted(g, []float64{3, 1}, &Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(res.PartWeights[0]) / float64(tot)
	if got < 0.70 || got > 0.80 {
		t.Fatalf("part 0 fraction %v, want ~0.75", got)
	}
	if _, err := PartitionWeighted(g, []float64{0}, nil); err == nil {
		t.Fatal("zero fraction accepted")
	}
}

func TestNestedDissectionCompressed(t *testing.T) {
	// Duplicate every vertex of a small mesh (2 DOF per node) and check
	// the compressed path returns a valid ordering of comparable quality.
	base := testMesh(t)
	n := base.NumVertices()
	b := NewGraphBuilder(2 * n)
	for v := 0; v < n; v++ {
		b.AddEdge(2*v, 2*v+1)
		for _, u := range base.Neighbors(v) {
			if u > v {
				for _, a := range []int{0, 1} {
					for _, c := range []int{0, 1} {
						b.AddEdge(2*v+a, 2*u+c)
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	perm, _, err := NestedDissection(g, &Options{Seed: 14, CompressGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := AnalyzeOrdering(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	plainPerm, _, _ := NestedDissection(g, &Options{Seed: 14})
	plain, _ := AnalyzeOrdering(g, plainPerm)
	if comp.OperationCount > 1.5*plain.OperationCount {
		t.Errorf("compressed flops %.3g much worse than plain %.3g",
			comp.OperationCount, plain.OperationCount)
	}
}

// TestCoarsenWorkersPublic: CoarsenWorkers never changes the partition,
// under the default HEM and under GCLP, whose proposals it parallelizes.
// The mesh is large enough (~4.7k vertices) for four propose chunks.
func TestCoarsenWorkersPublic(t *testing.T) {
	g, err := GenerateWorkload("4ELT", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{MatchHEM, MatchGCLP} {
		ref, err := Partition(g, 8, &Options{Seed: 15, Coarsening: &CoarseningOptions{Scheme: scheme}})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := Partition(g, 8, &Options{Seed: 15, Coarsening: &CoarseningOptions{Scheme: scheme}, CoarsenWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got.EdgeCut != ref.EdgeCut || !slices.Equal(got.Where, ref.Where) {
				t.Fatalf("%s: CoarsenWorkers=%d changed the partition: cut %d vs %d", scheme, workers, got.EdgeCut, ref.EdgeCut)
			}
		}
	}
}

func TestMatrixMarketPublicRoundTrip(t *testing.T) {
	g := testMesh(t)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("MatrixMarket round trip changed the graph")
	}
	if _, err := ReadMatrixMarket(strings.NewReader("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestPartitionDirectKWayErrors(t *testing.T) {
	g := testMesh(t)
	if _, err := PartitionDirectKWay(g, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PartitionDirectKWay(g, 2, &Options{Matching: "XXX"}); err == nil {
		t.Fatal("bad options accepted")
	}
}

func TestRepartitionPublic(t *testing.T) {
	g := testMesh(t)
	const k = 8
	initial, err := Partition(g, k, &Options{Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Adapt weights.
	for v := 0; v < g.NumVertices()/4; v++ {
		g.Vwgt[v] = 4
	}
	res, err := Repartition(g, k, initial.Where, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != EdgeCut(g, res.Where) {
		t.Fatal("cut inconsistent")
	}
	maxw, tot := 0, 0
	for _, w := range res.PartWeights {
		tot += w
		if w > maxw {
			maxw = w
		}
	}
	if bal := float64(k*maxw) / float64(tot); bal > 1.15 {
		t.Errorf("balance %v after Repartition", bal)
	}
	// Errors.
	if _, err := Repartition(g, k, initial.Where[:3], nil); err == nil {
		t.Error("short oldWhere accepted")
	}
	bad := append([]int(nil), initial.Where...)
	bad[0] = 99
	if _, err := Repartition(g, k, bad, nil); err == nil {
		t.Error("out-of-range oldWhere accepted")
	}
}

// TestRepartitionOptionValidation covers every rejection Repartition
// promises: fractional Ubfactor, negative MigrationWeight, malformed
// incumbent vectors and a nonsensical k — each with a descriptive error
// instead of silent misbehavior.
func TestRepartitionOptionValidation(t *testing.T) {
	g := testMesh(t)
	n := g.NumVertices()
	where := make([]int, n)
	for v := range where {
		where[v] = v % 2
	}

	cases := []struct {
		name    string
		k       int
		where   []int
		opts    *RepartitionOptions
		errWant string
	}{
		{"ubfactor in (0,1)", 2, where, &RepartitionOptions{Ubfactor: 0.5}, "Ubfactor"},
		{"ubfactor just below 1", 2, where, &RepartitionOptions{Ubfactor: 0.999}, "Ubfactor"},
		{"negative migration weight", 2, where, &RepartitionOptions{MigrationWeight: -1}, "MigrationWeight"},
		{"short where", 2, where[:n-1], nil, "len(oldWhere)"},
		{"long where", 2, append(append([]int(nil), where...), 0), nil, "len(oldWhere)"},
		{"label >= k", 2, func() []int {
			w := append([]int(nil), where...)
			w[7] = 2
			return w
		}(), nil, "oldWhere[7]"},
		{"negative label", 2, func() []int {
			w := append([]int(nil), where...)
			w[3] = -1
			return w
		}(), nil, "oldWhere[3]"},
		{"k zero", 0, where, nil, "k = 0"},
	}
	for _, tc := range cases {
		_, err := Repartition(g, tc.k, tc.where, tc.opts)
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.errWant)
		}
	}

	// The boundary values stay legal: Ubfactor 0 (default), exactly 1
	// (perfect balance) and MigrationWeight 0 (default).
	for _, opts := range []*RepartitionOptions{
		{Ubfactor: 0},
		{Ubfactor: 1.0},
		{MigrationWeight: 0},
	} {
		if _, err := Repartition(g, 2, where, opts); err != nil {
			t.Errorf("legal options %+v rejected: %v", opts, err)
		}
	}
}

func TestWriteDOTPublic(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g, _ := b.Build()
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, []int{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph G {") {
		t.Fatal("not DOT output")
	}
}

// TestPresetPublicAPI exercises the quality presets through the public
// surface: eco/strong run extra cycles (reported in Partitioning.Cycles),
// never produce a worse cut than fast, an explicit Cycles count overrides
// the preset, and an unknown preset name is rejected up front.
func TestPresetPublicAPI(t *testing.T) {
	g := testMesh(t)
	fast, err := Partition(g, 8, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles != 1 {
		t.Errorf("default preset Cycles = %d, want 1", fast.Cycles)
	}
	for preset, wantCycles := range map[string]int{PresetEco: 2, PresetStrong: 4} {
		res, err := Partition(g, 8, &Options{Seed: 3, Preset: preset})
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if res.Cycles != wantCycles {
			t.Errorf("%s: Cycles = %d, want %d", preset, res.Cycles, wantCycles)
		}
		if res.EdgeCut > fast.EdgeCut {
			t.Errorf("%s cut %d worse than fast %d", preset, res.EdgeCut, fast.EdgeCut)
		}
	}
	res, err := Partition(g, 8, &Options{Seed: 3, Preset: PresetStrong, Cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 2 {
		t.Errorf("explicit Cycles=2 over strong: Cycles = %d, want 2", res.Cycles)
	}
	if (&Options{Preset: "turbo"}).EffectiveCycles() != 1 {
		t.Error("EffectiveCycles of an invalid preset should fall back to 1")
	}
	if _, err := Partition(g, 8, &Options{Preset: "turbo"}); err == nil {
		t.Error("unknown preset name accepted")
	}
}
