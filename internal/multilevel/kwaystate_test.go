package multilevel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/refine"
	"mlpart/internal/workspace"
)

// checkRecount fails the test unless p's part weights and cut equal a
// from-scratch kway.NewPartition of its where-vector.
func checkRecount(t *testing.T, what string, p *kway.Partition) {
	t.Helper()
	fresh := kway.NewPartition(p.G, p.K, p.Where)
	if p.Cut != fresh.Cut || !slices.Equal(p.Pwgt, fresh.Pwgt) {
		t.Fatalf("%s: carried cut %d pwgt %v, recomputed cut %d pwgt %v", what, p.Cut, p.Pwgt, fresh.Cut, fresh.Pwgt)
	}
}

// checkedUncoarsenKWay is phaseUncoarsenKWay's level walk, run on the
// same projectKWay and guardedKWayRefine, with the carried part weights
// and cut checked against a recomputation after every projection and
// after the finest level's refinement.
func checkedUncoarsenKWay(t *testing.T, e *engine, h *coarsen.Hierarchy, k int, where []int, seed int64, ws *workspace.Workspace, stats *Stats, useBKWAY bool) []int {
	t.Helper()
	kopts := kway.Options{Ubfactor: e.opts.Ubfactor, Seed: seed, Workspace: ws, Counters: &stats.Counters}
	p := kway.NewPartition(h.Coarsest(), k, where)
	kopts.Level = len(h.Levels) - 1
	e.guardedKWayRefine(p, kopts, stats, nil, useBKWAY)
	for li := len(h.Levels) - 2; li >= 0; li-- {
		projectKWay(p, h.Levels[li], ws)
		checkRecount(t, fmt.Sprintf("projected to level %d", li), p)
		kopts.Level = li
		e.guardedKWayRefine(p, kopts, stats, nil, useBKWAY)
	}
	checkRecount(t, "refined finest level", p)
	return p.Where
}

// TestKWayCarriedStateMatchesRecount pins the contraction invariant the
// direct k-way V-cycle relies on to skip kway.NewPartition's rescan at
// every level: projection preserves part weights and cut exactly. The walk
// composes the cycle's own phases — including the partition-respecting
// extra cycle of the eco preset — and must land on PartitionKWay's
// partition bit for bit, so the levels it checks are the ones the engine
// visits.
func TestKWayCarriedStateMatchesRecount(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"FE3D", matgen.FE3DTetra(14, 14, 14, 3)},
		{"SOC", matgen.SocialNetwork(4000, 4, 5)},
	}
	const k = 8
	for _, tc := range graphs {
		for _, matching := range []coarsen.Scheme{coarsen.HEM, coarsen.GCLP} {
			for _, policy := range []refine.Policy{refine.BKWAY, refine.GR} {
				for _, preset := range []Preset{PresetFast, PresetEco} {
					name := tc.name + "/" + matching.String() + "/" + policy.String() + "/" + preset.String()
					opts := Options{Seed: 5, Preset: preset}.WithMatching(matching).WithRefinement(policy)
					want, err := PartitionKWay(tc.g, k, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := walkKWay(t, newEngine(opts), tc.g, k, policy == refine.BKWAY)
					if !slices.Equal(got, want.Where) {
						t.Errorf("%s: the checked walk diverged from PartitionKWay", name)
					}
				}
			}
		}
	}
}

// walkKWay is runKWay plus iterate, composed from the cycle phases with
// every uncoarsening walk checked by checkedUncoarsenKWay.
func walkKWay(t *testing.T, e *engine, g *graph.Graph, k int, useBKWAY bool) []int {
	t.Helper()
	ws := workspace.Get()
	defer workspace.Put(ws)
	stats := &Stats{}
	h := e.phaseCoarsen(g, k, nil, rand.New(rand.NewSource(e.opts.Seed)), ws, nil, stats)
	cw, err := e.phaseInitial(h, k, nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	fw := checkedUncoarsenKWay(t, e, h, k, cw, e.opts.Seed, ws, stats, useBKWAY)
	where := slices.Clone(fw)
	ws.PutInt(fw)
	h.Release(ws)
	bestCut := refine.ComputeCut(g, where)
	for c := 1; c < e.opts.CycleCount(); c++ {
		seed := deriveSeed(e.opts.Seed, cycleBranch+int64(c))
		h := e.phaseCoarsen(g, k, where, rand.New(rand.NewSource(seed)), ws, nil, stats)
		fw := checkedUncoarsenKWay(t, e, h, k, e.phaseSeed(h, where, ws), seed, ws, stats, true)
		if cut := refine.ComputeCut(g, fw); cut < bestCut {
			bestCut = cut
			copy(where, fw)
		}
		ws.PutInt(fw)
		h.Release(ws)
	}
	return where
}

// TestChaosKWayPassPanicRecounts covers the recover path of the carried
// state. A kway/pass panic abandons a level's refinement; the result must
// still report part weights and a cut that match its partition vector,
// and guardedKWayRefine must re-derive both from Where, since a panic in
// the middle of a commit can leave them stale.
func TestChaosKWayPassPanicRecounts(t *testing.T) {
	g := matgen.FE3DTetra(12, 12, 12, 4)
	const k = 8
	for _, plan := range []string{"kway/pass=panic@2", "kway/pass=panic@3+"} {
		res, err := PartitionKWay(g, k, Options{Seed: 3, Injector: faults.MustParse(plan)}.WithRefinement(refine.BKWAY))
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		verifyResult(t, res, g.NumVertices(), k)
		if findDegradation(res.Stats.Degradations, "kway", "projected") == nil {
			t.Fatalf("%s: no kway->projected degradation recorded: %+v", plan, res.Stats.Degradations)
		}
		pwgt := make([]int, k)
		for v, part := range res.Where {
			pwgt[part] += g.Vwgt[v]
		}
		if cut := refine.ComputeCut(g, res.Where); res.EdgeCut != cut || !slices.Equal(res.PartWeights, pwgt) {
			t.Errorf("%s: reported cut %d part weights %v, recomputed %d %v", plan, res.EdgeCut, res.PartWeights, cut, pwgt)
		}
	}

	// Stale state going in stands for a half-applied commit: the
	// recovered panic must leave the partition recounted.
	p := kway.NewPartition(g, k, randomWhere(g.NumVertices(), k))
	p.Cut, p.Pwgt[0] = -1, p.Pwgt[0]+7
	e := newEngine(Options{Injector: faults.MustParse("kway/pass=panic@1")})
	stats := &Stats{}
	e.guardedKWayRefine(p, kway.Options{Ubfactor: 1.05, Seed: 1}, stats, nil, true)
	if len(stats.Degradations) != 1 {
		t.Fatalf("degradations %+v, want one", stats.Degradations)
	}
	checkRecount(t, "after a recovered kway/pass panic", p)
}

// randomWhere is a uniform random k-way assignment with a fixed seed.
func randomWhere(n, k int) []int {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(k)))
	where := make([]int, n)
	for v := range where {
		where[v] = rng.Intn(k)
	}
	return where
}
