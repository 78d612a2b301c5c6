package multilevel

import (
	"hash/fnv"
	"slices"
	"testing"

	"mlpart/internal/coarsen"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/refine"
)

// whereHash is an FNV-1a digest of a partition vector, so a test can pin a
// whole 125k-entry assignment in one constant.
func whereHash(where []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range where {
		u := uint64(p)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenBKWAYBenchmarkScale pins direct k-way BKWAY on the two graphs
// of the service benchmark (FE3D-125k with HEM, SOC-131k with GCLP; k=32,
// seed 1) bit for bit: cut, heaviest part, hierarchy depth and a digest of
// the partition vector, for serial and parallel propose. Small golden
// graphs keep the boundary under one propose chunk; these keep it in the
// tens of thousands, where the propose visit order and its chunking across
// workers could plausibly leak into the result.
func TestGoldenBKWAYBenchmarkScale(t *testing.T) {
	if testing.Short() {
		t.Skip("125k-vertex partitions; skipped in -short mode")
	}
	cases := []struct {
		name      string
		graph     func() *graph.Graph
		matching  coarsen.Scheme
		cut       int
		maxPart   int
		levels    int
		whereHash uint64
	}{
		{"FE3D-125k/HEM", func() *graph.Graph { return matgen.FE3DTetra(50, 50, 50, 3) },
			coarsen.HEM, 40264, 4000, 10, 0x8ee893bf5dbc6e19},
		{"SOC-131k/GCLP", func() *graph.Graph { return matgen.SocialNetwork(131072, 4, 23) },
			coarsen.GCLP, 372797, 4758, 5, 0xfb1d3335c8bfc306},
	}
	for _, tc := range cases {
		g := tc.graph()
		for _, workers := range []int{0, 2} {
			res, err := PartitionKWay(g, 32, Options{Seed: 1, RefineWorkers: workers}.
				WithMatching(tc.matching).WithRefinement(refine.BKWAY))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			maxPart := 0
			for _, w := range res.PartWeights {
				maxPart = max(maxPart, w)
			}
			if h := whereHash(res.Where); res.EdgeCut != tc.cut || maxPart != tc.maxPart ||
				res.Stats.Levels != tc.levels || h != tc.whereHash {
				t.Errorf("%s workers=%d: cut=%d maxPart=%d levels=%d where=%#x, want %d/%d/%d/%#x",
					tc.name, workers, res.EdgeCut, maxPart, res.Stats.Levels, h,
					tc.cut, tc.maxPart, tc.levels, tc.whereHash)
			}
		}
	}
}

// TestCoarsenWorkersBenchmarkScale pins the north-star contract "a fixed
// seed gives a fixed result for every worker count" for CoarsenWorkers on
// the benchmark's FE3D-125k (direct k-way BKWAY, k=32, seed 1): 2 and 4
// coarsening workers must reproduce the default run's partition, cut,
// hierarchy depth and degradation record exactly, under HEM and GCLP.
func TestCoarsenWorkersBenchmarkScale(t *testing.T) {
	if testing.Short() {
		t.Skip("125k-vertex partitions; skipped in -short mode")
	}
	g := matgen.FE3DTetra(50, 50, 50, 3)
	for _, s := range []coarsen.Scheme{coarsen.HEM, coarsen.GCLP} {
		run := func(workers int) *Result {
			res, err := PartitionKWay(g, 32, Options{Seed: 1, CoarsenWorkers: workers}.
				WithMatching(s).WithRefinement(refine.BKWAY))
			if err != nil {
				t.Fatalf("%v CoarsenWorkers=%d: %v", s, workers, err)
			}
			return res
		}
		ref := run(0)
		for _, workers := range []int{2, 4} {
			res := run(workers)
			if res.EdgeCut != ref.EdgeCut || res.Stats.Levels != ref.Stats.Levels ||
				!slices.Equal(res.Where, ref.Where) ||
				!slices.Equal(res.Stats.Degradations, ref.Stats.Degradations) {
				t.Errorf("%v CoarsenWorkers=%d: cut=%d levels=%d degradations=%d, want %d/%d/%d (where equal: %v)",
					s, workers, res.EdgeCut, res.Stats.Levels, len(res.Stats.Degradations),
					ref.EdgeCut, ref.Stats.Levels, len(ref.Stats.Degradations),
					slices.Equal(res.Where, ref.Where))
			}
		}
	}
}
