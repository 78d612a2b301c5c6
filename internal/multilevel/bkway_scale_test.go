package multilevel

import (
	"hash/fnv"
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
