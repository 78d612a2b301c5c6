package coarsen

import (
	"slices"
	"testing"

	"mlpart/internal/faults"
	"mlpart/internal/matgen"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

func sameHierarchy(t *testing.T, label string, ref, got *Hierarchy) {
	t.Helper()
	if len(got.Levels) != len(ref.Levels) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.Levels), len(ref.Levels))
	}
	for i := range ref.Levels {
		rg, gg := ref.Levels[i].Graph, got.Levels[i].Graph
		if !slices.Equal(gg.Xadj, rg.Xadj) || !slices.Equal(gg.Adjncy, rg.Adjncy) ||
			!slices.Equal(gg.Adjwgt, rg.Adjwgt) || !slices.Equal(gg.Vwgt, rg.Vwgt) {
			t.Fatalf("%s: level %d graph differs", label, i)
		}
		if !slices.Equal(got.Levels[i].Cmap, ref.Levels[i].Cmap) {
			t.Fatalf("%s: level %d cmap differs", label, i)
		}
	}
}

// TestParallelCoarsenIdenticalAcrossWorkers pins the determinism contract of
// parallel coarsening: the entire hierarchy — every level's graph and cmap —
// is bit-identical for any Options.Workers, for every scheme, including a
// GCLP run that an injected stall demotes to HEM after its first level.
func TestParallelCoarsenIdenticalAcrossWorkers(t *testing.T) {
	// 9261 vertices: clusterLPWS keeps >= 1024 vertices per worker, so all
	// eight workers get a chunk.
	g := matgen.FE3DTetra(21, 21, 21, 7)
	build := func(s Scheme, plan string, workers int) (*Hierarchy, []trace.Degradation) {
		var degs []trace.Degradation
		opts := Options{Scheme: s, CoarsenTo: 60, Workers: workers, Degradations: &degs}
		if plan != "" {
			opts.Injector = faults.MustParse(plan)
		}
		return Coarsen(g, opts, rng(9)), degs
	}
	cases := []struct {
		scheme Scheme
		plan   string
	}{{RM, ""}, {HEM, ""}, {LEM, ""}, {HCM, ""}, {GCLP, ""}, {GCLP, "coarsen/match=error@2"}}
	for _, c := range cases {
		label := c.scheme.String() + " " + c.plan
		ref, degs := build(c.scheme, c.plan, 1)
		if c.plan != "" && (len(degs) != 1 || degs[0].From != "GCLP" || degs[0].Level != 1) {
			t.Fatalf("%s: want one GCLP->HEM fallback at level 1, got %+v", label, degs)
		}
		for _, workers := range []int{2, 8} {
			got, _ := build(c.scheme, c.plan, workers)
			sameHierarchy(t, label, ref, got)
		}
	}
}

// TestParallelCoarsenHierarchy: a GCLP hierarchy whose propose phase runs
// on several workers is a valid, weight-preserving hierarchy at every level.
func TestParallelCoarsenHierarchy(t *testing.T) {
	g := matgen.SocialNetwork(8192, 4, 6)
	h := Coarsen(g, Options{Scheme: GCLP, CoarsenTo: 100, Workers: 4}, rng(6))
	if len(h.Levels) < 2 {
		t.Fatal("no coarsening")
	}
	for i, lv := range h.Levels {
		if err := lv.Graph.Validate(); err != nil {
			t.Fatalf("level %d: %v", i, err)
		}
		if lv.Graph.TotalVertexWeight() != g.TotalVertexWeight() {
			t.Fatalf("level %d: vertex weight changed", i)
		}
	}
}

// TestCoarsenWorkspaceParity checks the pooling invariant end to end: a
// workspace-backed hierarchy is identical to the allocating one, including
// on a second run that reuses the (now dirty) pooled buffers.
func TestCoarsenWorkspaceParity(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 3)
	opts := Options{Scheme: HEM, CoarsenTo: 80}
	ref := Coarsen(g, opts, rng(11))

	ws := workspace.Get()
	defer workspace.Put(ws)
	wopts := opts
	wopts.Workspace = ws
	for run := 0; run < 2; run++ {
		got := Coarsen(g, wopts, rng(11))
		sameHierarchy(t, "pooled", ref, got)
		got.Release(ws)
	}
}

// TestContractTrimmedArrays: the coarse graph's adjacency arrays must not
// keep the pessimistic upper-bound capacity they were staged with.
func TestContractTrimmedArrays(t *testing.T) {
	g := matgen.Grid2D(20, 20)
	cg, _, _ := Contract(g, Match(g, HEM, nil, rng(3)), nil)
	if cap(cg.Adjncy) != len(cg.Adjncy) {
		t.Errorf("cadjncy cap %d != len %d", cap(cg.Adjncy), len(cg.Adjncy))
	}
	if cap(cg.Adjwgt) != len(cg.Adjwgt) {
		t.Errorf("cadjwgt cap %d != len %d", cap(cg.Adjwgt), len(cg.Adjwgt))
	}
}
