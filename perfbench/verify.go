package main

import (
	"errors"
	"fmt"
	"math"

	"mlpart"
	"mlpart/internal/graph"
)

// partWeights recomputes the part weights of where on g, rejecting any
// part outside [0,k).
func partWeights(g *graph.Graph, where []int, k int) ([]int, error) {
	if len(where) != g.NumVertices() {
		return nil, fmt.Errorf("where has %d entries, graph has %d vertices", len(where), g.NumVertices())
	}
	pw := make([]int, k)
	for v, p := range where {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("vertex %d in part %d, outside [0,%d)", v, p, k)
		}
		pw[p] += g.Vwgt[v]
	}
	return pw, nil
}

// cutOf recomputes the edge-cut of where on g.
func cutOf(g *graph.Graph, where []int) int {
	cut := 0
	for u := 0; u < g.NumVertices(); u++ {
		for j := g.Xadj[u]; j < g.Xadj[u+1]; j++ {
			if v := g.Adjncy[j]; u < v && where[u] != where[v] {
				cut += g.Adjwgt[j]
			}
		}
	}
	return cut
}

// balanceOf returns k·max(pw)/total.
func balanceOf(pw []int) float64 {
	tot, mx := 0, 0
	for _, w := range pw {
		tot += w
		if w > mx {
			mx = w
		}
	}
	if tot == 0 {
		return 1
	}
	return float64(len(pw)) * float64(mx) / float64(tot)
}

// checkWeights compares k reported part weights and the balance with
// the expected total and, when recomputed is non-nil, with the part
// weights recomputed from where.
func checkWeights(reported []int, k int, recomputed []int, balance float64, total int) []error {
	var errs []error
	if len(reported) != k {
		return append(errs, fmt.Errorf("%d part weights reported, want %d", len(reported), k))
	}
	sum := 0
	for p, w := range reported {
		sum += w
		if recomputed != nil && w != recomputed[p] {
			errs = append(errs, fmt.Errorf("part %d weight %d reported, recomputed %d", p, w, recomputed[p]))
			break
		}
	}
	if sum != total {
		errs = append(errs, fmt.Errorf("part weights sum to %d, graph weighs %d", sum, total))
	}
	if b := balanceOf(reported); math.Abs(b-balance) > 1e-9 {
		errs = append(errs, fmt.Errorf("balance %.6f reported, part weights give %.6f", balance, b))
	}
	return errs
}

// verifyPartition checks one /v1/partition result against the graph it
// was computed for and collects every violation: vertex and part counts,
// parts in [0,k), the cut recomputed from where, part weights summing to
// the total, and the reported balance.
func verifyPartition(g *graph.Graph, k int, r *mlpart.PartitionResponse) error {
	var errs []error
	if r.Kind != mlpart.WireKindResult {
		errs = append(errs, fmt.Errorf("kind %q, want %q", r.Kind, mlpart.WireKindResult))
	}
	if r.Vertices != g.NumVertices() || r.Edges != g.NumEdges() {
		errs = append(errs, fmt.Errorf("graph %d/%d reported, want %d/%d vertices/edges", r.Vertices, r.Edges, g.NumVertices(), g.NumEdges()))
	}
	if r.K != k {
		errs = append(errs, fmt.Errorf("k=%d reported, want %d", r.K, k))
	}
	pw, err := partWeights(g, r.Where, k)
	if err != nil {
		return errors.Join(append(errs, err)...)
	}
	if cut := cutOf(g, r.Where); cut != r.EdgeCut {
		errs = append(errs, fmt.Errorf("edge_cut %d reported, where gives %d", r.EdgeCut, cut))
	}
	errs = append(errs, checkWeights(r.PartWeights, k, pw, r.Balance, totalWeight(g))...)
	return errors.Join(errs...)
}

// verifySession checks one delta-batch reply: the session identity, the
// part weights against the weight the stream says the graph now has,
// the reported balance, and a repair that ran and did not fail.
func verifySession(id string, n, total int, r *mlpart.SessionResponse) error {
	var errs []error
	if r.Kind != mlpart.WireKindSession || r.ID != id {
		errs = append(errs, fmt.Errorf("kind %q id %q, want %q %q", r.Kind, r.ID, mlpart.WireKindSession, id))
	}
	if r.Vertices != n || r.K != K {
		errs = append(errs, fmt.Errorf("%d vertices k=%d, want %d k=%d", r.Vertices, r.K, n, K))
	}
	if r.RepairFailed || r.Degraded {
		errs = append(errs, fmt.Errorf("repair_failed=%v degraded=%v", r.RepairFailed, r.Degraded))
	}
	switch r.LastRepair {
	case "boundary", "full", "vcycle":
	default:
		errs = append(errs, fmt.Errorf("last_repair %q, want a tier", r.LastRepair))
	}
	if r.EdgeCut <= 0 {
		errs = append(errs, fmt.Errorf("edge_cut %d", r.EdgeCut))
	}
	errs = append(errs, checkWeights(r.PartWeights, K, nil, r.Balance, total)...)
	return errors.Join(errs...)
}

func totalWeight(g *graph.Graph) int {
	t := 0
	for _, w := range g.Vwgt {
		t += w
	}
	return t
}
