package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// validateReference is the rule Validate implements, written the direct
// way: the same structural checks, then per entry in u-major order range,
// self loop, positive weight and an EdgeWeight(v, u) probe, which costs
// O(Σ deg²). The linear-time Validate must return its exact error text on
// every input.
func validateReference(g *Graph) error {
	n := g.NumVertices()
	if n < 0 {
		return fmt.Errorf("graph: Xadj must have length >= 1")
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	if len(g.Vwgt) != n {
		return fmt.Errorf("graph: len(Vwgt) = %d, want n = %d", len(g.Vwgt), n)
	}
	for i := 0; i < n; i++ {
		if g.Xadj[i+1] < g.Xadj[i] {
			return fmt.Errorf("graph: Xadj decreasing at %d", i)
		}
		if g.Vwgt[i] <= 0 {
			return fmt.Errorf("graph: Vwgt[%d] = %d, want > 0", i, g.Vwgt[i])
		}
	}
	if g.Xadj[n] != len(g.Adjncy) {
		return fmt.Errorf("graph: Xadj[n] = %d, want len(Adjncy) = %d", g.Xadj[n], len(g.Adjncy))
	}
	if len(g.Adjwgt) != len(g.Adjncy) {
		return fmt.Errorf("graph: len(Adjwgt) = %d, want %d", len(g.Adjwgt), len(g.Adjncy))
	}
	if len(g.Adjncy)%2 != 0 {
		return fmt.Errorf("graph: odd number of directed edges %d", len(g.Adjncy))
	}
	for u := 0; u < n; u++ {
		adj := g.Neighbors(u)
		wgt := g.EdgeWeights(u)
		for i, v := range adj {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
			}
			if v == u {
				return fmt.Errorf("graph: self loop at %d", u)
			}
			if wgt[i] <= 0 {
				return fmt.Errorf("graph: edge (%d,%d) weight %d, want > 0", u, v, wgt[i])
			}
			if back := g.EdgeWeight(v, u); back != wgt[i] {
				return fmt.Errorf("graph: asymmetric edge (%d,%d): %d vs %d", u, v, wgt[i], back)
			}
		}
	}
	return nil
}

// mutatedCSR returns a small random CSR graph, valid or not: a symmetric
// base graph whose entries are then damaged with duplicate neighbour
// entries, dropped or redirected reverse entries, changed weights, self
// loops, out-of-range ids and (rarely) broken Xadj or vertex weights.
func mutatedCSR(rng *rand.Rand) *Graph {
	n := 1 + rng.Intn(9)
	lists := make([][][2]int, n) // per vertex: (neighbour, weight)
	for e := rng.Intn(3 * n); e > 0; e-- {
		u, v, w := rng.Intn(n), rng.Intn(n), 1+rng.Intn(3)
		if u == v {
			continue
		}
		lists[u] = append(lists[u], [2]int{v, w})
		lists[v] = append(lists[v], [2]int{u, w})
	}
	for k := rng.Intn(4); k > 0; k-- {
		u := rng.Intn(n)
		l := lists[u]
		switch op := rng.Intn(7); {
		case op == 0 && len(l) > 0: // duplicate an entry, weight kept or changed
			d := l[rng.Intn(len(l))]
			if rng.Intn(2) == 0 {
				d[1] = 1 + rng.Intn(3)
			}
			lists[u] = append(l, d)
		case op == 1 && len(l) > 0: // drop an entry
			i := rng.Intn(len(l))
			lists[u] = append(l[:i:i], l[i+1:]...)
		case op == 2 && len(l) > 0: // change a weight, possibly to <= 0
			l[rng.Intn(len(l))][1] = rng.Intn(5) - 1
		case op == 3 && len(l) > 0: // redirect an entry, possibly out of range
			l[rng.Intn(len(l))][0] = rng.Intn(n+4) - 2
		case op == 4: // self loop
			lists[u] = append(l, [2]int{u, 1})
		case op == 5 && len(l) > 1: // reorder a list
			rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		default: // one-sided entry
			lists[u] = append(l, [2]int{rng.Intn(n), 1 + rng.Intn(3)})
		}
	}
	g := &Graph{Xadj: make([]int, n+1), Vwgt: make([]int, n)}
	for u, l := range lists {
		for _, e := range l {
			g.Adjncy = append(g.Adjncy, e[0])
			g.Adjwgt = append(g.Adjwgt, e[1])
		}
		g.Xadj[u+1] = len(g.Adjncy)
		g.Vwgt[u] = 1
	}
	switch rng.Intn(40) {
	case 0:
		g.Vwgt[rng.Intn(n)] = 0
	case 1:
		if len(g.Adjncy) > 0 {
			g.Adjncy, g.Adjwgt = g.Adjncy[:len(g.Adjncy)-1], g.Adjwgt[:len(g.Adjwgt)-1]
			g.Xadj[n]--
		}
	case 2:
		g.Xadj[rng.Intn(n+1)]++
	}
	return g
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestValidateMatchesReference is the differential test of the
// linear-time symmetry check against validateReference.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	valid, asym := 0, 0
	for i := 0; i < 20000; i++ {
		g := mutatedCSR(rng)
		want, got := errText(validateReference(g)), errText(g.Validate())
		if got != want {
			t.Fatalf("case %d: Xadj=%v Adjncy=%v Adjwgt=%v Vwgt=%v\nValidate:  %s\nreference: %s",
				i, g.Xadj, g.Adjncy, g.Adjwgt, g.Vwgt, got, want)
		}
		switch {
		case want == "<nil>":
			valid++
		case strings.HasPrefix(want, "graph: asymmetric"):
			asym++
		}
	}
	// The generator must exercise both outcomes that matter.
	if valid < 1000 || asym < 1000 {
		t.Fatalf("generator too narrow: %d valid, %d asymmetric of 20000", valid, asym)
	}
	for _, g := range []*Graph{path(50), grid(7, 9), randomGraph(300, 2000, 5, 3), star(1000)} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}

// star returns the star with one hub and leaves leaves: the worst case of
// a per-entry EdgeWeight probe.
func star(leaves int) *Graph {
	b := NewBuilder(leaves + 1)
	for v := 1; v <= leaves; v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild()
}

// TestValidateHubIsLinear pins the hostile-input bound: the per-entry
// probe took seconds on a 100k-leaf star, the linear check milliseconds.
func TestValidateHubIsLinear(t *testing.T) {
	g := star(100000)
	start := time.Now()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Validate on a 100k-leaf star took %v", d)
	}
}
