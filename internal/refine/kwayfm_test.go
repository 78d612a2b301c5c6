package refine

import (
	"math/rand"
	"slices"
	"testing"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// randomKWhere assigns every vertex a uniform random part in [0, k).
func randomKWhere(n, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	where := make([]int, n)
	for i := range where {
		where[i] = rng.Intn(k)
	}
	return where
}

// verifyKWay recomputes the partition's cut and part weights from scratch
// and fails the test on any drift from the incrementally maintained state.
func verifyKWay(t *testing.T, p *kway.Partition) {
	t.Helper()
	if got := ComputeCut(p.G, p.Where); got != p.Cut {
		t.Fatalf("incremental cut %d, recomputed %d", p.Cut, got)
	}
	pwgt := make([]int, p.K)
	for v, part := range p.Where {
		if part < 0 || part >= p.K {
			t.Fatalf("Where[%d] = %d out of [0,%d)", v, part, p.K)
		}
		pwgt[part] += p.G.Vwgt[v]
	}
	for i, w := range pwgt {
		if w != p.Pwgt[i] {
			t.Fatalf("Pwgt[%d] = %d, recomputed %d", i, p.Pwgt[i], w)
		}
	}
}

func TestRefineKWayMaintainsInvariants(t *testing.T) {
	g := matgen.Mesh2DTri(20, 20, 0.02, 7)
	const k = 5
	p := kway.NewPartition(g, k, randomKWhere(g.NumVertices(), k, 3))
	before := p.Cut
	after := RefineKWay(p, KWayOptions{Seed: 1})
	if after > before {
		t.Errorf("cut worsened %d -> %d", before, after)
	}
	if after != p.Cut {
		t.Errorf("returned cut %d, state says %d", after, p.Cut)
	}
	verifyKWay(t, p)
}

func TestRefineKWayImprovesRandomPartition(t *testing.T) {
	// A random k-way assignment of a mesh cuts most edges; boundary
	// refinement should reduce that dramatically.
	g := matgen.Grid2D(30, 30)
	const k = 4
	p := kway.NewPartition(g, k, randomKWhere(g.NumVertices(), k, 9))
	before := p.Cut
	after := RefineKWay(p, KWayOptions{Seed: 2})
	if after >= before*3/4 {
		t.Errorf("weak improvement %d -> %d", before, after)
	}
	verifyKWay(t, p)
}

func TestRefineKWayDeterministicForFixedSeed(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 5)
	const k = 6
	run := func() []int {
		p := kway.NewPartition(g, k, randomKWhere(g.NumVertices(), k, 11))
		RefineKWay(p, KWayOptions{Seed: 42})
		return p.Where
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("two serial runs with the same seed diverge at vertex %d", v)
		}
	}
}

// TestRefineKWayWorkerParity is the engine's central contract: the
// partition is bit-identical for every worker count, because proposals are
// independent of how the boundary snapshot is chunked and commits are
// always serial in snapshot order. Workers is scheduling, never quality.
func TestRefineKWayWorkerParity(t *testing.T) {
	g := matgen.FE3DTetra(10, 10, 10, 5)
	const k = 8
	base := randomKWhere(g.NumVertices(), k, 13)
	run := func(workers int) ([]int, int) {
		p := kway.NewPartition(g, k, append([]int(nil), base...))
		cut := RefineKWay(p, KWayOptions{Seed: 7, Workers: workers})
		verifyKWay(t, p)
		return p.Where, cut
	}
	serialWhere, serialCut := run(0)
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		where, cut := run(workers)
		if cut != serialCut {
			t.Errorf("Workers=%d: cut %d, serial %d", workers, cut, serialCut)
		}
		for v := range where {
			if where[v] != serialWhere[v] {
				t.Fatalf("Workers=%d: Where[%d] = %d, serial %d", workers, v, where[v], serialWhere[v])
			}
		}
	}
}

func TestRefineKWayRespectsBalance(t *testing.T) {
	g := matgen.Mesh2DTri(25, 25, 0, 10)
	const k = 5
	const ub = 1.1
	// Start from a balanced striped partition; refinement must keep every
	// part within tolerance.
	n := g.NumVertices()
	where := make([]int, n)
	for i := range where {
		where[i] = i * k / n
	}
	p := kway.NewPartition(g, k, where)
	RefineKWay(p, KWayOptions{Seed: 3, Ubfactor: ub})
	verifyKWay(t, p)
	limit := kwayLimit(g, k, ub)
	for i, w := range p.Pwgt {
		if w > limit {
			t.Errorf("Pwgt[%d] = %d exceeds limit %d", i, w, limit)
		}
		if w <= 0 {
			t.Errorf("Pwgt[%d] = %d: part emptied", i, w)
		}
	}
}

func TestRefineKWayPooledMatchesAllocating(t *testing.T) {
	g := matgen.Grid2D(24, 24)
	const k = 6
	base := randomKWhere(g.NumVertices(), k, 17)
	pooled := kway.NewPartition(g, k, append([]int(nil), base...))
	plain := kway.NewPartition(g, k, append([]int(nil), base...))
	basePwgt, baseCut := append([]int(nil), pooled.Pwgt...), pooled.Cut
	ws := workspace.Get()
	defer workspace.Put(ws)
	cutPooled := RefineKWay(pooled, KWayOptions{Seed: 5, Workspace: ws})
	cutPlain := RefineKWay(plain, KWayOptions{Seed: 5})
	if cutPooled != cutPlain {
		t.Fatalf("pooled cut %d, allocating cut %d", cutPooled, cutPlain)
	}
	for v := range pooled.Where {
		if pooled.Where[v] != plain.Where[v] {
			t.Fatalf("pooled and allocating runs diverge at vertex %d", v)
		}
	}
	// From a warm workspace the serial engine allocates nothing: every
	// per-pass array, the per-worker slabs included, is pooled.
	allocs := testing.AllocsPerRun(3, func() {
		copy(pooled.Where, base)
		copy(pooled.Pwgt, basePwgt)
		pooled.Cut = baseCut
		RefineKWay(pooled, KWayOptions{Seed: 5, Workspace: ws})
	})
	if allocs != 0 {
		t.Errorf("serial RefineKWay from a warm workspace: %v allocs/run, want 0", allocs)
	}
}

// TestKWayProposeOrderIndependent pins what lets propose visit the boundary
// in ascending vertex id while commit walks the shuffled snapshot: a
// proposal depends only on the start-of-pass state, never on the order in
// which the boundary is visited or on how it is chunked across workers.
// Each partition has parts filled to within one unit of the limit (some
// moves into them are admissible, some are not) and, for k >= 3, a part
// down to one vertex (it must never be proposed out of). The limit is
// loose so that the remaining parts keep room to receive moves.
func TestKWayProposeOrderIndependent(t *testing.T) {
	for _, k := range []int{2, 5, 32} {
		for trial := int64(0); trial < 3; trial++ {
			seed := int64(k)*10 + trial
			rng := rand.New(rand.NewSource(seed))
			g := matgen.SocialNetwork(600, 3, seed)
			for v := range g.Vwgt {
				g.Vwgt[v] = 1 + rng.Intn(3)
			}
			limit := kwayLimit(g, k, 1.5)
			p := kway.NewPartition(g, k, skewedWhere(g, k, limit, rng))
			var asc []int
			for v := range p.Where {
				for _, u := range g.Neighbors(v) {
					if p.Where[u] != p.Where[v] {
						asc = append(asc, v)
						break
					}
				}
			}
			shuffled := append([]int(nil), asc...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			wantTo, wantGain := proposeReference(p, asc, limit)

			n := g.NumVertices()
			run := func(name string, propose func(bestTo, bestGain []int)) {
				bestTo, bestGain := make([]int, n), make([]int, n)
				propose(bestTo, bestGain)
				for _, v := range asc {
					if bestTo[v] != wantTo[v] || (wantTo[v] >= 0 && bestGain[v] != wantGain[v]) {
						t.Fatalf("k=%d trial=%d %s: vertex %d proposes part %d gain %d, want part %d gain %d",
							k, trial, name, v, bestTo[v], bestGain[v], wantTo[v], wantGain[v])
					}
				}
			}
			serial := func(verts []int) func(bestTo, bestGain []int) {
				return func(bestTo, bestGain []int) {
					kwayPropose(p, bestTo, bestGain, verts, make([]int, k), make([]int, k), make([]int, k), new(int), limit)
				}
			}
			run("ascending", serial(asc))
			run("shuffled", serial(shuffled))
			run("ascending, 3 workers", func(bestTo, bestGain []int) {
				r := kwayRefiner{p: p, bestTo: bestTo, bestGain: bestGain}
				r.proposeParallel(asc, 3, k, make([]int, 3*k), make([]int, 3*k), make([]int, 3*k), make([]int, 3), limit)
			})
		}
	}
}

// skewedWhere is a random k-way assignment with the last part (and for
// k >= 5 the one before it) filled to within one unit of limit and, for
// k >= 3, part 0 down to vertex 0 alone.
func skewedWhere(g *graph.Graph, k, limit int, rng *rand.Rand) []int {
	n := g.NumVertices()
	where := make([]int, n)
	pwgt := make([]int, k)
	lo := 0
	if k >= 3 {
		lo = 1
	}
	for v := range where {
		where[v] = lo + rng.Intn(k-lo)
		if v == 0 {
			where[v] = 0
		}
		pwgt[where[v]] += g.Vwgt[v]
	}
	full := []int{k - 1}
	if k >= 5 {
		full = append(full, k-2)
	}
	for _, h := range full {
		for _, v := range rng.Perm(n) {
			if pwgt[h] >= limit-1 {
				break
			}
			from := where[v]
			if (lo == 1 && from == 0) || slices.Contains(full, from) || pwgt[h]+g.Vwgt[v] > limit {
				continue
			}
			pwgt[from] -= g.Vwgt[v]
			pwgt[h] += g.Vwgt[v]
			where[v] = h
		}
	}
	return where
}

// proposeReference is the best-move rule written out directly: among the
// parts adjacent to v, other than its own, that stay within limit after
// the move, the highest gain, then the lighter part, then the lower id —
// kept only if the gain is positive, or zero while strictly improving the
// weight spread; no move out of a part v would empty.
func proposeReference(p *kway.Partition, verts []int, limit int) (bestTo, bestGain map[int]int) {
	g := p.G
	bestTo, bestGain = map[int]int{}, map[int]int{}
	for _, v := range verts {
		bestTo[v] = -1
		from, vw := p.Where[v], g.Vwgt[v]
		if p.Pwgt[from]-vw <= 0 {
			continue
		}
		ed := map[int]int{}
		for i, u := range g.Neighbors(v) {
			ed[p.Where[u]] += g.EdgeWeights(v)[i]
		}
		for to := 0; to < p.K; to++ {
			if _, adjacent := ed[to]; !adjacent || to == from || p.Pwgt[to]+vw > limit {
				continue
			}
			gain := ed[to] - ed[from]
			if gain < 0 || (gain == 0 && p.Pwgt[to]+vw >= p.Pwgt[from]) {
				continue
			}
			if best := bestTo[v]; best < 0 || gain > bestGain[v] || (gain == bestGain[v] && p.Pwgt[to] < p.Pwgt[best]) {
				bestTo[v], bestGain[v] = to, gain
			}
		}
	}
	return bestTo, bestGain
}

func TestRefineKWayTraceEvents(t *testing.T) {
	g := matgen.Grid2D(20, 20)
	const k = 4
	p := kway.NewPartition(g, k, randomKWhere(g.NumVertices(), k, 19))
	col := &trace.Collector{}
	ctr := &trace.Counters{}
	RefineKWay(p, KWayOptions{Seed: 1, Tracer: col, Counters: ctr, Level: 2})
	events := col.Events()
	if len(events) == 0 {
		t.Fatal("no trace events emitted")
	}
	moves := 0
	for i, e := range events {
		if e.Kind != trace.KindPass || e.Algorithm != "BKWAY" {
			t.Fatalf("event %d: kind %q algorithm %q", i, e.Kind, e.Algorithm)
		}
		if e.Level != 2 || e.Pass != i {
			t.Errorf("event %d: level %d pass %d", i, e.Level, e.Pass)
		}
		if e.Boundary <= 0 {
			t.Errorf("event %d: boundary size %d, want > 0", i, e.Boundary)
		}
		moves += e.Moves
	}
	last := events[len(events)-1]
	if last.Cut != p.Cut {
		t.Errorf("last pass reports cut %d, partition has %d", last.Cut, p.Cut)
	}
	if ctr.RefinePasses != len(events) || ctr.RefineMoves != moves {
		t.Errorf("counters passes=%d moves=%d, events say %d/%d",
			ctr.RefinePasses, ctr.RefineMoves, len(events), moves)
	}
}

// TestRefineKWayFaultInjection pins the kway/pass site contract: an
// injected error abandons the remaining passes and keeps the moves
// committed so far — always a structurally valid partition.
func TestRefineKWayFaultInjection(t *testing.T) {
	g := matgen.Grid2D(20, 20)
	const k = 4
	base := randomKWhere(g.NumVertices(), k, 23)

	// Firing on the first pass boundary means no pass runs at all.
	inj := faults.MustParse("kway/pass=error@1")
	p := kway.NewPartition(g, k, append([]int(nil), base...))
	before := p.Cut
	after := RefineKWay(p, KWayOptions{Seed: 1, Injector: inj})
	if after != before {
		t.Errorf("error at the first pass boundary still moved vertices: %d -> %d", before, after)
	}
	if inj.HitCount(faults.SiteKWayPass) != 1 {
		t.Errorf("site hit %d times, want 1", inj.HitCount(faults.SiteKWayPass))
	}

	// Firing on the second boundary keeps pass one's committed moves.
	inj2 := faults.MustParse("kway/pass=error@2")
	p2 := kway.NewPartition(g, k, append([]int(nil), base...))
	after2 := RefineKWay(p2, KWayOptions{Seed: 1, Injector: inj2})
	if after2 >= before {
		t.Errorf("one committed pass should improve a random partition: %d -> %d", before, after2)
	}
	verifyKWay(t, p2)
}

func TestRefineKWayDegenerateInputs(t *testing.T) {
	// k = 1: nothing to refine.
	g := matgen.Grid2D(5, 5)
	p := kway.NewPartition(g, 1, make([]int, g.NumVertices()))
	if cut := RefineKWay(p, KWayOptions{}); cut != 0 {
		t.Errorf("k=1 cut = %d, want 0", cut)
	}
	// One vertex per part: every vertex is boundary but no move can be
	// applied (each would empty its source part); must converge cleanly.
	p2 := kway.NewPartition(g, 25, seqWhere(g.NumVertices()))
	RefineKWay(p2, KWayOptions{Seed: 1})
	verifyKWay(t, p2)
}

func seqWhere(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = i
	}
	return w
}
