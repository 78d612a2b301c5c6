package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"mlpart"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
	"mlpart/internal/sessions"
)

func TestRequestStreamDeterministic(t *testing.T) {
	w, err := findWorkload("mesh-kway-csrb")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := newPartitionBody(w, matgen.FE3DTetra(6, 6, 6, 3))
	if err != nil {
		t.Fatal(err)
	}
	read := func(seed int64, i int) string {
		path, _, body, _ := pb.request(requestSeed(seed, i))
		b, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		return path + string(b)
	}
	seen := map[int64]bool{}
	for i := -4; i < 1000; i++ {
		s := requestSeed(7, i)
		if seen[s] {
			t.Fatalf("request %d repeats a seed", i)
		}
		seen[s] = true
		if s != requestSeed(7, i) {
			t.Fatalf("request %d: seed not reproducible", i)
		}
	}
	if read(7, 3) != read(7, 3) {
		t.Error("same workload seed gave different requests")
	}
	if read(7, 3) == read(8, 3) {
		t.Error("different workload seeds gave the same request")
	}
}

func TestDeltaStreamDeterministic(t *testing.T) {
	g := matgen.FE3DTetra(12, 12, 12, 3)
	a, b, c := &deltaStream{g: g, seed: 5}, &deltaStream{g: g, seed: 5}, &deltaStream{g: g, seed: 6}
	for i := 0; i < 2*vwgtEvery; i++ {
		if !reflect.DeepEqual(a.batch(i), b.batch(i)) {
			t.Fatalf("batch %d differs for the same seed", i)
		}
		if reflect.DeepEqual(a.batch(i), c.batch(i)) {
			t.Fatalf("batch %d equal for different seeds", i)
		}
	}
}

// The stream must leave the graph exactly as generated after every pair:
// checked on an edge-map model by fingerprint, and on a real session,
// whose final partition must match its cut on the generated graph.
func TestDeltaStreamRestoresGraph(t *testing.T) {
	g := matgen.FE3DTetra(12, 12, 12, 3)
	ds := &deltaStream{g: g, seed: 11}
	model := newGraphModel(g)
	want := model.graph().Fingerprint()
	if want != g.Fingerprint() {
		t.Fatalf("model rebuild changed the generated graph")
	}
	m, err := sessions.NewManager(sessions.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Create(g, sessions.Config{K: K, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]int{}
	for i := 0; i < 4*vwgtEvery; i++ {
		batch := ds.batch(i)
		if err := model.apply(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		changed := model.graph().Fingerprint() != want
		if i%2 == 1 && changed {
			t.Fatalf("graph differs from the generated one after pair %d", i/2)
		}
		if i%2 == 0 && !changed {
			t.Fatalf("batch %d changed nothing", i)
		}
		ops := make([]sessions.Op, len(batch))
		for j, op := range batch {
			ops[j] = sessions.Op(op)
		}
		s, err := m.Apply(st.ID, ops)
		if err != nil {
			t.Fatalf("apply batch %d: %v", i, err)
		}
		if err := verifySession(st.ID, g.NumVertices(), totalWeight(g)+ds.weightShift(i), toWire(s)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		tiers[s.LastRepair]++
	}
	if tiers["full"] == 0 {
		t.Errorf("no vertex-weight batch forced the full tier: %v", tiers)
	}
	final, err := m.Get(st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if cut := cutOf(g, final.Where); cut != final.Cut {
		t.Errorf("session cut %d, where gives %d on the generated graph", final.Cut, cut)
	}
}

func toWire(s *sessions.State) *mlpart.SessionResponse {
	return &mlpart.SessionResponse{
		Kind: mlpart.WireKindSession, ID: s.ID, Vertices: s.Vertices, K: s.K,
		EdgeCut: s.Cut, Balance: s.Balance, PartWeights: s.PartWeights, LastRepair: s.LastRepair,
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
		ok        bool
	}{
		{100, 90, 90, true},
		{25, 60, 15, true},
		{11, 100.0 / 11, 1, true},
		{10, 100, 10, false},
	} {
		pct, v, ok := tail(seq(c.n))
		if pct != c.pct || v != c.want || ok != c.ok {
			t.Errorf("tail(n=%d) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.want, c.ok)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if c.ok && beyond != tailMin {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailMin)
		}
	}
}

func TestVerifyRejectsFlippedPart(t *testing.T) {
	g := matgen.FE3DTetra(8, 8, 8, 3)
	res, err := multilevel.PartitionKWay(g, K, multilevel.Options{Seed: 1}.WithRefinement(refine.BKWAY))
	if err != nil {
		t.Fatal(err)
	}
	r := &mlpart.PartitionResponse{
		Kind: mlpart.WireKindResult, Vertices: g.NumVertices(), Edges: g.NumEdges(), K: K,
		EdgeCut: res.EdgeCut, Balance: res.Balance(), PartWeights: res.PartWeights, Where: res.Where,
	}
	if err := verifyPartition(g, K, r); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, g.NumVertices() / 2} {
		var bad mlpart.PartitionResponse
		if err := json.Unmarshal(body, &bad); err != nil {
			t.Fatal(err)
		}
		bad.Where[v] = (bad.Where[v] + 1) % K
		if err := verifyPartition(g, K, &bad); err == nil {
			t.Errorf("result with vertex %d moved to another part accepted", v)
		}
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %q %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	var e2e, layer []entry
	for _, d := range catalogue {
		e := entry{Name: d.name, Unit: d.unit, Better: d.better}
		if d.perLayer {
			layer = append(layer, e)
		} else {
			bound := d.bound
			e.Bound = &bound
			e2e = append(e2e, e)
		}
	}
	if !reflect.DeepEqual(bj.EndToEnd, e2e) {
		t.Errorf("end_to_end differs:\n got %+v\nwant %+v", bj.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(bj.PerLayer, layer) {
		t.Errorf("per_layer differs:\n got %+v\nwant %+v", bj.PerLayer, layer)
	}
}

// graphModel is an edge-map model of a graph that delta batches can be
// applied to; the tests use it to check that the stream restores the
// generated graph.
type graphModel struct {
	vwgt  []int
	edges map[[2]int]int
}

func newGraphModel(g *graph.Graph) *graphModel {
	m := &graphModel{vwgt: append([]int(nil), g.Vwgt...), edges: make(map[[2]int]int, len(g.Adjncy)/2)}
	for u := 0; u < g.NumVertices(); u++ {
		for j := g.Xadj[u]; j < g.Xadj[u+1]; j++ {
			if v := g.Adjncy[j]; u < v {
				m.edges[[2]int{u, v}] = g.Adjwgt[j]
			}
		}
	}
	return m
}

func (m *graphModel) apply(ops []mlpart.DeltaOp) error {
	for i, op := range ops {
		u, v := op.U, op.V
		if u > v {
			u, v = v, u
		}
		switch op.Op {
		case mlpart.DeltaOpVwgt:
			m.vwgt[op.U] = op.W
		case mlpart.DeltaOpAdd:
			m.edges[[2]int{u, v}] = op.W
		case mlpart.DeltaOpRemove:
			if _, ok := m.edges[[2]int{u, v}]; !ok {
				return fmt.Errorf("op %d removes missing edge (%d,%d)", i, u, v)
			}
			delete(m.edges, [2]int{u, v})
		}
	}
	return nil
}

// graph rebuilds the model as a CSR graph with sorted adjacency lists.
func (m *graphModel) graph() *graph.Graph {
	n := len(m.vwgt)
	adj := make([][][2]int, n)
	for e, w := range m.edges {
		adj[e[0]] = append(adj[e[0]], [2]int{e[1], w})
		adj[e[1]] = append(adj[e[1]], [2]int{e[0], w})
	}
	g := &graph.Graph{Xadj: make([]int, n+1), Vwgt: append([]int(nil), m.vwgt...)}
	for u := 0; u < n; u++ {
		sort.Slice(adj[u], func(a, b int) bool { return adj[u][a][0] < adj[u][b][0] })
		for _, e := range adj[u] {
			g.Adjncy = append(g.Adjncy, e[0])
			g.Adjwgt = append(g.Adjwgt, e[1])
		}
		g.Xadj[u+1] = len(g.Adjncy)
	}
	return g
}
