package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"strconv"

	"mlpart"
	"mlpart/internal/graph"
	"mlpart/internal/matgen"
)

// Every workload partitions into K parts under the engine's default
// balance tolerance.
const (
	K        = 32
	ubfactor = 1.05
)

// Workload kinds: a partition workload posts independent /v1/partition
// requests; the session workload streams delta batches into one session.
const (
	kindPartition = iota
	kindSession
)

// workload is one named traffic mix. The daemon sees only the generated
// graph and the requests built from the workload seed.
type workload struct {
	name   string
	why    string
	kind   int
	family string // "FE3D" or "SOC": which generator builds the graph
	// clients is the closed-loop concurrency.
	clients int
	// binary posts the graph as a csrb body with options in the query;
	// otherwise the body is a PartitionRequest JSON object.
	binary bool
	// query holds the fixed partition options of a csrb workload (the
	// seed is added per request).
	query url.Values
	// prefix is the number of leading requests (or delta batches) every
	// run completes whatever its length. Deterministic metrics are
	// computed over this prefix only, so they do not depend on how many
	// requests the timed window happened to fit.
	prefix int
}

// partitionPrefix guarantees 2·tailMin+1 samples per run, so the tail
// percentile (tailMin samples beyond it) never falls below the median
// even when a slow host fits fewer requests into the window.
const partitionPrefix = 2*tailMin + 1

var workloads = []*workload{
	{
		name: "mesh-kway-csrb", kind: kindPartition, family: "FE3D", clients: 1, binary: true,
		why:    "FE3D-125k mesh, csrb body, direct k-way with HEM and BKWAY: the tuned client's hot path, dominated by coarsen and refine",
		query:  url.Values{"k": {strconv.Itoa(K)}, "method": {"kway"}, "refinement": {"BKWAY"}, "coarsening": {"HEM"}},
		prefix: partitionPrefix,
	},
	{
		name: "social-kway-csrb", kind: kindPartition, family: "SOC", clients: 1, binary: true,
		why:    "SOC-131k power-law graph, csrb body, direct k-way with GCLP and BKWAY: hub-heavy boundary, GCLP coarsening, known balance defect",
		query:  url.Values{"k": {strconv.Itoa(K)}, "method": {"kway"}, "refinement": {"BKWAY"}, "coarsening": {"GCLP"}},
		prefix: partitionPrefix,
	},
	{
		name: "mesh-default-json", kind: kindPartition, family: "FE3D", clients: 2,
		why:    "FE3D-125k as JSON with default options (recursive bisection, 2-way FM), two clients: JSON ingest, initpart and the throughput check",
		prefix: partitionPrefix,
	},
	{
		name: "mesh-session-deltas", kind: kindSession, family: "FE3D", clients: 1,
		why:    "one FE3D-125k session fed 1%-of-vertices delta batches that revert pairwise: incremental repair, full tier and the delta log",
		prefix: 64,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// genGraph builds the workload's input graph. The graphs are fixed; the
// workload seed varies the requests, not the graph.
func genGraph(family string) *graph.Graph {
	if family == "SOC" {
		return matgen.SocialNetwork(131072, 4, 23)
	}
	return matgen.FE3DTetra(50, 50, 50, 3)
}

// splitmix64 is the finalizer used to derive independent request seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// requestSeed is the engine seed of request i of a run with the given
// workload seed. Distinct i give distinct seeds, so no two requests of a
// run share a result-cache entry. Warm-up requests use negative i.
func requestSeed(workloadSeed int64, i int) int64 {
	return int64(splitmix64(splitmix64(uint64(workloadSeed))^uint64(int64(i))) >> 1)
}

// sessionSeed is the seed the session is created with. It is fixed, like
// the graph: every repair's cost depends on the incumbent partition, so a
// per-run session seed would make the run's whole delta stream cheaper or
// dearer together; the workload seed varies the delta stream instead.
const sessionSeed int64 = 1

// encodeBinary returns g as a csrb body.
func encodeBinary(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.EncodeBinary(&buf, g); err != nil {
		return nil, fmt.Errorf("encode csrb: %w", err)
	}
	return buf.Bytes(), nil
}

// partitionBody holds a workload's pre-encoded graph; body(seed) builds
// one request from it without re-encoding the graph.
type partitionBody struct {
	w     *workload
	graph []byte // csrb payload, or the JSON WireGraph object
}

func newPartitionBody(w *workload, g *graph.Graph) (*partitionBody, error) {
	if w.binary {
		b, err := encodeBinary(g)
		if err != nil {
			return nil, err
		}
		return &partitionBody{w: w, graph: b}, nil
	}
	b, err := json.Marshal(mlpart.NewWireGraph(g))
	if err != nil {
		return nil, fmt.Errorf("encode json graph: %w", err)
	}
	return &partitionBody{w: w, graph: b}, nil
}

// request returns the URL path with query, the content type, and a
// reader over the body of the request carrying seed.
func (pb *partitionBody) request(seed int64) (path, ctype string, body io.Reader, size int64) {
	if pb.w.binary {
		q := url.Values{}
		for k, v := range pb.w.query {
			q[k] = v
		}
		q.Set("seed", strconv.FormatInt(seed, 10))
		return "/v1/partition?" + q.Encode(), mlpart.ContentTypeBinaryCSR,
			bytes.NewReader(pb.graph), int64(len(pb.graph))
	}
	head := []byte(fmt.Sprintf(`{"k":%d,"options":{"seed":%d},"graph":`, K, seed))
	tail := []byte("}")
	return "/v1/partition", mlpart.ContentTypeJSON,
		io.MultiReader(bytes.NewReader(head), bytes.NewReader(pb.graph), bytes.NewReader(tail)),
		int64(len(head) + len(pb.graph) + len(tail))
}

// Delta stream shape. Batches come in pairs: a forward batch changes the
// graph and the next batch reverts exactly that change, so the graph is
// the generated one again after every pair and the repair-tier mix does
// not drift with run length. Every vwgtEvery-th pair shifts vertex
// weights in one compact region far enough past the session manager's
// MaxImbalance (1.15) to force a full-tier repair; the other pairs churn
// edges.
const (
	deltaOpsPerBatch = 1250 // ~1% of FE3D-125k's vertices
	vwgtEvery        = 4
	vwgtBall         = 400 // vertices in the reweighted region
	vwgtWeight       = 8
)

// deltaStream generates the batches of a session run from the workload
// seed and the session's original graph.
type deltaStream struct {
	g    *graph.Graph
	seed int64
}

// batch returns delta batch i. Batch 2p+1 reverts batch 2p.
func (ds *deltaStream) batch(i int) []mlpart.DeltaOp {
	fwd := ds.forward(i / 2)
	if i%2 == 0 {
		return fwd
	}
	return revert(ds.g, fwd)
}

// forward builds the changing half of pair p against the original graph.
func (ds *deltaStream) forward(p int) []mlpart.DeltaOp {
	rng := rand.New(rand.NewSource(requestSeed(ds.seed, p)))
	n := ds.g.NumVertices()
	if p%vwgtEvery == vwgtEvery-1 {
		ball := bfsBall(ds.g, rng.Intn(n), vwgtBall)
		ops := make([]mlpart.DeltaOp, len(ball))
		for j, v := range ball {
			ops[j] = mlpart.DeltaOp{Op: mlpart.DeltaOpVwgt, U: v, W: vwgtWeight}
		}
		return ops
	}
	// Edge churn: remove distinct existing edges and add distinct
	// two-hop edges (a local mesh refinement), half each.
	type pair struct{ u, v int }
	used := make(map[pair]bool, deltaOpsPerBatch)
	key := func(u, v int) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	ops := make([]mlpart.DeltaOp, 0, deltaOpsPerBatch)
	for len(ops) < deltaOpsPerBatch/2 {
		u := rng.Intn(n)
		lo, hi := ds.g.Xadj[u], ds.g.Xadj[u+1]
		if hi == lo {
			continue
		}
		v := ds.g.Adjncy[lo+rng.Intn(hi-lo)]
		if kp := key(u, v); !used[kp] {
			used[kp] = true
			ops = append(ops, mlpart.DeltaOp{Op: mlpart.DeltaOpRemove, U: u, V: v})
		}
	}
	for len(ops) < deltaOpsPerBatch {
		u := rng.Intn(n)
		lo, hi := ds.g.Xadj[u], ds.g.Xadj[u+1]
		if hi == lo {
			continue
		}
		m := ds.g.Adjncy[lo+rng.Intn(hi-lo)]
		mlo, mhi := ds.g.Xadj[m], ds.g.Xadj[m+1]
		v := ds.g.Adjncy[mlo+rng.Intn(mhi-mlo)]
		if v == u || adjacent(ds.g, u, v) {
			continue
		}
		if kp := key(u, v); !used[kp] {
			used[kp] = true
			ops = append(ops, mlpart.DeltaOp{Op: mlpart.DeltaOpAdd, U: u, V: v, W: 1})
		}
	}
	return ops
}

// revert returns the batch that undoes fwd, which was applied to g.
func revert(g *graph.Graph, fwd []mlpart.DeltaOp) []mlpart.DeltaOp {
	inv := make([]mlpart.DeltaOp, len(fwd))
	for j, op := range fwd {
		switch op.Op {
		case mlpart.DeltaOpVwgt:
			inv[j] = mlpart.DeltaOp{Op: mlpart.DeltaOpVwgt, U: op.U, W: g.Vwgt[op.U]}
		case mlpart.DeltaOpRemove:
			inv[j] = mlpart.DeltaOp{Op: mlpart.DeltaOpAdd, U: op.U, V: op.V, W: edgeWeight(g, op.U, op.V)}
		case mlpart.DeltaOpAdd:
			inv[j] = mlpart.DeltaOp{Op: mlpart.DeltaOpRemove, U: op.U, V: op.V}
		}
	}
	return inv
}

func adjacent(g *graph.Graph, u, v int) bool {
	for j := g.Xadj[u]; j < g.Xadj[u+1]; j++ {
		if g.Adjncy[j] == v {
			return true
		}
	}
	return false
}

func edgeWeight(g *graph.Graph, u, v int) int {
	for j := g.Xadj[u]; j < g.Xadj[u+1]; j++ {
		if g.Adjncy[j] == v {
			return g.Adjwgt[j]
		}
	}
	return 0
}

// bfsBall returns up to size vertices nearest to src in BFS order.
func bfsBall(g *graph.Graph, src, size int) []int {
	seen := map[int]bool{src: true}
	ball := []int{src}
	for head := 0; head < len(ball) && len(ball) < size; head++ {
		u := ball[head]
		for j := g.Xadj[u]; j < g.Xadj[u+1] && len(ball) < size; j++ {
			if v := g.Adjncy[j]; !seen[v] {
				seen[v] = true
				ball = append(ball, v)
			}
		}
	}
	return ball
}

// weightShift is how much batch i changes the graph's total vertex
// weight relative to the generated graph, as seen after the batch.
func (ds *deltaStream) weightShift(i int) int {
	if i%2 == 1 {
		return 0
	}
	shift := 0
	for _, op := range ds.forward(i / 2) {
		if op.Op == mlpart.DeltaOpVwgt {
			shift += op.W - ds.g.Vwgt[op.U]
		}
	}
	return shift
}
