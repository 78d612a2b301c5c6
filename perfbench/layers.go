package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"strings"

	"mlpart"
	"mlpart/internal/coarsen"
	"mlpart/internal/graph"
	"mlpart/internal/multilevel"
	"mlpart/internal/refine"
	"mlpart/internal/trace"
)

// windowLayers returns the per-layer metrics the timed window itself
// yields: service timings and counters, and the session tiers.
func windowLayers(m *measured) map[string]float64 {
	pct, _, _ := tail(m.latMS)
	out := map[string]float64{
		"error_rate":                 m.errorRate(),
		"balance_violation_rate":     m.balanceViolationRate(),
		"latency_tail_pct":           pct,
		"requests":                   float64(m.attempted),
		"service.degraded_results":   float64(m.degraded),
		"service.rejected":           float64(m.rejected),
		"sessions.apply_ms.boundary": median(m.tierLatMS["boundary"]),
		"sessions.apply_ms.full":     median(m.tierLatMS["full"]),
		"sessions.repairs.boundary":  float64(m.prefixTiers["boundary"]),
		"sessions.repairs.full":      float64(m.prefixTiers["full"]),
		"sessions.repairs.vcycle":    float64(m.prefixTiers["vcycle"]),
		"sessions.resident_mb":       m.residentMB,
		"sessions.cut_drift":         m.cutDrift,
	}
	if len(m.computeMS) > 0 {
		out["service.compute_ms"] = median(m.computeMS)
		out["service.overhead_ms"] = median(m.overheadMS)
	}
	if t := m.cacheHits + m.cacheMisses; t > 0 {
		out["service.cache_hit_ratio"] = float64(m.cacheHits) / float64(t)
	}
	return out
}

// engineCall runs the workload's partition in-process with the options
// the daemon derives from the workload's requests.
func (w *workload) engineCall(g *graph.Graph, seed int64, tr trace.Tracer) (*multilevel.Result, error) {
	opts := multilevel.Options{Seed: seed, Tracer: tr}
	switch {
	case w.kind == kindSession:
		// POST /v1/graphs: direct k-way, default coarsening, BKWAY.
		return multilevel.PartitionKWay(g, K, opts.WithRefinement(refine.BKWAY))
	case w.binary:
		s, err := coarsen.ParseScheme(w.query.Get("coarsening"))
		if err != nil {
			return nil, err
		}
		p, err := refine.ParsePolicy(w.query.Get("refinement"))
		if err != nil {
			return nil, err
		}
		return multilevel.PartitionKWay(g, K, opts.WithMatching(s).WithRefinement(p))
	default:
		return multilevel.Partition(g, K, opts)
	}
}

// decode parses one request body the way the daemon does.
func (w *workload) decode(body []byte) (*graph.Graph, error) {
	if w.binary || w.kind == kindSession {
		return mlpart.DecodeBinaryGraph(body)
	}
	var req mlpart.PartitionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return req.Graph.ToGraph()
}

// encode marshals the reply the daemon would send for res.
func (w *workload) encode(g *graph.Graph, res *multilevel.Result, sessionID string) ([]byte, error) {
	if w.kind == kindSession {
		return json.Marshal(mlpart.SessionResponse{
			Kind: mlpart.WireKindSession, SchemaVersion: mlpart.SchemaVersion,
			ID: sessionID, Vertices: g.NumVertices(), Edges: g.NumEdges(), K: K,
			EdgeCut: res.EdgeCut, BaselineCut: res.EdgeCut, Balance: res.Balance(),
			PartWeights: res.PartWeights, Where: res.Where, LastRepair: "none",
		})
	}
	return json.Marshal(&mlpart.PartitionResponse{
		Kind: mlpart.WireKindResult, SchemaVersion: mlpart.SchemaVersion,
		Vertices: g.NumVertices(), Edges: g.NumEdges(), K: K,
		EdgeCut: res.EdgeCut, Balance: res.Balance(), PartWeights: res.PartWeights,
		Where: res.Where, Cycles: res.Stats.Cycles, Degradations: res.Stats.Degradations,
	})
}

// runtimeSample reads the allocation and GC-cycle counters.
func runtimeSample() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// timed runs f inside a span and returns its duration in ms.
func timed(sp *spans, name, req string, parent int, f func() error) (float64, error) {
	s := sp.begin(name, req, parent)
	err := f()
	sp.end(s)
	return ms(s.EndNS - s.StartNS), err
}

// layerCheckRequests is how many prefix requests the traced run replays
// in-process.
const layerCheckRequests = 4

// measureLayers replays the first layerCheckRequests requests of the run
// in-process, calling each layer the daemon's request path calls —
// decode, fingerprint, the multilevel entry point, response encode — and
// reads the engine's per-phase Stats and trace events. Each request's
// partition runs twice, once with a trace collector and once without,
// alternating which goes first; the difference is the tracing overhead.
// Both runs must reproduce the daemon's result exactly.
func measureLayers(cfg config, e *env, m *measured, sp *spans) (map[string]float64, error) {
	w := cfg.w
	sessionID := ""
	if e.session != nil {
		sessionID = e.session.ID
	}
	var (
		decodeMS, decodeAlloc, fpMS, callMS, tracedMS, encodeMS, respKB []float64
		allocMB, gcCycles, selfMS                                       []float64
		coarsenMS, initMS, refineMS, projectMS                          []float64
		levels, coarsestN, shrink, initialCut, passes, moves, bisect    []float64
		boundary                                                        []float64
		posGain, allMoves                                               int
	)
	for i := 0; i < layerCheckRequests; i++ {
		seed, want := sessionSeed, 0
		var body []byte
		if w.kind == kindSession {
			body, want = e.csrb, e.session.EdgeCut
		} else {
			seed = requestSeed(cfg.seed, i)
			_, _, r, _ := e.pb.request(seed)
			var err error
			if body, err = io.ReadAll(r); err != nil {
				return nil, err
			}
			want = int(m.prefixCut[i])
		}
		req := fmt.Sprintf("p%d", i)
		col := &trace.Collector{}
		var g *graph.Graph
		var res, traced *multilevel.Result
		// call runs the untraced or the traced partition of g; request i
		// makes the call of parity i%2 inside its request span and the
		// other one after it, so neither variant always runs second.
		call := func(withTrace bool, parent int) error {
			if withTrace {
				d, err := timed(sp, "multilevel.call.traced", req, parent, func() (err error) {
					traced, err = w.engineCall(g, seed, col)
					return err
				})
				tracedMS = append(tracedMS, d)
				return err
			}
			d, err := timed(sp, "multilevel.call", req, parent, func() (err error) {
				res, err = w.engineCall(g, seed, nil)
				return err
			})
			callMS = append(callMS, d)
			return err
		}

		root := sp.begin("request", req, 0)
		a0, gc0 := runtimeSample()
		d, err := timed(sp, "graph.decode", req, root.ID, func() (err error) {
			g, err = w.decode(body)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		a1, _ := runtimeSample()
		decodeMS = append(decodeMS, d)
		decodeAlloc = append(decodeAlloc, float64(a1-a0)/(1<<20))
		d, _ = timed(sp, "graph.fingerprint", req, root.ID, func() error { g.Fingerprint(); return nil })
		fpMS = append(fpMS, d)
		if err := call(i%2 == 1, root.ID); err != nil {
			return nil, err
		}
		result := res
		if i%2 == 1 {
			result = traced
		}
		var out []byte
		d, err = timed(sp, "wire.encode", req, root.ID, func() (err error) {
			out, err = w.encode(g, result, sessionID)
			return err
		})
		if err != nil {
			return nil, err
		}
		encodeMS = append(encodeMS, d)
		respKB = append(respKB, float64(len(out))/1024)
		a2, gc2 := runtimeSample()
		sp.end(root)
		allocMB = append(allocMB, float64(a2-a0)/(1<<20))
		gcCycles = append(gcCycles, float64(gc2-gc0))
		if err := call(i%2 == 0, 0); err != nil {
			return nil, err
		}

		// The replays must reproduce the daemon's result: a mismatch is a
		// failed request, not a harness error.
		st, ts := res.Stats, traced.Stats
		if res.EdgeCut != want || traced.EdgeCut != want ||
			ts.Levels != st.Levels || ts.CoarsestN != st.CoarsestN || ts.Counters != st.Counters {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d is not deterministic: in-process cuts %d/%d (untraced/traced), daemon %d\n",
				i, res.EdgeCut, traced.EdgeCut, want)
		}
		phases := st.CoarsenTime + st.InitTime + st.RefineTime + st.ProjectTime
		coarsenMS = append(coarsenMS, ms(st.CoarsenTime.Nanoseconds()))
		initMS = append(initMS, ms(st.InitTime.Nanoseconds()))
		refineMS = append(refineMS, ms(st.RefineTime.Nanoseconds()))
		projectMS = append(projectMS, ms(st.ProjectTime.Nanoseconds()))
		selfMS = append(selfMS, callMS[len(callMS)-1]-ms(phases.Nanoseconds()))
		levels = append(levels, float64(st.Levels))
		coarsestN = append(coarsestN, float64(st.CoarsestN))
		initialCut = append(initialCut, float64(st.InitialCut))
		passes = append(passes, float64(st.RefinePasses))
		moves = append(moves, float64(st.RefineMoves))
		bisect = append(bisect, float64(st.Bisections))
		posGain += st.PositiveGainMoves
		allMoves += st.RefineMoves
		evs := col.Events()
		shrink = append(shrink, shrinkPerLevel(evs))
		boundary = append(boundary, boundaryMean(evs))
	}

	out := map[string]float64{
		"graph.decode_ms":            median(decodeMS),
		"graph.decode_alloc_mb":      median(decodeAlloc),
		"graph.fingerprint_ms":       median(fpMS),
		"coarsen.ms":                 median(coarsenMS),
		"coarsen.levels":             mean(levels),
		"coarsen.coarsest_n":         mean(coarsestN),
		"coarsen.shrink_per_level":   mean(shrink),
		"initpart.ms":                median(initMS),
		"initpart.initial_cut":       mean(initialCut),
		"refine.ms":                  median(refineMS),
		"refine.passes":              mean(passes),
		"refine.moves":               mean(moves),
		"refine.boundary_mean":       mean(boundary),
		"multilevel.project_ms":      median(projectMS),
		"multilevel.bisections":      mean(bisect),
		"multilevel.call_ms":         median(callMS),
		"multilevel.self_ms":         median(selfMS),
		"wire.encode_ms":             median(encodeMS),
		"wire.response_kb":           mean(respKB),
		"runtime.alloc_mb_per_req":   median(allocMB),
		"runtime.gc_cycles_per_req":  mean(gcCycles),
		"trace_overhead_pct":         100 * (median(tracedMS) - median(callMS)) / median(callMS),
		"refine.positive_gain_ratio": 0,
	}
	if allMoves > 0 {
		out["refine.positive_gain_ratio"] = float64(posGain) / float64(allMoves)
	}
	if len(m.phaseGapMS) > 0 {
		out["multilevel.unaccounted_ms"] = median(m.phaseGapMS)
	}
	return out, nil
}

// daemonPhaseGaps sends the first layerCheckRequests prefix requests
// again with ?trace=1 and, for each, takes the daemon's compute time
// (X-Compute-Ns) minus the engine phase times (coarsen, initial, refine,
// project) its own trace reports: the part of the compute window no
// phase timer covers, measured on one execution. Each traced result must
// reproduce the cut the untraced request returned.
func daemonPhaseGaps(ctx context.Context, cfg config, e *env, m *measured) error {
	for i := 0; i < layerCheckRequests; i++ {
		path, ctype, body, size := e.pb.request(requestSeed(cfg.seed, i))
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		s := post(ctx, e.d.http, e.d.base+path+sep+"trace=1", ctype, body, size)
		if s.err != nil || s.status != http.StatusOK || s.computeNS <= 0 {
			return fmt.Errorf("traced request %d: status %d X-Compute-Ns %d: %v %.200s", i, s.status, s.computeNS, s.err, s.body)
		}
		var env struct {
			Result mlpart.PartitionResponse `json:"result"`
			Trace  []trace.Event            `json:"trace"`
		}
		if err := json.Unmarshal(s.body, &env); err != nil {
			return fmt.Errorf("traced request %d: %w", i, err)
		}
		if env.Result.EdgeCut != int(m.prefixCut[i]) {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d is not deterministic: traced cut %d, untraced %d\n", i, env.Result.EdgeCut, int(m.prefixCut[i]))
		}
		var phases int64
		for _, ev := range env.Trace {
			if ev.Kind == trace.KindPhase && ev.Phase != "relabel" {
				phases += ev.ElapsedNS
			}
		}
		m.phaseMS = append(m.phaseMS, ms(phases))
		m.phaseGapMS = append(m.phaseGapMS, ms(s.computeNS-phases))
	}
	return nil
}

// shrinkPerLevel is the geometric mean of the vertex-count ratio between
// consecutive hierarchy levels, over every V-cycle in the events.
func shrinkPerLevel(evs []trace.Event) float64 {
	last := map[int64]trace.Event{} // per bisection seed
	sum, n := 0.0, 0
	for _, ev := range evs {
		if ev.Kind != trace.KindLevel {
			continue
		}
		if prev, ok := last[ev.Seed]; ok && ev.Level == prev.Level+1 && ev.Vertices > 0 {
			sum += math.Log(float64(prev.Vertices) / float64(ev.Vertices))
			n++
		}
		last[ev.Seed] = ev
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// boundaryMean is the mean boundary size at the start of the boundary
// k-way refinement passes; 0 when no pass tracks one.
func boundaryMean(evs []trace.Event) float64 {
	var xs []float64
	for _, ev := range evs {
		if ev.Kind == trace.KindPass && ev.Boundary > 0 {
			xs = append(xs, float64(ev.Boundary))
		}
	}
	return mean(xs)
}
