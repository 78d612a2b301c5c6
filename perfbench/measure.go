package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"mlpart"
)

// measured is what the timed window of one run produced.
type measured struct {
	attempted, failed int
	latMS             []float64 // every request of the window
	computeMS         []float64 // X-Compute-Ns per verified request (partition workloads)
	overheadMS        []float64 // latency minus X-Compute-Ns, same requests
	phaseMS           []float64 // traced run: engine phase time the daemon's trace reports
	phaseGapMS        []float64 // traced run: X-Compute-Ns minus phaseMS, same request
	throughput        float64
	peakRSS           float64
	setupS            float64

	// Quality over the deterministic prefix, in request order when no
	// request failed.
	prefixCut     []float64
	prefixBalance []float64

	// Daemon counters over the window (deltas of /varz).
	cacheHits, cacheMisses, degraded, rejected int64

	// Session workload.
	tierLatMS   map[string][]float64 // batch latency grouped by last_repair
	prefixTiers map[string]int       // repairs by tier over the prefix
	residentMB  float64
	cutDrift    float64
}

// e2e returns the end-to-end metrics by name.
func (m *measured) e2e() map[string]float64 {
	_, tl, _ := tail(m.latMS)
	return map[string]float64{
		"setup_s":         m.setupS,
		"latency_p50_ms":  median(m.latMS),
		"latency_tail_ms": tl,
		"throughput_rps":  m.throughput,
		"edge_cut":        mean(m.prefixCut),
		"balance_max":     maxOf(m.prefixBalance),
		"peak_rss_mb":     m.peakRSS,
	}
}

func (m *measured) errorRate() float64 {
	return float64(m.failed) / float64(m.attempted)
}

// balanceViolationRate is the share of prefix results whose balance
// exceeds the requested ubfactor.
func (m *measured) balanceViolationRate() float64 {
	if len(m.prefixBalance) == 0 {
		return 0
	}
	v := 0
	for _, b := range m.prefixBalance {
		if b > ubfactor+1e-9 {
			v++
		}
	}
	return float64(v) / float64(len(m.prefixBalance))
}

func measurePartition(ctx context.Context, cfg config, e *env, sp *spans) (*measured, error) {
	if err := warmPartition(ctx, e.d, e.pb, cfg.seed); err != nil {
		return nil, err
	}
	before, err := e.d.varz(ctx)
	if err != nil {
		return nil, err
	}
	samples, elapsed := partitionLoop(ctx, e.d, e.pb, cfg.seed, cfg.window)
	after, err := e.d.varz(ctx)
	if err != nil {
		return nil, err
	}
	m := &measured{
		attempted:   len(samples),
		throughput:  float64(len(samples)) / elapsed.Seconds(),
		cacheHits:   after.Cache.Hits - before.Cache.Hits,
		cacheMisses: after.Cache.Misses - before.Cache.Misses,
		degraded:    after.DegradedResults - before.DegradedResults,
		rejected:    after.Rejected - before.Rejected,
	}
	// Responses are checked after the window so checking never competes
	// with the daemon for the CPU.
	for _, s := range samples {
		sp.add("service.request", fmt.Sprintf("h%d", s.idx), 0, s.start, s.start.Add(s.latency))
		m.latMS = append(m.latMS, ms(s.latency.Nanoseconds()))
		r, err := checkPartitionSample(e, s)
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d failed verification: %v\n", s.idx, err)
			continue
		}
		m.computeMS = append(m.computeMS, ms(s.computeNS))
		m.overheadMS = append(m.overheadMS, ms(s.latency.Nanoseconds()-s.computeNS))
		if s.idx < cfg.w.prefix {
			m.prefixCut = append(m.prefixCut, float64(r.EdgeCut))
			m.prefixBalance = append(m.prefixBalance, r.Balance)
		}
	}
	return m, nil
}

// checkPartitionSample decodes and verifies one partition response. A
// refused or failed request, a cache hit (every seed is distinct, so a
// hit means a wrong cache key) and a result that fails verification all
// count as failures.
func checkPartitionSample(e *env, s sample) (*mlpart.PartitionResponse, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", s.status, s.body)
	}
	if s.cache != "miss" || s.computeNS <= 0 {
		return nil, fmt.Errorf("X-Cache %q X-Compute-Ns %d on a distinct seed", s.cache, s.computeNS)
	}
	var r mlpart.PartitionResponse
	if err := json.Unmarshal(s.body, &r); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if err := verifyPartition(e.g, K, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func measureSession(ctx context.Context, cfg config, e *env, sp *spans) (*measured, error) {
	ds := &deltaStream{g: e.g, seed: cfg.seed}
	id := e.session.ID
	n, total := e.g.NumVertices(), totalWeight(e.g)
	// Warm-up: pair 0, outside the window and the counters.
	if _, _, err := sessionLoop(ctx, e.d, ds, id, 0, 2, 0); err != nil {
		return nil, err
	}
	before, err := e.d.varz(ctx)
	if err != nil {
		return nil, err
	}
	samples, elapsed, err := sessionLoop(ctx, e.d, ds, id, 2, cfg.w.prefix, cfg.window)
	if err != nil {
		return nil, err
	}
	after, err := e.d.varz(ctx)
	if err != nil {
		return nil, err
	}
	m := &measured{
		attempted:   len(samples),
		throughput:  float64(len(samples)) / elapsed.Seconds(),
		tierLatMS:   map[string][]float64{},
		prefixTiers: map[string]int{},
		rejected:    after.Rejected - before.Rejected,
		residentMB:  float64(after.Sessions.ResidentBytes) / (1 << 20),
	}
	windowTiers := map[string]int64{}
	for _, s := range samples {
		sp.add("service.request", fmt.Sprintf("h%d", s.idx), 0, s.start, s.start.Add(s.latency))
		lat := ms(s.latency.Nanoseconds())
		m.latMS = append(m.latMS, lat)
		batchTotal := total + ds.weightShift(2+s.idx)
		r, err := checkSessionSample(id, n, batchTotal, s)
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: batch %d failed verification: %v\n", s.idx, err)
			continue
		}
		m.tierLatMS[r.LastRepair] = append(m.tierLatMS[r.LastRepair], lat)
		windowTiers[r.LastRepair]++
		if s.idx < cfg.w.prefix {
			m.prefixCut = append(m.prefixCut, float64(r.EdgeCut))
			m.prefixBalance = append(m.prefixBalance, r.Balance)
			m.prefixTiers[r.LastRepair]++
			if s.idx == cfg.w.prefix-1 {
				m.cutDrift = float64(r.EdgeCut) / float64(r.BaselineCut)
			}
		}
	}
	// The daemon's own repair counters must agree with the tiers the
	// replies reported.
	rp := after.Sessions.Repairs
	bp := before.Sessions.Repairs
	got := map[string]int64{"boundary": rp.Boundary - bp.Boundary, "full": rp.Full - bp.Full, "vcycle": rp.VCycle - bp.VCycle}
	for tier, c := range got {
		if c != windowTiers[tier] {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: /varz counts %d %s repairs, replies report %d\n", c, tier, windowTiers[tier])
		}
	}
	if n := after.Sessions.WALErrors - before.Sessions.WALErrors; n != 0 {
		m.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %d delta-log write errors during the window\n", n)
	}
	if err := verifySessionWhere(ctx, e, id); err != nil {
		m.failed++
		fmt.Fprintf(os.Stderr, "perfbench: final session partition failed verification: %v\n", err)
	}
	return m, nil
}

func checkSessionSample(id string, n, total int, s sample) (*mlpart.SessionResponse, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", s.status, s.body)
	}
	var r mlpart.SessionResponse
	if err := json.Unmarshal(s.body, &r); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if err := verifySession(id, n, total, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// verifySessionWhere fetches the session's partition after the stream
// has returned the graph to its generated form and checks it against
// that graph: parts in range, the recomputed cut and part weights.
func verifySessionWhere(ctx context.Context, e *env, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.d.base+"/v1/graphs/"+id+"?where=1", nil)
	if err != nil {
		return err
	}
	resp, err := e.d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET session: status %d", resp.StatusCode)
	}
	var r mlpart.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return fmt.Errorf("decode session: %w", err)
	}
	pw, err := partWeights(e.g, r.Where, K)
	if err != nil {
		return err
	}
	if cut := cutOf(e.g, r.Where); cut != r.EdgeCut {
		return fmt.Errorf("edge_cut %d reported, where gives %d on the generated graph", r.EdgeCut, cut)
	}
	if errs := checkWeights(r.PartWeights, K, pw, r.Balance, totalWeight(e.g)); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
