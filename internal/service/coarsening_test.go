package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"mlpart"
)

// TestCapabilitiesEndpoint checks GET /v1/capabilities returns the live
// registry document: every coarsening scheme with its family, plus the
// init / refinement / preset / workload / fault-site lists.
func TestCapabilitiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var cr mlpart.CapabilitiesResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if cr.Kind != mlpart.WireKindCapabilities {
		t.Errorf("kind = %q, want %q", cr.Kind, mlpart.WireKindCapabilities)
	}
	if len(cr.CoarseningSchemes) != len(mlpart.CoarseningSchemes()) {
		t.Fatalf("got %d coarsening schemes, registry has %d",
			len(cr.CoarseningSchemes), len(mlpart.CoarseningSchemes()))
	}
	families := map[string]string{}
	for _, s := range cr.CoarseningSchemes {
		if s.Description == "" {
			t.Errorf("scheme %s: empty description", s.Name)
		}
		families[s.Name] = s.Family
	}
	if families[mlpart.MatchHEM] != mlpart.FamilyMatching {
		t.Errorf("HEM family = %q, want %q", families[mlpart.MatchHEM], mlpart.FamilyMatching)
	}
	if families[mlpart.MatchGCLP] != mlpart.FamilyAggregation {
		t.Errorf("GCLP family = %q, want %q", families[mlpart.MatchGCLP], mlpart.FamilyAggregation)
	}
	if len(cr.InitMethods) == 0 || len(cr.Refinements) == 0 || len(cr.Presets) == 0 ||
		len(cr.Orderings) == 0 || len(cr.Workloads) == 0 || len(cr.FaultSites) == 0 {
		t.Errorf("capability lists incomplete: %+v", cr)
	}

	// The SDK client wraps the same endpoint.
	c := sdk(ts, ts.URL)
	got, err := c.Capabilities(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CoarseningSchemes) != len(cr.CoarseningSchemes) {
		t.Errorf("SDK capabilities disagree with raw endpoint")
	}

	// Read-only endpoint: POST is rejected.
	resp2, err := ts.Client().Post(ts.URL+"/v1/capabilities", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/capabilities: status %d, want 405", resp2.StatusCode)
	}
}

// TestCoarseningAliasSharesCache is the deprecation contract for the
// `matching` field: a request phrased with the structured `coarsening`
// block must hit the cache entry created by the legacy alias and return a
// byte-identical response (and vice versa for case variants).
func TestCoarseningAliasSharesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(16, 16)

	respA, dataA := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: wg, K: 4, Options: &mlpart.Options{Seed: 7, Matching: mlpart.MatchHEM},
	})
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("matching request: status %d: %s", respA.StatusCode, dataA)
	}
	if got := respA.Header.Get("X-Cache"); got == "hit" {
		t.Fatalf("first request: X-Cache = %q, want miss", got)
	}

	for _, scheme := range []string{"HEM", "hem"} {
		respB, dataB := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
			Graph: wg, K: 4, Options: &mlpart.Options{
				Seed:       7,
				Coarsening: &mlpart.CoarseningOptions{Scheme: scheme},
			},
		})
		if respB.StatusCode != http.StatusOK {
			t.Fatalf("coarsening %q: status %d: %s", scheme, respB.StatusCode, dataB)
		}
		if got := respB.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("coarsening %q after matching request: X-Cache = %q, want hit", scheme, got)
		}
		if !bytes.Equal(dataA, dataB) {
			t.Errorf("coarsening %q response differs from matching response:\n%s\nvs\n%s",
				scheme, dataB, dataA)
		}
	}
}

// TestCoarsenWorkersSharesCache: coarsen_workers is scheduling only, so it
// stays out of the cache key. One partition request sent with 0, 1 and 4
// coarsening workers makes a single cache entry, and every reply after the
// first is a byte-identical hit.
func TestCoarsenWorkersSharesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	wg := gridGraph(16, 16)
	var first []byte
	for i, workers := range []int{0, 1, 4} {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
			Graph: wg, K: 4, Options: &mlpart.Options{Seed: 7, CoarsenWorkers: workers},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("coarsen_workers=%d: status %d: %s", workers, resp.StatusCode, data)
		}
		if i == 0 {
			first = data
			continue
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("coarsen_workers=%d: X-Cache = %q, want hit", workers, got)
		}
		if !bytes.Equal(data, first) {
			t.Errorf("coarsen_workers=%d: response differs from the first:\n%s\nvs\n%s", workers, data, first)
		}
	}
	if n := s.cache.len(); n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}
}

// TestGCLPPartitionAndCacheKey checks GCLP requests work end to end and
// that the GCLP knobs are part of the cache identity (different cap =>
// different entry), while a repeat with identical knobs hits. The explicit
// caps are chosen so GCLP finishes without a stall on this grid: a stalled
// run records a GCLP->HEM degradation and degraded responses are
// deliberately never cached.
func TestGCLPPartitionAndCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(16, 16)
	req := func(mcw int) mlpart.PartitionRequest {
		return mlpart.PartitionRequest{
			Graph: wg, K: 4, Options: &mlpart.Options{
				Seed:       7,
				Coarsening: &mlpart.CoarseningOptions{Scheme: mlpart.MatchGCLP, MaxClusterWeight: mcw},
			},
		}
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req(8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GCLP: status %d: %s", resp.StatusCode, data)
	}
	var pr mlpart.PartitionResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Where) != 256 {
		t.Fatalf("where length %d", len(pr.Where))
	}

	resp2, _ := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req(8))
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("identical GCLP request: X-Cache = %q, want hit", got)
	}
	resp3, data3 := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req(32))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GCLP mcw=32: status %d: %s", resp3.StatusCode, data3)
	}
	if got := resp3.Header.Get("X-Cache"); got == "hit" {
		t.Errorf("different max_cluster_weight: X-Cache = hit, want miss")
	}
}

// TestUnknownSchemeRejected checks that a bogus scheme (or misapplied GCLP
// knobs) is a client error — 400, never 500 — on every entry point: the
// synchronous JSON endpoints, the async job submission, and the binary CSR
// query path.
func TestUnknownSchemeRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(8, 8)
	bad := &mlpart.Options{Matching: "BOGUS"}

	check := func(name string, resp *http.Response, data []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
		var er mlpart.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Error == "" {
			t.Errorf("%s: malformed error body: %s", name, data)
		}
	}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: wg, K: 2, Options: bad,
	})
	check("partition", resp, data)

	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/order", mlpart.OrderRequest{
		Graph: wg, Options: bad,
	})
	check("order", resp, data)

	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/jobs?type=partition", mlpart.PartitionRequest{
		Graph: wg, K: 2, Options: bad,
	})
	check("jobs", resp, data)

	resp, data = postBinary(t, ts.Client(),
		ts.URL+"/v1/partition?k=2&coarsening=BOGUS", binaryBody(t, wg, nil))
	check("binary query", resp, data)

	// Scheme disagreement between the alias and the structured field.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: wg, K: 2, Options: &mlpart.Options{
			Matching:   mlpart.MatchHEM,
			Coarsening: &mlpart.CoarseningOptions{Scheme: mlpart.MatchRM},
		},
	})
	check("alias disagreement", resp, data)

	// GCLP-only knobs on a matching scheme.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: wg, K: 2, Options: &mlpart.Options{
			Coarsening: &mlpart.CoarseningOptions{Scheme: mlpart.MatchHEM, LPRounds: 4},
		},
	})
	check("knobs on matching scheme", resp, data)

	resp, data = postBinary(t, ts.Client(),
		ts.URL+"/v1/partition?k=2&coarsening=GCLP&lp_rounds=-1", binaryBody(t, wg, nil))
	check("negative knob", resp, data)
}
