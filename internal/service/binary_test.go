package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mlpart"
)

// binaryBody encodes a wire graph (and optional part vector) as a csrb
// request body.
func binaryBody(t *testing.T, wg mlpart.WireGraph, part []int) []byte {
	t.Helper()
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mlpart.WriteBinaryGraphPart(&buf, g, part); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postBinary(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, mlpart.ContentTypeBinaryCSR, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestBinaryPartitionMatchesJSON is the cache-sharing contract: the same
// graph and options must produce byte-identical results whether the graph
// arrives as JSON or as binary CSR, and the two encodings must share one
// cache entry (the key is the graph fingerprint, not the bytes on the
// wire).
func TestBinaryPartitionMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(16, 16)

	respJ, dataJ := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: wg, K: 4, Options: &mlpart.Options{Seed: 7},
	})
	if respJ.StatusCode != http.StatusOK {
		t.Fatalf("json status %d: %s", respJ.StatusCode, dataJ)
	}

	respB, dataB := postBinary(t, ts.Client(),
		ts.URL+"/v1/partition?k=4&seed=7", binaryBody(t, wg, nil))
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("binary status %d: %s", respB.StatusCode, dataB)
	}
	if !bytes.Equal(dataJ, dataB) {
		t.Errorf("binary response differs from JSON response:\n%s\nvs\n%s", dataB, dataJ)
	}
	if got := respB.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("binary request after identical JSON request: X-Cache = %q, want \"hit\"", got)
	}

	var pr mlpart.PartitionResponse
	if err := json.Unmarshal(dataB, &pr); err != nil {
		t.Fatal(err)
	}
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mlpart.Partition(g, 4, &mlpart.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pr.EdgeCut != want.EdgeCut {
		t.Errorf("edge cut %d via binary HTTP, %d via library", pr.EdgeCut, want.EdgeCut)
	}
}

func TestBinaryPartitionOptionsFromQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(12, 12)
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}

	// Direct k-way with an ordering: every option travels in the query.
	resp, data := postBinary(t, ts.Client(),
		ts.URL+"/v1/partition?k=8&method=kway&seed=3&refinement=BKWAY&ordering=degree",
		binaryBody(t, wg, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr mlpart.PartitionResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	want, err := mlpart.PartitionDirectKWay(g, 8, &mlpart.Options{
		Seed: 3, Refinement: mlpart.RefineBKWAY, Ordering: mlpart.OrderingDegree,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.EdgeCut != want.EdgeCut {
		t.Errorf("edge cut %d via HTTP, %d via library", pr.EdgeCut, want.EdgeCut)
	}
	for v := range want.Where {
		if pr.Where[v] != want.Where[v] {
			t.Fatalf("where[%d] = %d via HTTP, %d via library", v, pr.Where[v], want.Where[v])
		}
	}

	// Weighted fractions.
	resp, data = postBinary(t, ts.Client(),
		ts.URL+"/v1/partition?fractions=2,1,1", binaryBody(t, wg, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fractions status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.K != 3 {
		t.Errorf("weighted K = %d, want 3", pr.K)
	}
}

func TestBinaryOrderEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(10, 10)
	resp, data := postBinary(t, ts.Client(),
		ts.URL+"/v1/order?seed=5&analyze=1", binaryBody(t, wg, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var or mlpart.OrderResponse
	if err := json.Unmarshal(data, &or); err != nil {
		t.Fatal(err)
	}
	if or.Kind != mlpart.WireKindOrder || len(or.Perm) != 100 || or.Analysis == nil {
		t.Fatalf("unexpected order response: kind=%q len(perm)=%d analysis=%v",
			or.Kind, len(or.Perm), or.Analysis)
	}
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	wantPerm, _, err := mlpart.NestedDissection(g, &mlpart.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPerm {
		if or.Perm[i] != wantPerm[i] {
			t.Fatalf("perm[%d] = %d via HTTP, %d via library", i, or.Perm[i], wantPerm[i])
		}
	}
}

func TestBinaryRepartitionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(8, 8)
	// Incumbent: left/right halves.
	where := make([]int, 64)
	for v := range where {
		if v%8 >= 4 {
			where[v] = 1
		}
	}
	resp, data := postBinary(t, ts.Client(),
		ts.URL+"/v1/repartition?k=2&seed=1", binaryBody(t, wg, where))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rr mlpart.RepartitionResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Kind != mlpart.WireKindRepartition || rr.K != 2 || len(rr.Where) != 64 {
		t.Fatalf("unexpected repartition response: %+v", rr)
	}

	// A binary repartition body without a part section is a client error.
	resp, data = postBinary(t, ts.Client(),
		ts.URL+"/v1/repartition?k=2", binaryBody(t, wg, nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing part section: status %d, want 400: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "part section") {
		t.Errorf("error does not mention the part section: %s", data)
	}
}

func TestUnsupportedMediaType(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, ep := range []string{"/v1/partition", "/v1/order", "/v1/repartition"} {
		resp, err := ts.Client().Post(ts.URL+ep, "text/plain", strings.NewReader("hello"))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("%s: status %d, want 415: %s", ep, resp.StatusCode, data)
		}
		var er mlpart.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("%s: 415 body is not a wire error: %v\n%s", ep, err, data)
		}
		if er.Kind != mlpart.WireKindError || er.SchemaVersion != mlpart.SchemaVersion {
			t.Errorf("%s: malformed error response: %+v", ep, er)
		}
	}
	if got := s.met.unsupportedMedia.Load(); got != 3 {
		t.Errorf("unsupportedMedia counter = %d, want 3", got)
	}

	// The counter is exported through /varz.
	resp, err := ts.Client().Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v struct {
		UnsupportedMedia int64 `json:"unsupported_media_type"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.UnsupportedMedia != 3 {
		t.Errorf("/varz unsupported_media_type = %d, want 3", v.UnsupportedMedia)
	}
}

// TestMixedEncodingClientsShareCache hammers one server with concurrent
// JSON and binary clients asking for the same partition; run under -race
// it checks the decode paths and the shared cache for data races, and
// functionally it checks that every client sees the identical result.
func TestMixedEncodingClientsShareCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(12, 12)
	jsonBody, err := json.Marshal(mlpart.PartitionRequest{
		Graph: wg, K: 4, Options: &mlpart.Options{Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	binBody := binaryBody(t, wg, nil)

	const clients = 8
	cuts := make([]int, clients)
	var wgrp sync.WaitGroup
	for c := 0; c < clients; c++ {
		wgrp.Add(1)
		go func(c int) {
			defer wgrp.Done()
			for i := 0; i < 4; i++ {
				var resp *http.Response
				var err error
				var data []byte
				// Retry 429s: the default-sized pool may legitimately shed
				// under 8 concurrent clients; shedding is not a failure.
				for attempt := 0; attempt < 100; attempt++ {
					if (c+i)%2 == 0 {
						resp, err = ts.Client().Post(ts.URL+"/v1/partition",
							mlpart.ContentTypeJSON, bytes.NewReader(jsonBody))
					} else {
						resp, err = ts.Client().Post(ts.URL+"/v1/partition?k=4&seed=9",
							mlpart.ContentTypeBinaryCSR, bytes.NewReader(binBody))
					}
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					var rerr error
					data, rerr = io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil {
						t.Errorf("client %d: %v", c, rerr)
						return
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, data)
					return
				}
				var pr mlpart.PartitionResponse
				if err := json.Unmarshal(data, &pr); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				cuts[c] = pr.EdgeCut
			}
		}(c)
	}
	wgrp.Wait()
	for c := 1; c < clients; c++ {
		if cuts[c] != cuts[0] {
			t.Fatalf("client %d saw cut %d, client 0 saw %d", c, cuts[c], cuts[0])
		}
	}
}

// TestOneGraphOneCacheEntry sends one graph as canonical JSON (the
// one-pass WireGraph decoder), as JSON the reflection decoder handles
// (case-variant, escaped and unknown keys, odd whitespace) and as csrb:
// every encoding must land on the same fingerprint, so every request
// after the first is a byte-identical cache hit.
func TestOneGraphOneCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Non-unit weights, so an array lost or misplaced by one decoder
	// changes the fingerprint.
	wg := gridGraph(12, 12)
	for u := range wg.Vwgt {
		wg.Vwgt[u] = 1 + u%3
		for j := wg.Xadj[u]; j < wg.Xadj[u+1]; j++ {
			wg.Adjwgt[j] = 1 + (u+wg.Adjncy[j])%4
		}
	}
	arr := func(xs []int) string {
		b, err := json.Marshal(xs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	x, a, w, v := arr(wg.Xadj), arr(wg.Adjncy), arr(wg.Adjwgt), arr(wg.Vwgt)
	canonical, err := json.Marshal(mlpart.PartitionRequest{Graph: wg, K: 4, Options: &mlpart.Options{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	head := `{"k":4,"options":{"seed":9},"graph":`
	bodies := []struct {
		name, ctype, url, body string
	}{
		{"canonical", mlpart.ContentTypeJSON, "/v1/partition", string(canonical)},
		{"reordered", mlpart.ContentTypeJSON, "/v1/partition",
			head + "{\n\t\"vwgt\" : " + v + ",\r\n \"adjwgt\":" + w + " , \"adjncy\":" + a + ",\"xadj\":" + x + "\n}}"},
		{"case-variant", mlpart.ContentTypeJSON, "/v1/partition",
			head + `{"XADJ":` + x + `,"Adjncy":` + a + `,"adjwgt":` + w + `,"vwgt":` + v + `}}`},
		{"escaped-key", mlpart.ContentTypeJSON, "/v1/partition",
			head + `{"x\u0061dj":` + x + `,"adjncy":` + a + `,"adjwgt":` + w + `,"vwgt":` + v + `}}`},
		{"unknown-key", mlpart.ContentTypeJSON, "/v1/partition",
			head + `{"xadj":` + x + `,"adjncy":` + a + `,"name":"grid","adjwgt":` + w + `,"vwgt":` + v + `}}`},
		{"csrb", mlpart.ContentTypeBinaryCSR, "/v1/partition?k=4&seed=9", string(binaryBody(t, wg, nil))},
	}
	var first []byte
	for i, b := range bodies {
		resp, err := ts.Client().Post(ts.URL+b.url, b.ctype, strings.NewReader(b.body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", b.name, resp.StatusCode, data)
		}
		cache := resp.Header.Get("X-Cache")
		if i == 0 {
			if cache == "hit" {
				t.Fatalf("%s: first request was a cache hit", b.name)
			}
			first = data
			continue
		}
		if cache != "hit" {
			t.Errorf("%s: X-Cache = %q, want hit", b.name, cache)
		}
		if !bytes.Equal(data, first) {
			t.Errorf("%s: body differs from the first reply:\n%s\n%s", b.name, data, first)
		}
	}
}

// TestBinaryBadBodies spot-checks that corrupted binary payloads are
// client errors (400), never 5xx.
func TestBinaryBadBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good := binaryBody(t, gridGraph(4, 4), nil)
	for name, body := range map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-5],
		"garbage":   []byte("not a csrb payload at all"),
	} {
		resp, data := postBinary(t, ts.Client(), ts.URL+"/v1/partition?k=2", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, data)
		}
	}
}
