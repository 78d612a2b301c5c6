package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mlpart"
)

// sample is one request of the closed loop, as the client saw it.
type sample struct {
	idx       int
	start     time.Time
	latency   time.Duration
	status    int
	computeNS int64  // X-Compute-Ns, 0 when absent
	cache     string // X-Cache
	body      []byte
	err       error
}

// post sends one request and reads the whole response; latency runs from
// just before the request is written to the last body byte read.
func post(ctx context.Context, c *http.Client, url, ctype string, body io.Reader, size int64) sample {
	var s sample
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		s.err = err
		return s
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", ctype)
	s.start = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		s.latency = time.Since(s.start)
		s.err = err
		return s
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(s.start)
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	if v := resp.Header.Get("X-Compute-Ns"); v != "" {
		s.computeNS, _ = strconv.ParseInt(v, 10, 64)
	}
	return s
}

// partitionLoop runs w.clients closed-loop clients. Client requests take
// consecutive indices from one counter; request i carries seed
// requestSeed(seed, i). Clients stop taking new indices once the window
// has elapsed and the prefix has been handed out; requests already sent
// complete. The returned samples are ordered by index.
func partitionLoop(ctx context.Context, d *daemon, pb *partitionBody, seed int64, window time.Duration) ([]sample, time.Duration) {
	w := pb.w
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= w.prefix && time.Since(start) >= window {
					return
				}
				path, ctype, body, size := pb.request(requestSeed(seed, i))
				s := post(ctx, d.http, d.base+path, ctype, body, size)
				s.idx = i
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out, elapsed
}

// warmPartition sends one request per client, concurrently, with seeds
// no timed request uses, so lazy set-up in the daemon is paid before the
// window opens.
func warmPartition(ctx context.Context, d *daemon, pb *partitionBody, seed int64) error {
	errs := make([]error, pb.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < pb.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			path, ctype, body, size := pb.request(requestSeed(seed, -1-c))
			if s := post(ctx, d.http, d.base+path, ctype, body, size); s.err != nil || s.status != http.StatusOK {
				errs[c] = fmt.Errorf("warm-up request: status %d: %v %s", s.status, s.err, s.body)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sessionLoop streams delta batches into session id from one client,
// starting at batch first. It stops once the window has elapsed, at least
// prefix batches are done and the last pair is complete, so the graph is
// the generated one again when it returns.
func sessionLoop(ctx context.Context, d *daemon, ds *deltaStream, id string, first, prefix int, window time.Duration) ([]sample, time.Duration, error) {
	var out []sample
	start := time.Now()
	for i := first; ; i++ {
		n := i - first
		if n >= prefix && n%2 == 0 && time.Since(start) >= window {
			break
		}
		body, err := json.Marshal(mlpart.SessionDeltaRequest{Ops: ds.batch(i)})
		if err != nil {
			return nil, 0, fmt.Errorf("encode batch %d: %w", i, err)
		}
		s := post(ctx, d.http, d.base+"/v1/graphs/"+id+"/edges", mlpart.ContentTypeJSON, bytes.NewReader(body), int64(len(body)))
		s.idx = n
		out = append(out, s)
		if ctx.Err() != nil {
			return out, time.Since(start), ctx.Err()
		}
	}
	return out, time.Since(start), nil
}
