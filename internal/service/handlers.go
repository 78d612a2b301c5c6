package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"mlpart"
	"mlpart/internal/faults"
	"mlpart/internal/jobs"
	"mlpart/internal/trace"
)

// Endpoint names as they appear in /varz.
const (
	epPartition   = "partition"
	epOrder       = "order"
	epRepartition = "repartition"
)

// job is one decoded, validated compute request.
type job interface {
	// key returns the result-cache key.
	key() string
	// timeoutMS is the client's requested budget (0 = server default).
	timeoutMS() int64
	// run computes the response object. tr and inj may be nil;
	// implementations must honor ctx (directly or via the engine's
	// level-boundary checks) and thread inj into the computation.
	run(ctx context.Context, tr mlpart.Tracer, inj *mlpart.FaultInjector) (any, error)
}

// presetJob is implemented by jobs that carry a quality preset (see
// mlpart.Options.Preset); serveCompute counts each accepted request under
// its preset in /varz.
type presetJob interface{ preset() string }

// codec is one endpoint's pair of request decoders, selected by the
// request's Content-Type: the JSON decoder streams the body, the binary
// one gets the whole body and the URL query, which carries the non-graph
// request fields.
type codec[T any] struct {
	json   func(dec *json.Decoder) (T, error)
	binary func(data []byte, q url.Values) (T, error)
}

// The compute endpoints' codecs, shared by the synchronous endpoints and
// job submission.
var (
	partitionCodec   = codec[job]{json: decodePartition, binary: decodePartitionBinary}
	orderCodec       = codec[job]{json: decodeOrder, binary: decodeOrderBinary}
	repartitionCodec = codec[job]{json: decodeRepartition, binary: decodeRepartitionBinary}
)

// mediaType negotiates the request's Content-Type (see binaryRequest). An
// unsupported one is answered 415 here; its own counter separates "client
// speaks the wrong encoding" from generic bad requests in /varz.
func (s *Server) mediaType(w http.ResponseWriter, r *http.Request) (binary, ok bool) {
	binary, err := binaryRequest(r)
	if err != nil {
		s.met.unsupportedMedia.Add(1)
		writeError(w, http.StatusUnsupportedMediaType,
			"%v (want %q or %q)", err, mlpart.ContentTypeJSON, mlpart.ContentTypeBinaryCSR)
		return false, false
	}
	return binary, true
}

// readBody is the one request-body reader of compute requests, job
// submissions and session creation: it reads r's body under the
// MaxBodyBytes cap and decodes it with c's decoder for the encoding
// mediaType negotiated. A read or decode failure is answered 400 here and
// counted as a bad request.
func readBody[T any](s *Server, w http.ResponseWriter, r *http.Request, binary bool, c codec[T]) (T, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var v T
	var err error
	if binary {
		data, rerr := io.ReadAll(r.Body)
		if rerr != nil {
			s.met.badReqs.Add(1)
			writeError(w, http.StatusBadRequest, "read body: %v", rerr)
			return v, false
		}
		v, err = c.binary(data, r.URL.Query())
	} else {
		v, err = c.json(json.NewDecoder(r.Body))
	}
	if err != nil {
		s.met.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return v, false
	}
	return v, true
}

// cacheKey returns j's result-cache key, or "" when the result must stay
// out of the cache: tracing bypasses it in both directions, since a
// trace describes one particular execution.
func cacheKey(j job, wantTrace bool) string {
	if wantTrace {
		return ""
	}
	return j.key()
}

// serveCompute is the request path of the three synchronous compute
// endpoints: admission control, decode, cache lookup, worker acquisition
// under the request deadline, execute, reply.
func (s *Server) serveCompute(w http.ResponseWriter, r *http.Request, ep string, c codec[job]) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path)
		return
	}
	epm := s.met.endpoints[ep]
	epm.requests.Add(1)
	start := time.Now()

	// Content negotiation happens before admission: an unsupported media
	// type is a protocol error the daemon can refuse without spending a
	// queue slot.
	binary, ok := s.mediaType(w, r)
	if !ok {
		return
	}

	// Stage 1: admission. No token, no work — shed immediately so load
	// beyond workers+queue degrades into fast 429s, not memory growth.
	if !s.pool.tryAdmit() {
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"saturated: %d computing and up to %d queued; retry later",
			s.pool.workers(), s.pool.queueCapacity())
		return
	}
	s.met.admitted.Add(1)
	defer s.pool.releaseAdmit()
	s.met.queued.Add(1)
	inQueue := true
	dequeue := func() {
		if inQueue {
			inQueue = false
			s.met.queued.Add(-1)
		}
	}
	defer dequeue()

	// Decoding (including the zero-copy binary decode and its fused
	// validation) runs here, outside the worker slot: a malformed body
	// never costs compute capacity.
	j, ok := readBody(s, w, r, binary, c)
	if !ok {
		return
	}
	if pj, ok := j.(presetJob); ok {
		s.met.countPreset(pj.preset())
	}
	wantTrace := r.URL.Query().Get("trace") == "1"

	key := cacheKey(j, wantTrace)
	if key != "" {
		if body, ok := s.cache.get(key); ok {
			s.met.cacheHits.Add(1)
			epm.completed.Add(1)
			epm.latency.observe(time.Since(start))
			reply(w, outcome{status: http.StatusOK, body: body, cache: "hit"})
			return
		}
		s.met.cacheMisses.Add(1)
	}

	// Stage 2: wait for a worker slot. The sync deadline starts before
	// the wait, so a request whose deadline passes while queued aborts
	// here without ever entering the pool; the context also fires when
	// the client disconnects.
	ctx, cancel := context.WithTimeout(r.Context(), s.budget(j))
	defer cancel()
	if err := s.pool.acquire(ctx); err != nil {
		reply(w, s.aborted(ctx, err))
		return
	}
	dequeue()
	s.met.inFlight.Add(1)
	defer func() {
		s.met.inFlight.Add(-1)
		s.pool.release()
	}()
	s.met.started.Add(1)

	out := s.execute(ctx, j, faults.SiteServiceWorker, key, wantTrace, nil)
	if out.status == http.StatusOK {
		epm.completed.Add(1)
		epm.latency.observe(time.Since(start))
	}
	reply(w, out)
}

// outcome is one execution's reply in transport-neutral form: the sync
// path writes it (reply), a job runner stores it (finishJob).
type outcome struct {
	status int
	// body is the encoded wire result or error, newline-terminated.
	body []byte
	// incident is the id of a 500, logged server-side with the detail.
	incident string
	// errText is the short failure text a failed job records.
	errText string
	// cache is a result's X-Cache status: "hit", "miss", or "bypass"
	// for a traced run; "" on failures.
	cache string
	// computeNS is the wall time of the guarded run alone.
	computeNS int64
	// canceled: the parent context was canceled (a vanished client, a
	// DELETEd job), so nobody is left to reply to.
	canceled bool
}

// budget is a request's compute deadline: the client's timeout_ms,
// clamped by the server ceiling.
func (s *Server) budget(j job) time.Duration {
	timeout := s.cfg.Timeout
	if ms := j.timeoutMS(); ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return timeout
}

// execute is the one execution path of synchronous requests and async
// jobs; the caller holds a worker slot. It applies the request deadline,
// runs j behind the panic and fault-injection boundary at site, maps
// failures to their wire errors, and encodes, caches and (for a traced
// run) wraps the result. key is the result-cache key ("" keeps the result
// out of the cache); jb, non-nil for an async job, adds the job's
// started/done events to a traced run.
func (s *Server) execute(ctx context.Context, j job, site string, key string, wantTrace bool, jb *jobs.Job) outcome {
	// The deadline starts here. A sync request applied the same clamp
	// before its slot wait; re-applying it cannot extend that deadline.
	ctx, cancel := context.WithTimeout(ctx, s.budget(j))
	defer cancel()
	if s.hookCompute != nil {
		s.hookCompute(ctx)
	}

	var collector *mlpart.TraceCollector
	var tracer mlpart.Tracer
	if wantTrace {
		collector = &mlpart.TraceCollector{}
		tracer = collector
		if jb != nil {
			snap := jb.Snapshot()
			collector.Event(mlpart.TraceEvent{
				Kind: trace.KindJob, Phase: "started", Job: jb.ID(),
				ElapsedNS: snap.Started.Sub(snap.Submitted).Nanoseconds(),
			})
		}
	}

	// The panic boundary: site's injector fires first (so a plan can
	// poison this path itself), then the job runs with any panic —
	// injected or organic — recovered into a typed *faults.PanicError
	// instead of unwinding into net/http, whose own recover would kill
	// the connection without a reply, or out of a job goroutine.
	var resp any
	computeStart := time.Now()
	err := faults.Boundary(site, func() error {
		if ierr := s.inj.Fire(site); ierr != nil {
			return ierr
		}
		var rerr error
		resp, rerr = j.run(ctx, tracer, s.inj)
		return rerr
	})
	computeNS := time.Since(computeStart).Nanoseconds()
	if err != nil {
		var out outcome
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			out = s.aborted(ctx, err)
		} else {
			out = s.computeFailure(err)
		}
		out.computeNS = computeNS
		return out
	}
	if degradedResponse(resp) {
		// A degraded result is valid but execution-specific (it reflects
		// transient fault state); count it and keep it out of the cache so
		// a later identical request gets a clean run.
		s.met.degraded.Add(1)
		key = ""
	}

	body, err := json.Marshal(resp)
	if err != nil {
		s.met.errors.Add(1)
		return outcome{status: http.StatusInternalServerError, body: errorBody("encode: %v", err),
			errText: "encode failure", computeNS: computeNS}
	}
	body = append(body, '\n')
	if key != "" {
		s.cache.put(key, body)
	}
	if !wantTrace {
		return outcome{status: http.StatusOK, body: body, cache: "miss", computeNS: computeNS}
	}

	if jb != nil {
		collector.Event(mlpart.TraceEvent{
			Kind: trace.KindJob, Phase: "done", Job: jb.ID(), ElapsedNS: computeNS,
		})
	}
	env := struct {
		Result json.RawMessage     `json:"result"`
		Trace  []mlpart.TraceEvent `json:"trace"`
	}{
		Result: json.RawMessage(bytes.TrimRight(body, "\n")),
		Trace:  collector.Events(),
	}
	tb, err := json.Marshal(env)
	if err != nil {
		s.met.errors.Add(1)
		return outcome{status: http.StatusInternalServerError, body: errorBody("encode trace: %v", err),
			errText: "encode failure", computeNS: computeNS}
	}
	return outcome{status: http.StatusOK, body: append(tb, '\n'), cache: "bypass", computeNS: computeNS}
}

// aborted classifies a context-terminated wait or run: a canceled parent
// (a vanished client, a DELETEd job) gets no reply and a "canceled"
// count, an expired deadline a 504.
func (s *Server) aborted(ctx context.Context, err error) outcome {
	if errors.Is(ctx.Err(), context.Canceled) {
		s.met.canceled.Add(1)
		return outcome{canceled: true}
	}
	s.met.timedOut.Add(1)
	return outcome{status: http.StatusGatewayTimeout, body: errorBody("deadline exceeded: %v", err),
		errText: "deadline exceeded"}
}

// computeFailure maps a non-context compute error to the reply the
// daemon sends, bumping the same counters and incident log whether the
// computation ran synchronously, as an async job or inside a session — a
// failed job replays byte-for-byte the error the synchronous endpoint
// would have sent.
//
// A recovered panic or an injected infrastructure fault is the server's
// failure, not the client's: 500 with an incident id, detail logged
// server-side — the poisoned request must not take the daemon down.
// Everything else the engine rejects is a client error: 400.
func (s *Server) computeFailure(err error) outcome {
	var pe *faults.PanicError
	if errors.As(err, &pe) {
		s.met.panicsRecovered.Add(1)
		s.met.errors.Add(1)
		id := s.nextIncident()
		log.Printf("mlserved: incident %s: recovered panic at %s: %v\n%s", id, pe.Site, pe.Value, pe.Stack)
		return outcome{status: http.StatusInternalServerError, incident: id, errText: err.Error(),
			body: errorBody("internal error (incident %s): the request could not be completed", id)}
	}
	var ie *faults.InjectedError
	if errors.As(err, &ie) {
		s.met.errors.Add(1)
		id := s.nextIncident()
		log.Printf("mlserved: incident %s: %v", id, err)
		return outcome{status: http.StatusInternalServerError, incident: id, errText: err.Error(),
			body: errorBody("internal error (incident %s): %v", id, err)}
	}
	s.met.badReqs.Add(1)
	return outcome{status: http.StatusBadRequest, body: errorBody("%v", err), errText: err.Error()}
}

// degradedResponse reports whether a computed response took a
// graceful-degradation fallback.
func degradedResponse(resp any) bool {
	pr, ok := resp.(*mlpart.PartitionResponse)
	return ok && len(pr.Degradations) > 0
}

// reply writes a synchronous outcome; a canceled one gets no reply. A
// result's cache status and compute time travel as headers so that
// cached bodies stay byte-identical to cold ones.
func reply(w http.ResponseWriter, out outcome) {
	if out.canceled {
		return
	}
	if out.incident != "" {
		w.Header().Set("X-Incident-Id", out.incident)
	}
	if out.cache != "" {
		w.Header().Set("X-Cache", out.cache)
		if out.computeNS > 0 {
			w.Header().Set("X-Compute-Ns", strconv.FormatInt(out.computeNS, 10))
		}
	}
	writeBody(w, out.status, out.body)
}

// binaryRequest classifies the request's Content-Type: false for JSON
// (the default when the header is absent), true for the binary CSR
// encoding, an error for anything else — which mediaType turns into
// 415 Unsupported Media Type.
func binaryRequest(r *http.Request) (bool, error) {
	ctype := r.Header.Get("Content-Type")
	if ctype == "" {
		return false, nil
	}
	mt, _, err := mime.ParseMediaType(ctype)
	if err != nil {
		return false, fmt.Errorf("unparseable Content-Type %q", ctype)
	}
	switch mt {
	case mlpart.ContentTypeJSON:
		return false, nil
	case mlpart.ContentTypeBinaryCSR:
		return true, nil
	}
	return false, fmt.Errorf("unsupported Content-Type %q", mt)
}

// Query-parameter parsers for the binary request path. Each leaves dst
// untouched when the parameter is absent, so zero values keep meaning
// "server default" exactly as an omitted JSON field does.

func queryInt(q url.Values, name string, dst *int) error {
	s := q.Get(name)
	if s == "" {
		return nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("query %s=%q: not an integer", name, s)
	}
	*dst = v
	return nil
}

func queryInt64(q url.Values, name string, dst *int64) error {
	s := q.Get(name)
	if s == "" {
		return nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return fmt.Errorf("query %s=%q: not an integer", name, s)
	}
	*dst = v
	return nil
}

func queryFloat(q url.Values, name string, dst *float64) error {
	s := q.Get(name)
	if s == "" {
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("query %s=%q: not a number", name, s)
	}
	*dst = v
	return nil
}

func queryBool(q url.Values, name string, dst *bool) error {
	s := q.Get(name)
	if s == "" {
		return nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return fmt.Errorf("query %s=%q: not a boolean", name, s)
	}
	*dst = v
	return nil
}

// optionsFromQuery builds the mlpart.Options of a binary request from URL
// query parameters, one parameter per JSON option tag. Unknown parameters
// are ignored (they may belong to the endpoint, like k or method).
func optionsFromQuery(q url.Values) (*mlpart.Options, error) {
	o := &mlpart.Options{
		Matching:   q.Get("matching"),
		InitPart:   q.Get("init_part"),
		Refinement: q.Get("refinement"),
		Preset:     q.Get("preset"),
		Ordering:   q.Get("ordering"),
	}
	// The structured coarsening options travel as flat parameters; any of
	// the three present materializes the object (Validate then enforces the
	// same rules as the JSON form, e.g. GCLP-only knobs).
	if q.Get("coarsening") != "" || q.Get("max_cluster_weight") != "" || q.Get("lp_rounds") != "" {
		co := &mlpart.CoarseningOptions{Scheme: q.Get("coarsening")}
		if err := queryInt(q, "max_cluster_weight", &co.MaxClusterWeight); err != nil {
			return nil, err
		}
		if err := queryInt(q, "lp_rounds", &co.LPRounds); err != nil {
			return nil, err
		}
		o.Coarsening = co
	}
	for name, dst := range map[string]*int{
		"coarsen_to":            &o.CoarsenTo,
		"parallel_depth":        &o.ParallelDepth,
		"parallel_min_vertices": &o.ParallelMinVertices,
		"ncuts":                 &o.NCuts,
		"coarsen_workers":       &o.CoarsenWorkers,
		"refine_workers":        &o.RefineWorkers,
		"cycles":                &o.Cycles,
	} {
		if err := queryInt(q, name, dst); err != nil {
			return nil, err
		}
	}
	if err := queryFloat(q, "ubfactor", &o.Ubfactor); err != nil {
		return nil, err
	}
	if err := queryInt64(q, "seed", &o.Seed); err != nil {
		return nil, err
	}
	for name, dst := range map[string]*bool{
		"parallel":       &o.Parallel,
		"kway_refine":    &o.KWayRefine,
		"compress_graph": &o.CompressGraph,
	} {
		if err := queryBool(q, name, dst); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// cloneOptions returns a private copy of o (nil means defaults) so the
// server can install a per-request tracer without mutating the client's
// decoded options.
func cloneOptions(o *mlpart.Options) *mlpart.Options {
	c := mlpart.Options{}
	if o != nil {
		c = *o
	}
	return &c
}

// canonicalOptions renders the result-affecting options in defaulted
// form: requests that spell the defaults explicitly share cache entries
// with requests that omit them, and the scheduling-only knobs (Parallel,
// ParallelDepth, ParallelMinVertices, RefineWorkers — parity-tested to
// not change results) are excluded entirely. The preset/cycles pair is
// canonicalized to the *effective* cycle count, so preset=strong and
// cycles=4 share an entry while fast and strong never alias.
func canonicalOptions(o *mlpart.Options) string {
	cyc := o.EffectiveCycles()
	c := mlpart.Options{}
	if o != nil {
		c = *o
	}
	// The matching/coarsening pair canonicalizes through EffectiveCoarsening,
	// so the deprecated `matching` alias and the structured `coarsening`
	// field produce identical keys (and share cache entries). Validate
	// rejects unparseable configurations before any key is built; the
	// fallback below only keeps an impossible call stable.
	co, err := o.EffectiveCoarsening()
	if err != nil {
		co = mlpart.CoarseningOptions{Scheme: c.Matching}
	}
	if c.InitPart == "" {
		c.InitPart = mlpart.InitGGGP
	}
	if c.Refinement == "" {
		c.Refinement = mlpart.RefineBKLGR
	}
	if c.CoarsenTo == 0 {
		c.CoarsenTo = 100
	}
	if c.Ubfactor == 0 {
		c.Ubfactor = 1.05
	}
	if c.NCuts <= 1 {
		c.NCuts = 1
	}
	if c.CoarsenWorkers <= 1 {
		c.CoarsenWorkers = 1
	}
	if c.Ordering == "" {
		c.Ordering = mlpart.OrderingNone
	}
	key := fmt.Sprintf("m=%s i=%s r=%s ct=%d ub=%.17g s=%d kr=%t nc=%d cw=%d cg=%t ord=%s cyc=%d",
		co.Scheme, c.InitPart, c.Refinement, c.CoarsenTo, c.Ubfactor,
		c.Seed, c.KWayRefine, c.NCuts, c.CoarsenWorkers, c.CompressGraph, c.Ordering, cyc)
	if co.Scheme == mlpart.MatchGCLP {
		// GCLP's knobs change the result, so they join the key — but only
		// for GCLP, keeping every matching-family key byte-identical to
		// what previous releases produced.
		key += fmt.Sprintf(" mcw=%d lpr=%d", co.MaxClusterWeight, co.LPRounds)
	}
	return key
}

// hashInts is FNV-1a over an int slice (for the repartition key's
// incumbent vector).
func hashInts(xs []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range xs {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}

// --- /v1/partition ---

type partitionJob struct {
	req mlpart.PartitionRequest
	g   *mlpart.Graph
}

// newPartitionJob validates the non-graph fields shared by the JSON and
// binary encodings and builds the job.
func newPartitionJob(req mlpart.PartitionRequest, g *mlpart.Graph) (job, error) {
	if err := req.Options.Validate(); err != nil {
		return nil, fmt.Errorf("bad options: %v", err)
	}
	switch req.Method {
	case "", mlpart.MethodRecursive, mlpart.MethodKWay:
	default:
		return nil, fmt.Errorf("unknown method %q (want %q or %q)",
			req.Method, mlpart.MethodRecursive, mlpart.MethodKWay)
	}
	if len(req.Fractions) > 0 && req.Method == mlpart.MethodKWay {
		return nil, fmt.Errorf("fractions are incompatible with method %q", mlpart.MethodKWay)
	}
	if len(req.Fractions) == 0 && req.K < 1 {
		return nil, fmt.Errorf("k = %d, want >= 1 (or non-empty fractions)", req.K)
	}
	return &partitionJob{req: req, g: g}, nil
}

func decodePartition(dec *json.Decoder) (job, error) {
	var req mlpart.PartitionRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	g, err := req.Graph.ToGraph()
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	return newPartitionJob(req, g)
}

func decodePartitionBinary(data []byte, q url.Values) (job, error) {
	g, err := mlpart.DecodeBinaryGraph(data)
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	var req mlpart.PartitionRequest
	if req.Options, err = optionsFromQuery(q); err != nil {
		return nil, err
	}
	if err := queryInt(q, "k", &req.K); err != nil {
		return nil, err
	}
	req.Method = q.Get("method")
	if fr := q.Get("fractions"); fr != "" {
		for _, part := range strings.Split(fr, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, fmt.Errorf("query fractions=%q: bad fraction %q", fr, part)
			}
			req.Fractions = append(req.Fractions, f)
		}
	}
	if err := queryInt64(q, "timeout_ms", &req.TimeoutMS); err != nil {
		return nil, err
	}
	return newPartitionJob(req, g)
}

func (j *partitionJob) timeoutMS() int64 { return j.req.TimeoutMS }

// preset reports the request's quality preset for the varz counters,
// normalized by effective cycle count so `cycles=4` with no preset counts
// as strong and a custom count lands in its own bucket.
func (j *partitionJob) preset() string {
	switch j.req.Options.EffectiveCycles() {
	case 1:
		return mlpart.PresetFast
	case 2:
		return mlpart.PresetEco
	case 4:
		return mlpart.PresetStrong
	}
	return "custom"
}

func (j *partitionJob) key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|fp=%016x|%s|", epPartition, j.g.Fingerprint(), canonicalOptions(j.req.Options))
	if len(j.req.Fractions) > 0 {
		// Fractions are normalized by the engine; normalize the key the
		// same way so (2,1) and (4,2) share an entry.
		sum := 0.0
		for _, f := range j.req.Fractions {
			sum += f
		}
		sb.WriteString("frac=")
		for _, f := range j.req.Fractions {
			fmt.Fprintf(&sb, "%.17g,", f/sum)
		}
	} else {
		method := j.req.Method
		if method == "" {
			method = mlpart.MethodRecursive
		}
		fmt.Fprintf(&sb, "method=%s k=%d", method, j.req.K)
	}
	return sb.String()
}

func (j *partitionJob) run(ctx context.Context, tr mlpart.Tracer, inj *mlpart.FaultInjector) (any, error) {
	opts := cloneOptions(j.req.Options)
	opts.Tracer = tr
	opts.FaultInjector = inj
	var (
		res *mlpart.Partitioning
		err error
	)
	k := j.req.K
	switch {
	case len(j.req.Fractions) > 0:
		k = len(j.req.Fractions)
		res, err = mlpart.PartitionWeightedCtx(ctx, j.g, j.req.Fractions, opts)
	case j.req.Method == mlpart.MethodKWay:
		res, err = mlpart.PartitionDirectKWayCtx(ctx, j.g, k, opts)
	default:
		res, err = mlpart.PartitionCtx(ctx, j.g, k, opts)
	}
	if err != nil {
		return nil, err
	}
	return &mlpart.PartitionResponse{
		Kind:          mlpart.WireKindResult,
		SchemaVersion: mlpart.SchemaVersion,
		Vertices:      j.g.NumVertices(),
		Edges:         j.g.NumEdges(),
		K:             k,
		EdgeCut:       res.EdgeCut,
		Balance:       res.Balance(),
		PartWeights:   res.PartWeights,
		Where:         res.Where,
		Cycles:        res.Cycles,
		Degradations:  res.Degradations,
	}, nil
}

// --- /v1/order ---

type orderJob struct {
	req mlpart.OrderRequest
	g   *mlpart.Graph
}

// newOrderJob validates the non-graph fields shared by the JSON and
// binary encodings and builds the job.
func newOrderJob(req mlpart.OrderRequest, g *mlpart.Graph) (job, error) {
	if err := req.Options.Validate(); err != nil {
		return nil, fmt.Errorf("bad options: %v", err)
	}
	return &orderJob{req: req, g: g}, nil
}

func decodeOrder(dec *json.Decoder) (job, error) {
	var req mlpart.OrderRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	g, err := req.Graph.ToGraph()
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	return newOrderJob(req, g)
}

func decodeOrderBinary(data []byte, q url.Values) (job, error) {
	g, err := mlpart.DecodeBinaryGraph(data)
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	var req mlpart.OrderRequest
	if req.Options, err = optionsFromQuery(q); err != nil {
		return nil, err
	}
	if err := queryBool(q, "analyze", &req.Analyze); err != nil {
		return nil, err
	}
	if err := queryInt64(q, "timeout_ms", &req.TimeoutMS); err != nil {
		return nil, err
	}
	return newOrderJob(req, g)
}

func (j *orderJob) timeoutMS() int64 { return j.req.TimeoutMS }

func (j *orderJob) key() string {
	return fmt.Sprintf("%s|fp=%016x|%s|analyze=%t",
		epOrder, j.g.Fingerprint(), canonicalOptions(j.req.Options), j.req.Analyze)
}

func (j *orderJob) run(ctx context.Context, tr mlpart.Tracer, inj *mlpart.FaultInjector) (any, error) {
	opts := cloneOptions(j.req.Options)
	opts.Tracer = tr
	opts.FaultInjector = inj
	perm, iperm, err := mlpart.NestedDissectionCtx(ctx, j.g, opts)
	if err != nil {
		return nil, err
	}
	resp := &mlpart.OrderResponse{
		Kind:          mlpart.WireKindOrder,
		SchemaVersion: mlpart.SchemaVersion,
		Vertices:      j.g.NumVertices(),
		Edges:         j.g.NumEdges(),
		Perm:          perm,
		Iperm:         iperm,
	}
	if j.req.Analyze {
		stats, err := mlpart.AnalyzeOrdering(j.g, perm)
		if err != nil {
			return nil, err
		}
		resp.Analysis = stats
	}
	return resp, nil
}

// --- /v1/repartition ---

type repartitionJob struct {
	req mlpart.RepartitionRequest
	g   *mlpart.Graph
}

// newRepartitionJob validates the non-graph fields shared by the JSON
// and binary encodings and builds the job.
func newRepartitionJob(req mlpart.RepartitionRequest, g *mlpart.Graph) (job, error) {
	if err := req.Options.Validate(); err != nil {
		return nil, fmt.Errorf("bad options: %v", err)
	}
	return &repartitionJob{req: req, g: g}, nil
}

func decodeRepartition(dec *json.Decoder) (job, error) {
	var req mlpart.RepartitionRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	g, err := req.Graph.ToGraph()
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	return newRepartitionJob(req, g)
}

func decodeRepartitionBinary(data []byte, q url.Values) (job, error) {
	g, part, err := mlpart.DecodeBinaryGraphPart(data)
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	if part == nil {
		return nil, errors.New("repartition: binary body carries no part section " +
			"(encode the incumbent partition with WriteBinaryGraphPart)")
	}
	req := mlpart.RepartitionRequest{Where: part}
	if err := queryInt(q, "k", &req.K); err != nil {
		return nil, err
	}
	if err := queryInt64(q, "timeout_ms", &req.TimeoutMS); err != nil {
		return nil, err
	}
	o := &mlpart.RepartitionOptions{}
	if err := queryFloat(q, "ubfactor", &o.Ubfactor); err != nil {
		return nil, err
	}
	if err := queryFloat(q, "migration_weight", &o.MigrationWeight); err != nil {
		return nil, err
	}
	if err := queryInt64(q, "seed", &o.Seed); err != nil {
		return nil, err
	}
	req.Options = o
	return newRepartitionJob(req, g)
}

func (j *repartitionJob) timeoutMS() int64 { return j.req.TimeoutMS }

func (j *repartitionJob) key() string {
	o := mlpart.RepartitionOptions{}
	if j.req.Options != nil {
		o = *j.req.Options
	}
	if o.Ubfactor == 0 {
		o.Ubfactor = 1.05
	}
	if o.MigrationWeight == 0 {
		o.MigrationWeight = 1
	}
	return fmt.Sprintf("%s|fp=%016x|k=%d|ub=%.17g mw=%.17g s=%d|wh=%016x",
		epRepartition, j.g.Fingerprint(), j.req.K,
		o.Ubfactor, o.MigrationWeight, o.Seed, hashInts(j.req.Where))
}

func (j *repartitionJob) run(ctx context.Context, _ mlpart.Tracer, _ *mlpart.FaultInjector) (any, error) {
	// Repartition is a single sweep with no level boundaries to poll, so
	// it only honors the deadline up front; it is the cheapest of the
	// three computations by a wide margin.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := mlpart.Repartition(j.g, j.req.K, j.req.Where, j.req.Options)
	if err != nil {
		return nil, err
	}
	return &mlpart.RepartitionResponse{
		Kind:           mlpart.WireKindRepartition,
		SchemaVersion:  mlpart.SchemaVersion,
		Vertices:       j.g.NumVertices(),
		Edges:          j.g.NumEdges(),
		K:              j.req.K,
		EdgeCut:        res.EdgeCut,
		PartWeights:    res.PartWeights,
		Where:          res.Where,
		MigratedWeight: res.MigratedWeight,
	}, nil
}
