// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It builds its inputs from a workload seed, starts mlserved
// as a child process on loopback with default flags, drives it from one
// client process for a fixed window, checks every response, and prints
// one JSON result line:
//
//	perfbench -mlserved BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//
// perfbench/run.sh builds both binaries from the checkout and runs this
// command; README.md in this directory catalogues the workloads and
// metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mlpart"
	"mlpart/internal/graph"
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	mlserved string
	workdir  string
	w        *workload
	seed     int64
	window   time.Duration
	trace    bool
}

func main() {
	var (
		cfg     config
		name    string
		seconds int
		tr      int
	)
	flag.StringVar(&cfg.mlserved, "mlserved", "", "path to the mlserved binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for state, logs, spans and exact-gate records")
	flag.StringVar(&name, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&tr, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.Parse()
	w, err := findWorkload(name)
	if err != nil {
		fatal(err)
	}
	if cfg.mlserved == "" || seconds < 1 || (tr != 0 && tr != 1) {
		fatal(errors.New("need -mlserved, --seconds >= 1 and --trace 0|1"))
	}
	cfg.w, cfg.window, cfg.trace = w, time.Duration(seconds)*time.Second, tr == 1
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	stopAllOnSignal()
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// env is what set-up produces for the measured phase.
type env struct {
	g       *graph.Graph
	d       *daemon
	pb      *partitionBody // partition workloads
	csrb    []byte         // session workloads: the create body
	session *mlpart.SessionResponse
	state   string
}

// setup builds the graph, encodes the request body, starts the daemon
// and waits for /readyz, and creates the session for the session
// workload. Every step is recorded as a span.
func setup(cfg config, rep int, sp *spans, logw io.Writer) (*env, error) {
	e := &env{}
	root := sp.begin("setup", fmt.Sprintf("s%d", rep), 0)
	defer sp.end(root)
	s := sp.begin("setup.generate", root.Req, root.ID)
	e.g = genGraph(cfg.w.family)
	sp.end(s)
	s = sp.begin("setup.encode", root.Req, root.ID)
	var err error
	if cfg.w.kind == kindSession {
		e.csrb, err = encodeBinary(e.g)
	} else {
		e.pb, err = newPartitionBody(cfg.w, e.g)
	}
	sp.end(s)
	if err != nil {
		return nil, err
	}
	if cfg.w.kind == kindSession {
		e.state = filepath.Join(cfg.workdir, fmt.Sprintf("state-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(e.state); err != nil {
			return nil, err
		}
	}
	s = sp.begin("setup.daemon_start", root.Req, root.ID)
	e.d, err = startDaemon(cfg.mlserved, e.state, logw)
	sp.end(s)
	if err != nil {
		return nil, err
	}
	if cfg.w.kind == kindSession {
		s = sp.begin("setup.session_create", root.Req, root.ID)
		e.session, err = createSession(e.d, e.csrb, sessionSeed)
		sp.end(s)
		if err != nil {
			e.teardown()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) teardown() {
	if e.d != nil {
		e.d.stop()
	}
	if e.state != "" {
		os.RemoveAll(e.state)
	}
}

func createSession(d *daemon, csrb []byte, seed int64) (*mlpart.SessionResponse, error) {
	url := fmt.Sprintf("%s/v1/graphs?k=%d&seed=%d", d.base, K, seed)
	resp, err := d.http.Post(url, mlpart.ContentTypeBinaryCSR, bytes.NewReader(csrb))
	if err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("create session: status %d: %s", resp.StatusCode, body)
	}
	var sr mlpart.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	return &sr, nil
}

// run performs one benchmark run: set-up setupReps times (keeping the
// last daemon), the timed window, verification, and in trace mode the
// in-process layer measurements.
func run(cfg config) (*result, error) {
	logf, err := os.Create(filepath.Join(cfg.workdir, "mlserved.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	sp := newSpans()

	var e *env
	setupTimes := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if e != nil {
			e.teardown()
		}
		t0 := time.Now()
		if e, err = setup(cfg, rep, sp, logf); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer e.teardown()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.window+120*time.Second)
	defer cancel()
	var m *measured
	if cfg.w.kind == kindSession {
		m, err = measureSession(ctx, cfg, e, sp)
	} else {
		m, err = measurePartition(ctx, cfg, e, sp)
	}
	if err != nil {
		return nil, err
	}
	if m.peakRSS, err = e.d.peakRSSMB(); err != nil {
		return nil, err
	}
	if cfg.trace && cfg.w.kind == kindPartition && m.failed == 0 {
		if err := daemonPhaseGaps(ctx, cfg, e, m); err != nil {
			return nil, err
		}
	}
	e.teardown()
	e.d, e.state = nil, ""
	m.setupS = median(setupTimes)

	// A run with failed requests is reported as incorrect; its quality
	// metrics cover only the requests that passed, so they are neither
	// replayed in-process nor recorded by the exact gate.
	var layers map[string]float64
	if m.failed == 0 && cfg.trace {
		if layers, err = measureLayers(cfg, e, m, sp); err != nil {
			return nil, err
		}
	}
	var gateErr error
	if m.failed == 0 {
		if gateErr = exactGate(cfg, m, layers); gateErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: EXACT GATE FAILED:", gateErr)
		}
	}
	spanFile := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d-trace%d.jsonl", cfg.w.name, cfg.seed, boolInt(cfg.trace)))
	if err := sp.write(spanFile); err != nil {
		return nil, err
	}
	report(os.Stderr, cfg, m, layers, sp)

	res := &result{
		Correct:   m.failed == 0 && gateErr == nil,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	vals := m.e2e()
	if cfg.trace {
		vals = merge(windowLayers(m), layers)
	}
	for _, d := range catalogue {
		if d.perLayer == cfg.trace {
			res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
	}
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// merge returns the union of the maps; later maps win.
func merge(ms ...map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}
