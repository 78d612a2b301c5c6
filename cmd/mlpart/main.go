// Command mlpart partitions a graph in METIS format into k parts with the
// multilevel scheme and reports the edge-cut, balance and timing. The
// partition vector (one part id per line, in vertex order) can be written
// with -o.
//
// Usage:
//
//	mlpart -k 32 [-match HEM] [-init GGGP] [-refine BKLGR] [-seed 0]
//	       [-max-cluster-weight N] [-lp-rounds N]
//	       [-parallel] [-ncuts 4] [-coarsen-workers 4] [-refine-workers 4] [-direct]
//	       [-weighted 4,2,1,1] [-ordering degree] [-stats] [-trace] [-json]
//	       [-timeout 30s] [-o out.part] graph.file(.graph, .mtx or .csrb)
//
// With -gen NAME the input file is replaced by a generated workload (see
// mlpart.WorkloadNames), e.g. `mlpart -k 32 -gen 4ELT`.
//
// -match accepts any registered coarsening scheme (run -help for the live
// list): the matching family (RM, HEM, LEM, HCM) plus the aggregation
// scheme GCLP, whose cluster size cap and round count are tuned with
// -max-cluster-weight and -lp-rounds.
//
// A `.csrb` input is the binary CSR format (docs/WIRE.md), memory-mapped
// and decoded zero-copy. With -convert OUT the loaded graph is written to
// OUT — format chosen by extension: .graph (METIS), .mtx (MatrixMarket)
// or .csrb — and the process exits without partitioning, so
// `mlpart -convert g.csrb g.graph` and `mlpart -convert g.graph g.csrb`
// translate between the text and binary formats.
//
// With -trace, every hierarchy level, initial cut, refinement pass,
// projection and phase timing is emitted as one JSON line while the
// partitioner runs (to stderr, or to stdout with -json). With -json the
// final summary is a JSON object instead of prose. With -timeout the run
// is abandoned at the next level boundary once the deadline passes, and
// the process exits with status 3 (distinct from status 1 for other
// errors).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mlpart"
)

// exitTimeout is the exit status for context deadline/cancellation, kept
// distinct from 1 (general errors) so scripts can tell "too slow" from
// "wrong input".
const exitTimeout = 3

// schemeSummary renders the registered coarsening schemes for -match's help
// text, so new schemes show up in -help without touching this file.
func schemeSummary() string {
	var b strings.Builder
	for i, s := range mlpart.CoarseningSchemes() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s (%s)", s.Name, s.Family)
	}
	return b.String()
}

func main() {
	k := flag.Int("k", 2, "number of parts")
	match := flag.String("match", "HEM", "coarsening scheme: "+schemeSummary())
	maxClusterWeight := flag.Int("max-cluster-weight", 0, "GCLP only: cluster weight cap (0 = derived from the coarsening target)")
	lpRounds := flag.Int("lp-rounds", 0, "GCLP only: label-propagation rounds per level (0 = default)")
	init := flag.String("init", "GGGP", "initial partitioner: GGGP, GGP, SBP")
	ref := flag.String("refine", "BKLGR", "refinement: NONE, GR, KLR, BGR, BKLR, BKLGR, BKWAY")
	preset := flag.String("preset", "", "quality preset: fast (1 cycle), eco (2), strong (4); empty = fast")
	cycles := flag.Int("cycles", 0, "explicit multilevel cycle count (overrides -preset)")
	seed := flag.Int64("seed", 0, "random seed (fixed seed => fixed result)")
	parallel := flag.Bool("parallel", false, "partition independent subgraphs (and NCuts trials) concurrently")
	ncuts := flag.Int("ncuts", 0, "run each bisection this many times with independent seeds, keep the best cut")
	coarsenWorkers := flag.Int("coarsen-workers", 0, "GCLP propose workers; the result is identical for any count")
	refineWorkers := flag.Int("refine-workers", 0, "parallel propose workers for -refine BKWAY (result is identical for any count)")
	parallelDepth := flag.Int("parallel-depth", 0, "recursion levels that fan out when -parallel (0 = default 4)")
	parallelMinVerts := flag.Int("parallel-minverts", 0, "smallest subgraph that fans out when -parallel (0 = default 2000)")
	out := flag.String("o", "", "write the partition vector to this file")
	stats := flag.Bool("stats", false, "print extended quality metrics (comm volume, connectivity, ...)")
	direct := flag.Bool("direct", false, "use direct multilevel k-way instead of recursive bisection")
	weighted := flag.String("weighted", "", "comma-separated target fractions (overrides -k), e.g. 4,2,1,1")
	ordering := flag.String("ordering", "", "relabel vertices at ingest for locality: none, degree, bfs-block")
	convert := flag.String("convert", "", "write the loaded graph to this file (format by extension: .graph, .mtx, .csrb) and exit")
	gen := flag.String("gen", "", "generate the named synthetic workload instead of reading a file")
	scale := flag.Float64("scale", 0.25, "workload scale when -gen is used")
	doTrace := flag.Bool("trace", false, "emit per-level trace events as JSON lines while partitioning")
	asJSON := flag.Bool("json", false, "write the summary (and -trace events) as JSON on stdout")
	timeout := flag.Duration("timeout", 0, "abandon the run after this long (exit status 3)")
	faultPlan := flag.String("faults", os.Getenv("MLPART_FAULTS"), "deterministic fault-injection plan (see docs/RELIABILITY.md)")
	flag.Parse()

	g, name, closer, err := loadGraph(*gen, *scale)
	if err != nil {
		fatal(err)
	}
	if closer != nil {
		defer closer.Close()
	}
	if !*asJSON {
		fmt.Printf("graph %s: %d vertices, %d edges\n", name, g.NumVertices(), g.NumEdges())
	}

	if *convert != "" {
		if err := writeGraphFile(*convert, g); err != nil {
			fatal(err)
		}
		if !*asJSON {
			fmt.Printf("graph written to %s\n", *convert)
		}
		return
	}

	opts := &mlpart.Options{
		Coarsening: &mlpart.CoarseningOptions{
			Scheme:           *match,
			MaxClusterWeight: *maxClusterWeight,
			LPRounds:         *lpRounds,
		},
		InitPart:            *init,
		Refinement:          *ref,
		Seed:                *seed,
		Parallel:            *parallel,
		NCuts:               *ncuts,
		CoarsenWorkers:      *coarsenWorkers,
		RefineWorkers:       *refineWorkers,
		Preset:              *preset,
		Cycles:              *cycles,
		ParallelDepth:       *parallelDepth,
		ParallelMinVertices: *parallelMinVerts,
		Ordering:            *ordering,
		FaultPlan:           *faultPlan,
	}
	// Trace events go to stdout when the whole run is JSON (one uniform
	// stream), to stderr otherwise (keeping stdout for the prose summary).
	var traceOut *bufio.Writer
	if *doTrace {
		dst := os.Stderr
		if *asJSON {
			dst = os.Stdout
		}
		traceOut = bufio.NewWriter(dst)
		opts.Tracer = mlpart.NewJSONTracer(traceOut)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	t0 := time.Now()
	var res *mlpart.Partitioning
	switch {
	case *weighted != "":
		var fractions []float64
		for _, tok := range strings.Split(*weighted, ",") {
			f, perr := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if perr != nil {
				fatal(fmt.Errorf("bad -weighted fraction %q: %v", tok, perr))
			}
			fractions = append(fractions, f)
		}
		*k = len(fractions)
		res, err = mlpart.PartitionWeightedCtx(ctx, g, fractions, opts)
	case *direct:
		res, err = mlpart.PartitionDirectKWayCtx(ctx, g, *k, opts)
	default:
		res, err = mlpart.PartitionCtx(ctx, g, *k, opts)
	}
	if traceOut != nil {
		traceOut.Flush()
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mlpart:", err)
			os.Exit(exitTimeout)
		}
		fatal(err)
	}
	elapsed := time.Since(t0)

	if *asJSON {
		// The summary is the wire schema's PartitionResponse — the same
		// object POST /v1/partition returns — so clients can switch
		// between the CLI and the daemon without remapping fields.
		summary := mlpart.PartitionResponse{
			Kind: mlpart.WireKindResult, SchemaVersion: mlpart.SchemaVersion, Graph: name,
			Vertices: g.NumVertices(), Edges: g.NumEdges(),
			K: *k, EdgeCut: res.EdgeCut, Balance: res.Balance(),
			PartWeights: res.PartWeights, Cycles: res.Cycles,
			ElapsedNS: elapsed.Nanoseconds(),
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(summary); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("%d-way partition: edge-cut %d, balance %.3f, time %.3fs\n",
			*k, res.EdgeCut, res.Balance(), elapsed.Seconds())
		if res.Cycles > 1 {
			fmt.Printf("cycles completed: %d\n", res.Cycles)
		}
		fmt.Printf("part weights: %v\n", res.PartWeights)
	}
	if *stats {
		report, err := mlpart.EvaluatePartition(g, res.Where, *k)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, p := range res.Where {
			fmt.Fprintln(w, p)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if !*asJSON {
			fmt.Printf("partition vector written to %s\n", *out)
		}
	}
}

// loadGraph loads the input graph. A non-nil closer (the `.csrb` mmap
// path) must be held open for the graph's lifetime.
func loadGraph(gen string, scale float64) (*mlpart.Graph, string, io.Closer, error) {
	if gen != "" {
		g, err := mlpart.GenerateWorkload(gen, scale)
		return g, gen, nil, err
	}
	if flag.NArg() != 1 {
		return nil, "", nil, fmt.Errorf("usage: mlpart [flags] graph.file (or -gen NAME); see -h")
	}
	path := flag.Arg(0)
	if strings.HasSuffix(path, ".csrb") {
		g, closer, err := mlpart.OpenBinaryGraph(path)
		return g, path, closer, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", nil, err
	}
	defer f.Close()
	var g *mlpart.Graph
	if strings.HasSuffix(path, ".mtx") {
		g, err = mlpart.ReadMatrixMarket(bufio.NewReader(f))
	} else {
		g, err = mlpart.ReadGraph(bufio.NewReader(f))
	}
	return g, path, nil, err
}

// writeGraphFile writes g to path in the format its extension names.
func writeGraphFile(path string, g *mlpart.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	switch {
	case strings.HasSuffix(path, ".mtx"):
		err = mlpart.WriteMatrixMarket(w, g)
	case strings.HasSuffix(path, ".csrb"):
		err = mlpart.WriteBinaryGraph(w, g)
	default:
		err = mlpart.WriteGraph(w, g)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	// Entry-point errors already carry the package prefix; don't print
	// "mlpart: mlpart: ...".
	fmt.Fprintln(os.Stderr, "mlpart:", strings.TrimPrefix(err.Error(), "mlpart: "))
	os.Exit(1)
}
