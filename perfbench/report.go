package main

import (
	"fmt"
	"io"
)

// report prints every metric of the run with its unit, the tail
// percentile with its sample count, the reconciliation of the engine's
// phase times against the daemon's compute time, and per-span self
// times.
func report(wr io.Writer, cfg config, m *measured, layers map[string]float64, sp *spans) {
	pct, _, ok := tail(m.latMS)
	fmt.Fprintf(wr, "perfbench %s seed=%d window=%s trace=%v: %d requests, %d failed\n",
		cfg.w.name, cfg.seed, cfg.window, cfg.trace, m.attempted, m.failed)
	if !ok {
		fmt.Fprintf(wr, "  latency_tail_ms is the maximum: fewer than %d samples\n", tailMin+1)
	}
	fmt.Fprintf(wr, "  latency_tail_ms is p%.1f of %d samples (%d beyond it)\n", pct, len(m.latMS), tailMin)
	win := windowLayers(m)
	all := merge(m.e2e(), win, layers)
	for _, d := range catalogue {
		if v, ok := all[d.name]; ok {
			fmt.Fprintf(wr, "  %-28s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if layers == nil {
		return
	}
	phases := layers["coarsen.ms"] + layers["initpart.ms"] + layers["refine.ms"] + layers["multilevel.project_ms"]
	fmt.Fprintf(wr, "  in-process: coarsen+initpart+refine+project = %.1f ms of the %.1f ms multilevel call\n",
		phases, layers["multilevel.call_ms"])
	if len(m.phaseMS) > 0 {
		c, p, g := median(m.computeMS), median(m.phaseMS), median(m.phaseGapMS)
		fmt.Fprintf(wr, "  reconcile: service.compute_ms %.1f (window median); on %d re-sent traced requests the daemon's phases cover %.1f ms and %.1f ms (%.1f%% of %.1f) is unaccounted\n",
			c, len(m.phaseMS), p, g, 100*g/(p+g), p+g)
	}
	self := sp.selfTimes()
	for _, name := range sp.names() {
		fmt.Fprintf(wr, "  self %-26s %10.3f ms (median)\n", name, self[name])
	}
}
