package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// replayStats are the work counts of one replay pass.
type replayStats struct {
	isaOps, compiles, programs int
}

// replayPass runs one replay pass of the workload. Cold passes get a
// fresh disk tier, warm passes read the one set-up seeded.
func (h *harness) replayPass(rp *replayer, pass int) error {
	switch h.w.disk {
	case freshDisk:
		dir, err := h.cacheDir()
		if err != nil {
			return err
		}
		return rp.paperPass(pass, *h.in.space, dir)
	case seededDisk:
		return rp.paperPass(pass, *h.in.space, h.seeded)
	}
	rp.pointsPass(pass, h.in.passes[0].points)
	return nil
}

// traced runs the in-process replay within budget (at least one timed
// pass, then one allocation pass), checks that it reproduces the served
// rows, and derives the per-layer metrics.
func (h *harness) traced(rep *report, passes []passResult, budget time.Duration) (map[string]metric, error) {
	t := newTracer()
	rp := newReplayer(t)
	served := passes[0].served
	var stats []replayStats
	var durs []float64
	start := time.Now()
	for pass := 0; pass < maxReplays && (pass == 0 || time.Since(start)+time.Duration(median(durs)*float64(time.Second)) <= budget); pass++ {
		t0 := time.Now()
		if err := h.replayPass(rp, pass); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		stats = append(stats, replayStats{isaOps: rp.isaOps, compiles: rp.compiles, programs: len(rp.programs)})
		points := h.in.passes[0].points
		rep.attempted += len(points)
		rep.failed += mismatches(points, served, rp.results)
	}
	at := newAllocTracer()
	if err := h.replayPass(newReplayer(at), 0); err != nil {
		return nil, err
	}

	spanPath := filepath.Join(h.cfg.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", h.w.name, h.cfg.seed))
	if err := writeJSONLines(spanPath, t.spans); err != nil {
		return nil, err
	}
	rep.files = append(rep.files, spanPath)

	byPass := aggregate(t.spans)
	m := make(map[string]metric)
	selfMS := func(name string) float64 {
		var xs []float64
		for pass := range stats {
			xs = append(xs, float64(byPass[int32(pass)].self[name])/1e6)
		}
		return median(xs)
	}
	for _, name := range callNames {
		m[name+".self_ms"] = metric{selfMS(name), "ms"}
		m[name+".calls"] = metric{float64(byPass[0].calls[name]), "count"}
		m[name+".alloc_mb"] = metric{float64(at.allocs[name]) / (1 << 20), "MiB"}
	}

	st := stats[0]
	m["compiler.isa_ops"] = metric{float64(st.isaOps), "count"}
	m["compiler.ns_per_isa_op"] = metric{perOp(selfMS(callCompile), st.isaOps), "ns"}
	m["sim.ns_per_isa_op"] = metric{perOp(selfMS(callSim), st.isaOps), "ns"}
	share := 0.0
	if st.compiles > 0 {
		share = float64(st.programs) / float64(st.compiles)
	}
	m["compiler.distinct_program_share"] = metric{share, "ratio"}

	// Served passes: wire bytes, cache counters and wall time.
	var walls, computes, reads, writes, hits []float64
	var rows, rowBytes int
	for _, p := range passes {
		walls = append(walls, p.WallS*1000)
		computes = append(computes, float64(p.Cache.Computes))
		reads = append(reads, float64(p.Cache.DiskReads))
		writes = append(writes, float64(p.Cache.DiskWrites))
		if p.Rows > 0 {
			hits = append(hits, 1-float64(p.Cache.Computes)/float64(p.Rows))
		}
		rows += p.Rows
		rowBytes += p.RowBytes
	}
	m["service.bytes_per_row"] = metric{float64(rowBytes) / float64(max(rows, 1)), "B"}
	m["cache.computes"] = metric{median(computes), "count"}
	m["cache.disk_reads"] = metric{median(reads), "count"}
	m["cache.disk_writes"] = metric{median(writes), "count"}
	m["cache.hit_ratio"] = metric{median(hits), "ratio"}
	m["host.steal_frac"] = metric{rep.stealFrac, "ratio"}

	// Unattributed: served wall time that no traced call accounts for.
	var attributed []float64
	for pass := range stats {
		var ns int64
		for _, name := range callNames {
			if !unattributedExcluded[name] {
				ns += byPass[int32(pass)].self[name]
			}
		}
		attributed = append(attributed, float64(ns)/1e6)
	}
	m["service.unattributed_ms"] = metric{median(walls) - median(attributed), "ms"}
	return m, nil
}

func perOp(ms float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return ms * 1e6 / float64(ops)
}

// mismatches counts points whose replayed result differs from the
// served one.
func mismatches(points []core.Point, served, replayed map[string]string) int {
	n := 0
	for _, pt := range points {
		k := pt.String()
		got, ok := replayed[k]
		if want, sok := served[k]; !ok || !sok || got != want {
			if n < 3 {
				fmt.Fprintf(os.Stderr, "perfbench: replay of %s differs from the served row\n", k)
			}
			n++
		}
	}
	return n
}
