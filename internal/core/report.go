package core

import (
	"fmt"
	"io"
	"strings"

	"grp/internal/attrib"
	"grp/internal/cache"
	"grp/internal/metrics"
	"grp/internal/sim"
	"grp/internal/stats"
)

// This file holds the human-readable run reports grpsim prints.

// FprintResult writes the standard per-run report: core progress, cache
// behavior, memory traffic, prefetch effectiveness, hint census, and —
// when the run collected telemetry — miss-latency percentiles.
func FprintResult(w io.Writer, r *Result) {
	fmt.Fprintf(w, "benchmark %s  scheme %s\n", r.Bench, r.Scheme)
	fmt.Fprintf(w, "  instructions     %d\n", r.CPU.Instrs)
	fmt.Fprintf(w, "  cycles           %d\n", r.CPU.Cycles)
	fmt.Fprintf(w, "  IPC              %.3f\n", r.IPC())
	fmt.Fprintf(w, "  branches         %d (%d mispredicted)\n", r.CPU.Branches, r.CPU.Mispredicts)
	fmt.Fprintf(w, "  L1: %d accesses, %.1f%% miss\n", r.L1.Accesses, r.L1.MissRate())
	fmt.Fprintf(w, "  L2: %d accesses, %.1f%% miss\n", r.L2.Accesses, r.L2.MissRate())
	fmt.Fprintf(w, "  memory traffic   %d bytes (%d blocks)\n", r.TrafficBytes, r.TrafficBytes/64)
	fmt.Fprintf(w, "  prefetches       %d issued, %d useful, %d late, accuracy %.1f%%\n",
		r.Mem.PrefetchesIssued, r.L2.UsefulPrefetches, r.Mem.PrefetchLates, r.Accuracy())
	fmt.Fprintf(w, "  hints            %d/%d mem instructions hinted (%.1f%%)\n",
		r.Hints.Hinted(), r.Hints.MemInsts, r.Hints.HintRatio())
	FprintLatencies(w, r.Metrics)
	FprintAttrib(w, r.Attrib)
}

// FprintCompare writes the speedup/traffic/coverage block comparing a run
// against its no-prefetch baseline.
func FprintCompare(w io.Writer, r, base *Result) {
	fmt.Fprintf(w, "\nvs no prefetching:\n")
	fmt.Fprintf(w, "  speedup          %.3f\n", Speedup(r, base))
	fmt.Fprintf(w, "  traffic increase %.2fx\n", TrafficIncrease(r, base))
	fmt.Fprintf(w, "  coverage         %.1f%%\n", Coverage(r, base))
}

// FprintCoRun writes the co-run report: one row per core — commit
// progress, shared-L2 pollution it caused and suffered, and (when
// ComputeSlowdowns ran) its solo cycle count and slowdown factor — then
// the shared-fabric aggregates.
func FprintCoRun(w io.Writer, cr *CoRunResult) {
	n := len(cr.Results)
	fmt.Fprintf(w, "co-run: %d cores on one shared L2+DRAM, scheme %s\n", n, cr.Results[0].Scheme)
	t := &stats.Table{
		Title: "Per-core view",
		Headers: []string{"core", "bench", "instrs", "cycles", "ipc",
			"solo cycles", "slowdown", "pol.caused", "pol.suffered"},
	}
	for i, r := range cr.Results {
		soloCycles, slowdown := "-", "-"
		if len(cr.SoloCycles) == n && cr.SoloCycles[i] > 0 {
			soloCycles = fmt.Sprint(cr.SoloCycles[i])
			slowdown = stats.Fmt(cr.Slowdown[i], 3)
		}
		t.Add(fmt.Sprint(i), r.Bench, fmt.Sprint(r.CPU.Instrs), fmt.Sprint(r.CPU.Cycles),
			stats.Fmt(r.IPC(), 3), soloCycles, slowdown,
			fmt.Sprint(r.CoRun.PollutionCaused), fmt.Sprint(r.CoRun.PollutionSuffered))
	}
	fmt.Fprint(w, t.String())
	l2 := cr.Results[0].L2
	fmt.Fprintf(w, "shared L2: %d accesses, %.1f%% miss\n", l2.Accesses, l2.MissRate())
	fmt.Fprintf(w, "aggregate DRAM traffic: %d bytes (%d blocks)\n",
		cr.AggTrafficBytes, cr.AggTrafficBytes/64)
}

// FprintLatencies writes demand- and prefetch-latency percentiles from a
// telemetry snapshot; it is a no-op when snap is nil or the histograms
// are absent or empty.
func FprintLatencies(w io.Writer, snap *metrics.Snapshot) {
	if snap == nil {
		return
	}
	line := func(label, name string) {
		h := snap.Histogram(name)
		if h == nil || h.Count == 0 {
			return
		}
		fmt.Fprintf(w, "  %-16s p50 %.0f  p90 %.0f  p99 %.0f cycles (n=%d)\n",
			label, h.P50, h.P90, h.P99, h.Count)
	}
	line("demand latency", sim.HistDemandMissLatency)
	line("prefetch latency", sim.HistPrefetchLatency)
}

// FprintAttrib writes the prefetch lifecycle attribution block: the
// outcome taxonomy with shares of issued prefetches, the prioritizer
// decision counters, and the top per-region and per-PC breakdowns. A
// no-op when the run carried no ledger.
func FprintAttrib(w io.Writer, s *attrib.Summary) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "\nprefetch attribution (%d issued, ledger accuracy %.1f%%):\n",
		s.Issued, s.Accuracy())
	fmt.Fprint(w, indent(stats.AttribOutcomeTable("outcome taxonomy", s).String(), "  "))
	if len(s.Regions) > 0 {
		fmt.Fprint(w, indent(stats.AttribRegionTable("top regions", s).String(), "  "))
	}
	if len(s.PCs) > 0 {
		fmt.Fprint(w, indent(stats.AttribPCTable("top trigger PCs", s).String(), "  "))
	}
}

// TableAttrib aggregates every cell's attribution ledger into one
// per-scheme outcome table: issued prefetches summed across the suite's
// benches, each lifecycle class as a share of issued. Schemes that issued
// nothing (base, the perfect caches) are omitted. Errors when no cell in
// the suite carried a ledger — the suite must run with Options.Attrib.
func (s *Suite) TableAttrib() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Prefetch attribution by scheme (ledger outcome shares, % of issued)",
		Headers: []string{"scheme", "issued", "useful%", "late%", "evicted%",
			"pollut%", "redund%", "cancel%", "resident%"},
	}
	ledgers := false
	for _, sc := range AllSchemes() {
		var issued uint64
		var c attrib.Counts
		for _, b := range s.Benches {
			r := s.Get(b, sc)
			if r == nil || r.Attrib == nil {
				continue
			}
			ledgers = true
			issued += r.Attrib.Issued
			k := r.Attrib.Counts
			c.Useful += k.Useful
			c.Late += k.Late
			c.EvictedUnused += k.EvictedUnused
			c.Pollution += k.Pollution
			c.Redundant += k.Redundant
			c.Cancelled += k.Cancelled
			c.ResidentUnused += k.ResidentUnused
		}
		if issued == 0 {
			continue
		}
		pct := func(v uint64) string { return stats.Fmt(100*float64(v)/float64(issued), 1) }
		t.Add(sc.String(), fmt.Sprint(issued), pct(c.Useful), pct(c.Late),
			pct(c.EvictedUnused), pct(c.Pollution), pct(c.Redundant),
			pct(c.Cancelled), pct(c.ResidentUnused))
	}
	if !ledgers {
		return nil, fmt.Errorf("core: no attribution ledgers in suite (run with Options.Attrib)")
	}
	return t, nil
}

// indent prefixes every non-empty line of s.
func indent(s, prefix string) string {
	lines := strings.Split(s, "\n")
	for i, ln := range lines {
		if ln != "" {
			lines[i] = prefix + ln
		}
	}
	return strings.Join(lines, "\n")
}

// accuracy is the paper's Table 5 accuracy metric: the fraction (percent)
// of issued prefetches that were demand-referenced, counting late
// (in-flight) references as useful.
func accuracy(l2 cache.Stats, mem sim.MemStats) float64 {
	if mem.PrefetchesIssued == 0 {
		return 0
	}
	useful := l2.UsefulPrefetches + mem.PrefetchLates
	if useful > mem.PrefetchesIssued {
		useful = mem.PrefetchesIssued
	}
	return 100 * float64(useful) / float64(mem.PrefetchesIssued)
}
