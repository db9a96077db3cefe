// Package grp's root benchmarks measure the design choices DESIGN.md
// calls out: each ablation runs one benchmark with and without a knob and
// reports the cycle and traffic ratios, and the software-prefetching
// extension compares the paper's Section 2 foil against GRP:
//
//	go test -bench 'Ablation|Extension' -run '^$' .
//
// The paper's tables and figures are printed by cmd/grptables, and
// simulator throughput is measured by perfbench.
//
// Set GRP_BENCH_FACTOR=small (or full) for larger working sets; the
// default "test" scale keeps each benchmark to seconds.
package grp

import (
	"fmt"
	"os"
	"testing"

	"grp/internal/core"
	"grp/internal/workloads"
)

// benchFactor reads GRP_BENCH_FACTOR; unset or unknown means test.
func benchFactor() workloads.Factor {
	f, err := workloads.ParseFactor(os.Getenv("GRP_BENCH_FACTOR"))
	if err != nil {
		return workloads.Test
	}
	return f
}

// --- ablations (DESIGN.md Section 4) --------------------------------------

// ablate runs one benchmark under SRP with and without a knob and reports
// the cycle and traffic ratios (with/without).
func ablate(b *testing.B, bench string, scheme core.Scheme, with core.Options) {
	b.Helper()
	spec, err := workloads.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	baseOpt := core.Options{Factor: benchFactor()}
	with.Factor = baseOpt.Factor
	for i := 0; i < b.N; i++ {
		off, err := core.Run(spec, scheme, baseOpt)
		if err != nil {
			b.Fatal(err)
		}
		on, err := core.Run(spec, scheme, with)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(on.CPU.Cycles)/float64(off.CPU.Cycles), "cycles-ratio")
			b.ReportMetric(float64(on.TrafficBytes)/float64(off.TrafficBytes), "traffic-ratio")
		}
	}
}

// BenchmarkAblationLRUInsert compares the paper's LRU insertion for
// prefetch fills against MRU insertion on a pollution-sensitive workload.
func BenchmarkAblationLRUInsert(b *testing.B) {
	ablate(b, "twolf", core.SRP, core.Options{PrefetchInsertMRU: true})
}

// BenchmarkAblationPrioritizer lets prefetches contend with demands.
func BenchmarkAblationPrioritizer(b *testing.B) {
	ablate(b, "twolf", core.SRP, core.Options{DisablePrioritizer: true})
}

// BenchmarkAblationQueueDiscipline compares LIFO (paper) vs FIFO region
// queues.
func BenchmarkAblationQueueDiscipline(b *testing.B) {
	ablate(b, "mcf", core.SRP, core.Options{SRPFIFO: true})
}

// BenchmarkAblationRegionSize sweeps the SRP region size (1 KB / 2 KB /
// 4 KB).
func BenchmarkAblationRegionSize(b *testing.B) {
	for _, blocks := range []int{16, 32, 64} {
		blocks := blocks
		b.Run(fmt.Sprintf("%dKB", blocks*64/1024), func(b *testing.B) {
			spec, err := workloads.ByName("wupwise")
			if err != nil {
				b.Fatal(err)
			}
			opt := core.Options{Factor: benchFactor(), SRPRegionBlocks: blocks}
			for i := 0; i < b.N; i++ {
				r, err := core.Run(spec, core.SRP, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(r.IPC(), "ipc")
					b.ReportMetric(float64(r.TrafficBytes)/1024, "traffic-KB")
				}
			}
		})
	}
}

// BenchmarkAblationRecursionDepth sweeps GRP's recursive chase depth on
// the tree-chasing workload (paper footnote 2 uses 3 for mcf).
func BenchmarkAblationRecursionDepth(b *testing.B) {
	for _, depth := range []uint8{1, 3, 6} {
		depth := depth
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			spec, err := workloads.ByName("mcf")
			if err != nil {
				b.Fatal(err)
			}
			opt := core.Options{Factor: benchFactor(), RecursionDepth: depth}
			for i := 0; i < b.N; i++ {
				r, err := core.Run(spec, core.GRPVar, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(r.IPC(), "ipc")
					b.ReportMetric(float64(r.TrafficBytes)/1024, "traffic-KB")
				}
			}
		})
	}
}

// BenchmarkAblationOpenPageFirst measures the paper's final SRP
// optimization: issuing prefetch candidates whose DRAM row is already
// open before index-order candidates.
func BenchmarkAblationOpenPageFirst(b *testing.B) {
	ablate(b, "wupwise", core.SRP, core.Options{OpenPageFirst: true})
}

// BenchmarkExtensionSoftwarePrefetch compares classic software
// prefetching (the paper's Section 2 foil) against GRP on a dense stream
// (where software prefetching works) and a pointer chase (where it
// cannot compute addresses in advance).
func BenchmarkExtensionSoftwarePrefetch(b *testing.B) {
	for _, bench := range []string{"wupwise", "ammp"} {
		bench := bench
		b.Run(bench, func(b *testing.B) {
			spec, err := workloads.ByName(bench)
			if err != nil {
				b.Fatal(err)
			}
			opt := core.Options{Factor: benchFactor()}
			for i := 0; i < b.N; i++ {
				base, err := core.Run(spec, core.NoPrefetch, opt)
				if err != nil {
					b.Fatal(err)
				}
				sw, err := core.Run(spec, core.SoftwarePF, opt)
				if err != nil {
					b.Fatal(err)
				}
				grp, err := core.Run(spec, core.GRPVar, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(core.Speedup(sw, base), "swpf-speedup")
					b.ReportMetric(core.Speedup(grp, base), "grp-speedup")
				}
			}
		})
	}
}
