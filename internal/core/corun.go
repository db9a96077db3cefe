// Co-run mode: N cores, each running its own workload, over one shared
// L2 and DRAM (sim.CoRunSystem), run by runCores as a solo Run is.
// Surfaced two ways: RunCoRun for multi-result callers (grpsim -corun),
// and Options.CoRun for the campaign grid, where a cell's result is core
// 0's view of the co-run with the cross-core context attached.
package core

import (
	"fmt"

	"grp/internal/workloads"
)

// CoRunInfo is the cross-core context attached to each per-core Result
// of a co-run.
type CoRunInfo struct {
	// NCores is the co-run width; Core is this result's core id.
	NCores int `json:"n_cores"`
	Core   int `json:"core"`
	// Benches lists every core's workload, indexed by core id.
	Benches []string `json:"benches"`
	// AggTrafficBytes is total traffic on the shared DRAM across all
	// cores (each Result.TrafficBytes also reports this shared total;
	// per-core traffic is not separable at the controller).
	AggTrafficBytes uint64 `json:"agg_traffic_bytes"`
	// PollutionCaused counts this core's prefetch fills that evicted
	// another core's valid demand-resident line from the shared L2;
	// PollutionSuffered counts this core's lines so evicted.
	PollutionCaused   uint64 `json:"pollution_caused"`
	PollutionSuffered uint64 `json:"pollution_suffered"`
}

// CoRunResult is the outcome of one co-run: one Result per core (same
// scheme everywhere, workloads per Benches order) plus the aggregates.
type CoRunResult struct {
	// Results holds core i's view at index i. Shared-resource fields
	// (L2, Dram, TrafficBytes, FaultCounts) are the shared totals in every
	// entry; L1, Mem, CPU, PF and Attrib are genuinely per-core.
	Results []*Result
	// AggTrafficBytes is the shared controller's total traffic.
	AggTrafficBytes uint64
	// SoloCycles/Slowdown are filled by ComputeSlowdowns: core i's solo
	// cycle count under the same scheme and options, and its co-run
	// slowdown factor corunCycles/soloCycles.
	SoloCycles []uint64
	Slowdown   []float64
}

// RunCoRun simulates len(benches) cores, each running one benchmark
// under the given scheme, over a shared L2 and DRAM (see runCores). Each
// core keeps a private functional memory, compiled program, L1, prefetch
// engine, L2 MSHR partition and prefetch budget; contention happens at
// the shared L2 capacity and DRAM channels. With one benchmark the run is
// Run's, plus the CoRun context.
//
// A fault plan arms one injector for the whole system: every core's
// Result.FaultCounts reports its shared totals (as L2, Dram and
// TrafficBytes report the shared fabric's), while each core's cancelled
// prefetches stay in its own Mem.PrefetchesCancelled. Attribution gives
// every core its own ledger; telemetry, the timeline and the fill tamper
// observe core 0, so only core 0's Result carries a Metrics snapshot.
func RunCoRun(benches []string, scheme Scheme, opt Options) (*CoRunResult, error) {
	specs := make([]*workloads.Spec, len(benches))
	for i, bench := range benches {
		spec, err := workloads.ByName(bench)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return RunCoRunSpecs(specs, scheme, opt)
}

// RunCoRunSpecs is RunCoRun over already-resolved workload specs — the
// entry point for synthetic workloads (the conformance harness's
// generated programs) that are not in the registry.
func RunCoRunSpecs(specs []*workloads.Spec, scheme Scheme, opt Options) (*CoRunResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: co-run needs at least one workload")
	}
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rs, err := runCores(specs, scheme, opt, true, engineFor, runThreads)
	if err != nil {
		return nil, err
	}
	return &CoRunResult{Results: rs, AggTrafficBytes: rs[0].TrafficBytes}, nil
}

// ComputeSlowdowns runs each co-run workload solo under the same scheme
// and options and fills SoloCycles and Slowdown (co-run cycles over solo
// cycles, per core). Solo runs are full simulations; drivers that only
// need the co-run itself skip this. The references run without a
// timeline or telemetry, so they neither append to core 0's timeline nor
// pay for a snapshot nobody reads.
func (cr *CoRunResult) ComputeSlowdowns(opt Options) error {
	opt.CoRun = nil
	opt.Timeline = nil
	opt.Metrics = false
	cr.SoloCycles = make([]uint64, len(cr.Results))
	cr.Slowdown = make([]float64, len(cr.Results))
	for i, r := range cr.Results {
		spec, err := workloads.ByName(r.Bench)
		if err != nil {
			return err
		}
		solo, err := Run(spec, r.Scheme, opt)
		if err != nil {
			return fmt.Errorf("core: solo reference for %s: %w", r.Bench, err)
		}
		cr.SoloCycles[i] = solo.CPU.Cycles
		if solo.CPU.Cycles > 0 {
			cr.Slowdown[i] = float64(r.CPU.Cycles) / float64(solo.CPU.Cycles)
		}
	}
	return nil
}

// runCoRunCell is Run's co-run delegation: the cell's bench takes core
// 0, Options.CoRun fills cores 1..N-1, and the cell's result is core 0's
// per-core view (CoRunInfo attached).
func runCoRunCell(spec *workloads.Spec, scheme Scheme, opt Options) (*Result, error) {
	benches := append([]string{spec.Name}, opt.CoRun...)
	sub := opt
	sub.CoRun = nil
	cr, err := RunCoRun(benches, scheme, sub)
	if err != nil {
		return nil, err
	}
	return cr.Results[0], nil
}
