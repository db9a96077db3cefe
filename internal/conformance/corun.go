package conformance

import (
	"fmt"
	"reflect"

	"grp/internal/core"
	"grp/internal/progen"
	"grp/internal/workloads"
)

// The co-run battery holds the multi-core engine to 2-core architectural
// invariance over the generated-program fleet: contention perturbs
// timing only, so each core of a 2-core self-co-run reproduces its solo
// run's architectural and memory digests, never runs faster than solo,
// and keeps every shared-fabric invariant (including the arbiter's
// starvation bound) intact. Solo runs are one-core co-runs of the same
// engine; its timing referees are the relations of referee.go.

// RunCoRun checks cfg.N generated programs through the co-run battery on
// Run's worker pool. The battery reads N, Seed, Jobs, Schemes, Base, Gen,
// MaxSteps and the callbacks; it runs no fault variant and no tamper.
func RunCoRun(cfg Config) (*Report, error) { return run(cfg, CheckCoRunSeed) }

// CheckCoRunSeed generates one program and runs it through the battery:
// two cells per scheme, the solo run and the 2-core self-co-run.
func CheckCoRunSeed(cfg Config, seed int64) *ProgramReport {
	pr := &ProgramReport{Seed: seed}
	fail := func(sc core.Scheme, kind, detail string) {
		pr.Failures = append(pr.Failures, Failure{Seed: seed, Scheme: sc, Kind: kind, Detail: detail})
	}

	w := progen.Generate(seed, cfg.Gen)
	if err := w.Prog.Validate(); err != nil {
		fail(core.NoPrefetch, "run-error", fmt.Sprintf("generator produced invalid program: %v", err))
		return pr
	}
	// The instruction budget comes from the interpreter oracle, as in
	// CheckWorkload.
	orc, err := workloads.RunOracle(specName(seed), w, cfg.MaxSteps)
	if err != nil {
		pr.Skipped = true
		pr.SkipReason = err.Error()
		return pr
	}
	pr.Steps = orc.Steps
	spec := orc.Spec

	schemes := cfg.Schemes
	if schemes == nil {
		schemes = DefaultSchemes()
	}
	opt := cloneOptions(cfg.Base)
	opt.Attrib = true
	opt.CheckInvariants = true

	for _, sc := range schemes {
		pr.Cells += 2
		solo, err := core.Run(spec, sc, opt)
		if err != nil {
			fail(sc, "run-error", fmt.Sprintf("solo: %v", err))
			continue
		}
		pair, err := core.RunCoRunSpecs([]*workloads.Spec{spec, spec}, sc, opt)
		if err != nil {
			fail(sc, "run-error", fmt.Sprintf("corun n=2: %v", err))
			continue
		}
		for c, r := range pair.Results {
			if r.ArchDigest != solo.ArchDigest || r.MemDigest != solo.MemDigest {
				fail(sc, "arch-divergence",
					fmt.Sprintf("2-core self-co-run core %d: arch %016x mem %016x, solo arch %016x mem %016x",
						c, r.ArchDigest, r.MemDigest, solo.ArchDigest, solo.MemDigest))
			}
			if r.CPU.Cycles < solo.CPU.Cycles {
				fail(sc, "cycle-bound",
					fmt.Sprintf("2-core core %d finished in %d cycles, solo took %d — contention cannot speed a core up",
						c, r.CPU.Cycles, solo.CPU.Cycles))
			}
		}
	}
	return pr
}

// DiffResults compares two Results field by field and returns the
// divergent fields in declaration order, each with both values (empty =
// identical). The co-run context is excluded, so a co-run core compares
// with its solo run.
func DiffResults(a, b *core.Result) []string {
	var out []string
	add := func(name string, x, y interface{}) {
		if !reflect.DeepEqual(x, y) {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	add("bench", a.Bench, b.Bench)
	add("scheme", a.Scheme, b.Scheme)
	add("cpu", a.CPU, b.CPU)
	add("l1", a.L1, b.L1)
	add("l2", a.L2, b.L2)
	add("mem", a.Mem, b.Mem)
	add("dram", a.Dram, b.Dram)
	add("pf", a.PF, b.PF)
	add("traffic_bytes", a.TrafficBytes, b.TrafficBytes)
	add("hints", a.Hints, b.Hints)
	add("metrics", a.Metrics, b.Metrics)
	add("arch_digest", fmt.Sprintf("%016x", a.ArchDigest), fmt.Sprintf("%016x", b.ArchDigest))
	add("mem_digest", fmt.Sprintf("%016x", a.MemDigest), fmt.Sprintf("%016x", b.MemDigest))
	add("fault_counts", a.FaultCounts, b.FaultCounts)
	add("attrib", a.Attrib, b.Attrib)
	return out
}
