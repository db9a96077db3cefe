package conformance

import (
	"fmt"
	"reflect"
	"strings"

	"grp/internal/campaign"
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

// CoRunConfig parameterizes a co-run conformance campaign.
type CoRunConfig struct {
	// N is how many generated programs to check; Seed seeds the first
	// (program i uses Seed+i). Jobs is the worker-pool width.
	N    int
	Seed int64
	Jobs int
	// Schemes to check; nil uses the realistic set (DefaultSchemes).
	Schemes []core.Scheme
	// MaxSteps bounds the interpreter oracle (default 300k); programs
	// exceeding it are skipped, as in the main harness.
	MaxSteps int
	// Progress, when non-nil, is called after each checked program.
	// Serialized.
	Progress func(done, total, failed int)
}

// CoRunFailure is one invariance violation.
type CoRunFailure struct {
	Seed   int64
	Scheme core.Scheme
	Kind   string // run-error, arch-divergence, cycle-bound
	Detail string
}

func (f CoRunFailure) String() string {
	return fmt.Sprintf("seed %d %s: %s: %s", f.Seed, f.Scheme, f.Kind, f.Detail)
}

// CoRunProgramReport is the outcome of checking one generated program.
type CoRunProgramReport struct {
	Seed       int64
	Skipped    bool
	SkipReason string
	Cells      int
	Failures   []CoRunFailure
}

// CoRunReport aggregates a co-run conformance campaign.
type CoRunReport struct {
	Programs []CoRunProgramReport
}

// Failed reports whether any program failed.
func (r *CoRunReport) Failed() bool {
	for _, p := range r.Programs {
		if len(p.Failures) > 0 {
			return true
		}
	}
	return false
}

// Failures collects every failure in seed order.
func (r *CoRunReport) Failures() []CoRunFailure {
	var out []CoRunFailure
	for _, p := range r.Programs {
		out = append(out, p.Failures...)
	}
	return out
}

// Summary renders the deterministic campaign summary.
func (r *CoRunReport) Summary() string {
	var cells, skipped int
	for _, p := range r.Programs {
		cells += p.Cells
		if p.Skipped {
			skipped++
		}
	}
	fails := r.Failures()
	var b strings.Builder
	fmt.Fprintf(&b, "corun-conformance: %d programs, %d cells, %d skipped, %d failures\n",
		len(r.Programs), cells, skipped, len(fails))
	for _, f := range fails {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	return b.String()
}

// RunCoRun checks cfg.N generated programs through the co-run battery on
// up to cfg.Jobs workers.
func RunCoRun(cfg CoRunConfig) (*CoRunReport, error) {
	if cfg.N <= 0 {
		cfg.N = 1
	}
	rep := &CoRunReport{Programs: make([]CoRunProgramReport, cfg.N)}
	var done, failed int
	progress := func(failures int) {}
	if cfg.Progress != nil {
		mu := make(chan struct{}, 1)
		mu <- struct{}{}
		progress = func(failures int) {
			<-mu
			done++
			failed += failures
			cfg.Progress(done, cfg.N, failed)
			mu <- struct{}{}
		}
	}
	err := campaign.ParallelFor(nil, cfg.N, cfg.Jobs, func(i int) error {
		pr := CheckCoRunSeed(cfg, cfg.Seed+int64(i))
		rep.Programs[i] = *pr
		progress(len(pr.Failures))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// CheckCoRunSeed generates one program and runs it through the battery.
func CheckCoRunSeed(cfg CoRunConfig, seed int64) *CoRunProgramReport {
	pr := &CoRunProgramReport{Seed: seed}
	fail := func(sc core.Scheme, kind, detail string) {
		pr.Failures = append(pr.Failures, CoRunFailure{Seed: seed, Scheme: sc, Kind: kind, Detail: detail})
	}

	w := progen.Generate(seed, progen.Config{})
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
	spec := orc.Spec

	schemes := cfg.Schemes
	if schemes == nil {
		schemes = DefaultSchemes()
	}
	opt := core.Options{Attrib: true, CheckInvariants: true}

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
