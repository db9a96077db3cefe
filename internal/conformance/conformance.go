// Package conformance is the differential conformance harness: it feeds
// seeded generated programs (internal/progen) through the functional
// interpreter — the golden model — and through the full timed simulator
// under every requested scheme and fault variant, and asserts that
// speculation stayed speculation:
//
//   - oracle equality: the simulated run's final functional memory digest
//     equals the interpreter's over the identically placed-and-initialized
//     memory image;
//   - cross-scheme agreement: every (scheme, variant) cell of a program
//     produces the same ArchDigest — prefetching and fault injection
//     perturb timing only;
//   - metric sanity: prefetch accuracy lands in [0, 100], DRAM traffic
//     covers every demand fill, and coverage against the no-prefetch
//     baseline never exceeds 100% (it may legitimately go negative — the
//     paper's SRP/ammp cell does — so no lower bound is asserted);
//   - the perfect-L2 cycle count lower-bounds every realistic scheme;
//   - timing referees (referee.go): the perfect-L2 cell equals a core
//     driving the ideal port, and every fault-free cell equals core 0 of
//     a co-run beside an idle core.
//
// A failing program can be shrunk (see shrink.go) to a minimal reproducer
// for the bug report. The harness is deterministic in (seed, config):
// reports are byte-identical across worker counts.
package conformance

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"grp/internal/campaign"
	"grp/internal/compiler"
	"grp/internal/core"
	"grp/internal/faults"
	"grp/internal/lang"
	"grp/internal/mem"
	"grp/internal/progen"
	"grp/internal/workloads"
)

// Variant is one fault configuration to run every scheme under, in
// addition to the always-run fault-free pass.
type Variant struct {
	Name string
	Plan *faults.Plan
}

// Config parameterizes a conformance campaign.
type Config struct {
	// N is how many generated programs to check; Seed seeds the first
	// (program i uses Seed+i).
	N    int
	Seed int64
	// Jobs is the worker-pool width (programs are checked in parallel,
	// each program's cells serially); <= 1 is the serial path.
	Jobs int
	// Schemes to differentiate; nil uses the paper's realistic set
	// (base, stride, srp, grp/fix, grp/var). PerfectL2 is always run
	// additionally as the cycle-lower-bound reference.
	Schemes []core.Scheme
	// Variants are fault plans to repeat every scheme under.
	Variants []Variant
	// Base supplies shared run options (config overlays). Factor, faults,
	// invariant checking, and the instruction budget are managed by the
	// harness.
	Base core.Options
	// Gen configures the program generator (zero value = full grammar).
	Gen progen.Config
	// MaxSteps bounds the interpreter oracle; programs exceeding it are
	// skipped, not failed (default 300k). The simulated instruction
	// budget is derived from the oracle's actual step count.
	MaxSteps int
	// Tamper, when non-nil, is installed as every cell's prefetch-fill
	// tamperer (core.Options.TamperPrefetchFill). It exists for the
	// known-bad self-test: with a corrupting tamperer the harness must
	// report failures.
	Tamper func(m *mem.Memory, block uint64)
	// Progress, when non-nil, is called after each checked program with
	// the completion count, total, and failures so far. Serialized.
	Progress func(done, total, failed int)
	// OnProgramStart, when non-nil, is called as each program begins
	// checking. Unlike Progress it is NOT serialized: it runs on the
	// worker goroutine, so fleet reporters (internal/obs) see live worker
	// occupancy. The callee must be safe for concurrent use.
	OnProgramStart func()
	// Ctx, when non-nil, cancels the campaign between programs (and, via
	// the worker pool, stops new ones from starting). Nil means run to
	// completion.
	Ctx context.Context
}

// DefaultSchemes is the realistic-scheme set the harness differentiates
// when Config.Schemes is nil.
func DefaultSchemes() []core.Scheme {
	return []core.Scheme{core.NoPrefetch, core.StridePF, core.GHB, core.SRP, core.GRPFix, core.GRPVar, core.GRPAdaptive}
}

// Failure is one conformance violation.
type Failure struct {
	Seed    int64
	Scheme  core.Scheme
	Variant string // "" for the fault-free pass
	Kind    string // run-error, no-halt, oracle-divergence, scheme-divergence, metric, attrib, cycle-bound, ideal-port, idle-corunner
	Detail  string
}

func (f Failure) String() string {
	v := f.Variant
	if v == "" {
		v = "nofault"
	}
	return fmt.Sprintf("seed %d %s/%s: %s: %s", f.Seed, f.Scheme, v, f.Kind, f.Detail)
}

// ProgramReport is the outcome of checking one generated program.
type ProgramReport struct {
	Seed       int64
	Skipped    bool
	SkipReason string
	Cells      int // simulator cells run
	Relations  int // timing-referee runs: ideal port and idle co-runner
	Steps      int // interpreter oracle steps
	Failures   []Failure
}

// Report aggregates a whole conformance campaign.
type Report struct {
	Programs []ProgramReport
}

// Failed reports whether any program failed.
func (r *Report) Failed() bool {
	for _, p := range r.Programs {
		if len(p.Failures) > 0 {
			return true
		}
	}
	return false
}

// Failures collects every failure in seed order.
func (r *Report) Failures() []Failure {
	var out []Failure
	for _, p := range r.Programs {
		out = append(out, p.Failures...)
	}
	return out
}

// Summary renders the deterministic campaign summary: identical input and
// configuration produce byte-identical text, whatever the worker count.
func (r *Report) Summary() string {
	var cells, relations, skipped int
	for _, p := range r.Programs {
		cells += p.Cells
		relations += p.Relations
		if p.Skipped {
			skipped++
		}
	}
	fails := r.Failures()
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: %d programs, %d cells, %d relation runs, %d skipped, %d failures\n",
		len(r.Programs), cells, relations, skipped, len(fails))
	for _, f := range fails {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	if skipped > 0 {
		var seeds []int64
		for _, p := range r.Programs {
			if p.Skipped {
				seeds = append(seeds, p.Seed)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		fmt.Fprintf(&b, "  skipped seeds: %v\n", seeds)
	}
	return b.String()
}

// Run checks cfg.N generated programs on up to cfg.Jobs workers. Each
// worker generates its own program from its seed and runs that program's
// cells serially, so parallelism never reorders anything observable.
func Run(cfg Config) (*Report, error) {
	if cfg.N <= 0 {
		cfg.N = 1
	}
	rep := &Report{Programs: make([]ProgramReport, cfg.N)}
	var done, failed int
	progress := func(failures int) {}
	if cfg.Progress != nil {
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		progress = func(failures int) {
			<-mu
			done++
			failed += failures
			cfg.Progress(done, cfg.N, failed)
			mu <- struct{}{}
		}
	}
	err := campaign.ParallelFor(cfg.Ctx, cfg.N, cfg.Jobs, func(i int) error {
		if cfg.OnProgramStart != nil {
			cfg.OnProgramStart()
		}
		pr := CheckSeed(cfg, cfg.Seed+int64(i))
		rep.Programs[i] = *pr
		progress(len(pr.Failures))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// CheckSeed generates the program for one seed and checks it.
func CheckSeed(cfg Config, seed int64) *ProgramReport {
	w := progen.Generate(seed, cfg.Gen)
	return CheckWorkload(cfg, seed, w)
}

// CheckWorkload differentially checks one workload (the shrinker calls it
// with mutated programs; everyone else goes through CheckSeed).
func CheckWorkload(cfg Config, seed int64, w *progen.Workload) *ProgramReport {
	pr := &ProgramReport{Seed: seed}
	fail := func(sc core.Scheme, variant, kind, detail string) {
		pr.Failures = append(pr.Failures, Failure{
			Seed: seed, Scheme: sc, Variant: variant, Kind: kind, Detail: detail,
		})
	}

	if err := w.Prog.Validate(); err != nil {
		fail(core.NoPrefetch, "", "run-error", fmt.Sprintf("generator produced invalid program: %v", err))
		return pr
	}

	// Oracle: interpret the program; its step count sets the simulated
	// instruction budget, which only a genuine divergence exhausts (the
	// no-halt check then reports it).
	orc, err := workloads.RunOracle(specName(seed), w, cfg.MaxSteps)
	if err != nil {
		pr.Skipped = true
		pr.SkipReason = err.Error()
		return pr
	}
	pr.Steps = orc.Steps
	oracle, spec := orc.Digest, orc.Spec

	schemes := cfg.Schemes
	if schemes == nil {
		schemes = DefaultSchemes()
	}

	cellOptions := func(plan *faults.Plan) core.Options {
		opt := cloneOptions(cfg.Base)
		opt.Faults = plan
		opt.CheckInvariants = true
		opt.TamperPrefetchFill = cfg.Tamper
		// Every cell carries the attribution ledger: core.Run fails the
		// cell outright on a conservation violation, and checkMetrics
		// reconciles the ledger against the counter-based metrics.
		opt.Attrib = true
		return opt
	}
	runCell := func(sc core.Scheme, variant string, plan *faults.Plan) *core.Result {
		pr.Cells++
		r, err := core.Run(spec, sc, cellOptions(plan))
		if err != nil {
			fail(sc, variant, "run-error", err.Error())
			return nil
		}
		if !r.CPU.Halted {
			fail(sc, variant, "no-halt", fmt.Sprintf("budget %d instrs exhausted (oracle took %d steps)", orc.Budget, orc.Steps))
			return nil
		}
		return r
	}

	// Perfect-L2 reference: the cycle lower bound, itself also held to the
	// oracle. Its tamperer never fires (a perfect L2 issues no prefetches).
	ref := runCell(core.PerfectL2, "", nil)
	if ref != nil && ref.MemDigest != oracle {
		fail(core.PerfectL2, "", "oracle-divergence",
			fmt.Sprintf("mem digest %016x, oracle %016x", ref.MemDigest, oracle))
	}
	if ref != nil {
		pr.Relations++
		diffs, err := idealPortDiff(spec, cfg.Base, ref)
		switch {
		case err != nil:
			fail(core.PerfectL2, "", "run-error", fmt.Sprintf("ideal port: %v", err))
		case len(diffs) > 0:
			fail(core.PerfectL2, "", "ideal-port", "first divergent field: "+diffs[0])
		}
	}

	var archRef *core.Result
	if ref != nil {
		archRef = ref
	}
	var baseClean *core.Result // fault-free no-prefetch cell, the coverage baseline
	type namedResult struct {
		r       *core.Result
		variant string
	}
	var clean []namedResult

	variants := append([]Variant{{Name: "", Plan: nil}}, cfg.Variants...)
	for _, sc := range schemes {
		for _, v := range variants {
			r := runCell(sc, v.Name, v.Plan)
			if r == nil {
				continue
			}
			if sc == core.NoPrefetch && v.Plan == nil {
				baseClean = r
			}
			if r.MemDigest != oracle {
				fail(sc, v.Name, "oracle-divergence",
					fmt.Sprintf("mem digest %016x, oracle %016x", r.MemDigest, oracle))
				continue
			}
			if archRef == nil {
				archRef = r
			} else if r.ArchDigest != archRef.ArchDigest {
				fail(sc, v.Name, "scheme-divergence",
					fmt.Sprintf("arch digest %016x, %s gave %016x", r.ArchDigest, archRef.Scheme, archRef.ArchDigest))
			}
			checkMetrics(r, ref, fail, sc, v.Name)
			clean = append(clean, namedResult{r: r, variant: v.Name})
			// The idle co-runner relation, on fault-free cells; a co-run
			// refuses the fill tamper.
			if v.Plan == nil && cfg.Tamper == nil {
				pr.Relations++
				diffs, err := coRunnerDiff(spec, idleSpec, sc, cellOptions(nil), r)
				switch {
				case err != nil:
					fail(sc, "", "run-error", fmt.Sprintf("idle co-runner: %v", err))
				case len(diffs) > 0:
					fail(sc, "", "idle-corunner", "core 0 beside an idle core vs solo; first divergent field: "+diffs[0])
				}
			}
		}
	}
	// Coverage against the no-prefetch baseline: structurally bounded above
	// by 100%; negative values are legitimate (cache pollution — the
	// paper's SRP/ammp cell), so only the upper bound is asserted.
	if baseClean != nil {
		for _, nr := range clean {
			if cov := core.Coverage(nr.r, baseClean); cov > 100 {
				fail(nr.r.Scheme, nr.variant, "metric",
					fmt.Sprintf("coverage %.2f%% exceeds 100%%", cov))
			}
		}
	}
	return pr
}

// checkMetrics asserts the metric sanity invariants on one cell.
func checkMetrics(r, perfect *core.Result, fail func(core.Scheme, string, string, string), sc core.Scheme, variant string) {
	if a := r.Accuracy(); a < 0 || a > 100 {
		fail(sc, variant, "metric", fmt.Sprintf("accuracy %.2f%% outside [0,100]", a))
	}
	// Every demand fill moved one block out of DRAM; prefetches and
	// writebacks only add.
	blockBytes := uint64(64)
	if min := blockBytes * r.L2.DemandFills; r.TrafficBytes < min {
		fail(sc, variant, "metric",
			fmt.Sprintf("traffic %d B below %d demand fills x %d B", r.TrafficBytes, r.L2.DemandFills, blockBytes))
	}
	if perfect != nil && r.CPU.Cycles < perfect.CPU.Cycles {
		fail(sc, variant, "cycle-bound",
			fmt.Sprintf("%d cycles beats perfect-L2 %d", r.CPU.Cycles, perfect.CPU.Cycles))
	}
	checkAttrib(r, fail, sc, variant)
}

// checkAttrib reconciles the attribution ledger's summary with the
// counter-based metrics the rest of the report is built from. The ledger
// is an independent second bookkeeping of the same prefetch lifecycle, so
// any disagreement is a bug in one of the two. Every cell runs with the
// ledger attached, so a missing summary is a failure too.
func checkAttrib(r *core.Result, fail func(core.Scheme, string, string, string), sc core.Scheme, variant string) {
	s := r.Attrib
	if s == nil {
		fail(sc, variant, "attrib", "no attribution summary from a cell run with the ledger attached")
		return
	}
	if err := s.CheckConservation(); err != nil {
		fail(sc, variant, "attrib", err.Error())
		return
	}
	if s.Issued != r.Mem.PrefetchesIssued {
		fail(sc, variant, "attrib",
			fmt.Sprintf("ledger issued %d, MemStats issued %d", s.Issued, r.Mem.PrefetchesIssued))
	}
	if s.Counts.Cancelled != r.Mem.PrefetchesCancelled {
		fail(sc, variant, "attrib",
			fmt.Sprintf("ledger cancelled %d, MemStats cancelled %d", s.Counts.Cancelled, r.Mem.PrefetchesCancelled))
	}
	// Every issued prefetch either really filled the L2 (PrefetchFills),
	// arrived to find its block already resident (Redundant), or was
	// cancelled in flight — a three-way partition of the issue count.
	if fills := r.L2.PrefetchFills + s.Counts.Redundant + s.Counts.Cancelled; fills != s.Issued {
		fail(sc, variant, "attrib",
			fmt.Sprintf("issued %d != L2 prefetch fills %d + redundant %d + cancelled %d",
				s.Issued, r.L2.PrefetchFills, s.Counts.Redundant, s.Counts.Cancelled))
	}
	// The cache's useful/useless counters see every prefetched line,
	// including re-prefetches of blocks whose ledger entry is already
	// terminal, so the ledger's classes lower-bound them.
	if s.Counts.Useful > r.L2.UsefulPrefetches {
		fail(sc, variant, "attrib",
			fmt.Sprintf("ledger useful %d exceeds L2 useful prefetches %d", s.Counts.Useful, r.L2.UsefulPrefetches))
	}
	if s.Counts.Late > r.Mem.PrefetchLates {
		fail(sc, variant, "attrib",
			fmt.Sprintf("ledger late %d exceeds MemStats lates %d", s.Counts.Late, r.Mem.PrefetchLates))
	}
	if dead := s.Counts.EvictedUnused + s.Counts.Pollution; dead > r.L2.UselessPrefetches {
		fail(sc, variant, "attrib",
			fmt.Sprintf("ledger evicted %d + pollution %d exceeds L2 useless prefetches %d",
				s.Counts.EvictedUnused, s.Counts.Pollution, r.L2.UselessPrefetches))
	}
}

// specName names the spec of generated program seed.
func specName(seed int64) string { return fmt.Sprintf("conform%d", seed) }

// cloneOptions copies the options including pointed-to configs, so cells
// never alias each other's mutable state.
func cloneOptions(base core.Options) core.Options {
	opt := base
	if base.Mem != nil {
		m := *base.Mem
		opt.Mem = &m
	}
	if base.CPU != nil {
		c := *base.CPU
		opt.CPU = &c
	}
	return opt
}

// ParseSchemes resolves a comma-separated scheme list through
// core.SchemeByName, aliases included. "all" means DefaultSchemes (the
// realistic set — perfect caches are always run as references, never
// differentiated).
func ParseSchemes(csv string) ([]core.Scheme, error) {
	if strings.EqualFold(strings.TrimSpace(csv), "all") || strings.TrimSpace(csv) == "" {
		return DefaultSchemes(), nil
	}
	var out []core.Scheme
	for _, part := range strings.Split(csv, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		sc, err := core.SchemeByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return DefaultSchemes(), nil
	}
	return out, nil
}

// ParseVariants parses a semicolon-separated list of fault specs (each in
// the internal/faults grammar: a preset name or key=value assignments)
// into fault variants. "none" or "" yields no variants (the fault-free
// pass always runs).
func ParseVariants(spec string) ([]Variant, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || strings.EqualFold(spec, "none") {
		return nil, nil
	}
	var out []Variant
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		plan, err := faults.Parse(part)
		if err != nil {
			return nil, err
		}
		p := plan
		out = append(out, Variant{Name: part, Plan: &p})
	}
	return out, nil
}

// StaticInstrs compiles the program against a scratch memory and returns
// its static instruction count — the shrinker's size metric and the
// "≤ 20-instruction reproducer" yardstick.
func StaticInstrs(p *lang.Program) (int, error) {
	m := mem.New()
	ip, _, _, err := compiler.CompileWorkloadOpts(p, m, compiler.PolicyDefault, compiler.CodegenOptions{})
	if err != nil {
		return 0, err
	}
	return len(ip.Instrs), nil
}
