// Package core is the public face of the GRP reproduction: it wires
// workloads, the compiler, the core model, the memory hierarchy and the
// prefetch engines into runnable configurations matching the paper's
// evaluated schemes, and exposes one driver per paper table and figure.
package core

import (
	"context"
	"fmt"
	"strings"

	"grp/internal/attrib"
	"grp/internal/cache"
	"grp/internal/compiler"
	"grp/internal/cpu"
	"grp/internal/dram"
	"grp/internal/faults"
	"grp/internal/isa"
	"grp/internal/mem"
	"grp/internal/metrics"
	"grp/internal/prefetch"
	"grp/internal/sim"
	"grp/internal/trace"
	"grp/internal/workloads"
)

// Scheme identifies one evaluated configuration.
type Scheme int

// The schemes of the paper's evaluation (Section 5).
const (
	// NoPrefetch is the baseline memory system.
	NoPrefetch Scheme = iota
	// PerfectL1 makes every L1 access hit (Figure 1's upper bound).
	PerfectL1
	// PerfectL2 makes every L2 access hit (the gap reference point).
	PerfectL2
	// StridePF is Sherwood-style predictor-directed stream buffers.
	StridePF
	// SRP is scheduled region prefetching without compiler hints.
	SRP
	// GRPFix is guided region prefetching with fixed 4 KB regions.
	GRPFix
	// GRPVar is guided region prefetching with variable-size regions.
	GRPVar
	// PointerOnly is the pure hardware pointer prefetcher (Figure 9).
	PointerOnly
	// SoftwarePF is classic Mowry-style software prefetching: the
	// compiler inserts PREF instructions ahead of spatial loads and no
	// hardware prefetcher runs. It is not one of the paper's evaluated
	// schemes (Section 2 explains why it cannot cover L2 latencies); it
	// is provided as the comparison foil and is not part of AllSchemes.
	SoftwarePF
	// GHB is a pure-hardware Global History Buffer prefetcher in the
	// PC/DC (per-PC index, delta correlation) organization — the modern
	// hardware baseline the paper's stride engine predates.
	GHB
	// GRPAdaptive is GRP/Var wrapped in a 5-state aggressiveness ladder:
	// region size, pointer fan-out, chase depth, and queue capacity adapt
	// each epoch to measured accuracy/coverage/lateness.
	GRPAdaptive
)

var schemeNames = map[Scheme]string{
	NoPrefetch: "base", PerfectL1: "perfectL1", PerfectL2: "perfectL2",
	StridePF: "stride", SRP: "srp", GRPFix: "grp/fix", GRPVar: "grp/var",
	PointerOnly: "ptr", SoftwarePF: "swpf", GHB: "ghb", GRPAdaptive: "grp-adaptive",
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// schemeAliases maps friendlier spellings, matched case-insensitively,
// to the names String prints.
var schemeAliases = map[string]string{
	"nopf": "base", "nopref": "base",
	"grpfix": "grp/fix", "grpvar": "grp/var", "pointer": "ptr",
	"grpadaptive": "grp-adaptive", "adaptive": "grp-adaptive",
}

// SchemeByName resolves a scheme name as printed by String, or one of
// its aliases. Every command, the sweep grammar and the service resolve
// scheme names here.
func SchemeByName(name string) (Scheme, error) {
	if a, ok := schemeAliases[strings.ToLower(name)]; ok {
		name = a
	}
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// AllSchemes lists every scheme in presentation order.
func AllSchemes() []Scheme {
	return []Scheme{NoPrefetch, PerfectL1, PerfectL2, StridePF, GHB, SRP, GRPFix, GRPVar, GRPAdaptive, PointerOnly}
}

// Options configures a run.
type Options struct {
	// Factor scales workload sizes (workloads.Test for unit tests,
	// workloads.Full for the paper tables).
	Factor workloads.Factor
	// Policy is the compiler's spatial-marking policy (Section 5.4).
	Policy compiler.Policy
	// Mem overrides the memory configuration; zero value uses the paper's.
	Mem *sim.MemConfig
	// CPU overrides the core configuration; zero value uses the paper's.
	CPU *cpu.Config
	// MaxInstrs overrides the workload's instruction budget when nonzero.
	MaxInstrs uint64
	// DisablePrioritizer runs prefetches at demand priority (ablation).
	DisablePrioritizer bool
	// PrefetchInsertMRU inserts prefetch fills at MRU instead of the
	// paper's LRU position (ablation).
	PrefetchInsertMRU bool
	// SRPFIFO issues prefetch regions oldest-first instead of the
	// hardware's LIFO scheduling (ablation; SRP scheme only).
	SRPFIFO bool
	// SRPRegionBlocks overrides the SRP region size in blocks when
	// nonzero (ablation; a power of two in [2, 64], checked by Validate).
	SRPRegionBlocks int
	// RecursionDepth overrides GRP's recursive chase depth when nonzero.
	RecursionDepth uint8
	// OpenPageFirst enables the paper's open-page-first prefetch issue
	// optimization (off by default, matching the main evaluation).
	OpenPageFirst bool
	// Metrics enables the telemetry layer: a per-run registry of
	// counters/gauges/latency histograms plus the cycle-driven sampler,
	// snapshotted into Result.Metrics after the run. Off by default; a
	// run without it pays no instrumentation cost. It describes one core,
	// so co-runs of two or more cores reject it, as they reject Timeline
	// and TamperPrefetchFill.
	Metrics bool
	// SampleInterval is the sampler period in cycles when Metrics is set
	// (0 uses the sampler default of 4096).
	SampleInterval uint64
	// Timeline, when non-nil, receives per-event spans (demand misses,
	// prefetch lifetimes, DRAM bank activity) for Perfetto export.
	Timeline *trace.Timeline
	// Attrib attaches the prefetch lifecycle attribution ledger: every
	// issued prefetch is followed to a terminal outcome class and the
	// digest lands in Result.Attrib. Run fails if the ledger's
	// conservation invariant does not hold at drain.
	Attrib bool
	// Faults, when non-nil and active, arms deterministic fault injection
	// across the hierarchy (see internal/faults); in a co-run one injector
	// serves every core. Faults perturb timing only; Result.ArchDigest is
	// identical to the fault-free run.
	Faults *faults.Plan
	// CheckInvariants turns on the periodic memory-system invariant
	// checker (every InvariantEvery accesses, default 4096, plus once at
	// drain). A violation aborts the run with a diagnostic dump.
	CheckInvariants bool
	// InvariantEvery is the checker period in accesses (0 = default).
	InvariantEvery uint64
	// Watchdog overrides the forward-progress watchdog thresholds; nil
	// uses the defaults. The watchdog is always armed.
	Watchdog *sim.WatchdogConfig
	// TamperPrefetchFill, when non-nil, is called with the functional
	// memory and the block address of every prefetch fill as it lands in
	// the L2. It exists solely so the conformance harness can model a
	// broken prefetch data path (a known-bad mutation its differential
	// check must catch). Never set outside tests; runs with it set bypass
	// the campaign result cache's semantics, so the cache key records it.
	TamperPrefetchFill func(m *mem.Memory, block uint64)
	// Cancel, when non-nil, is polled from the CPU commit loop (every few
	// thousand instructions); a non-nil return aborts the run with that
	// error. The campaign engine wires a context's Err here for per-cell
	// deadlines and graceful shutdown. Cancellation only ever stops a run
	// early — it cannot change a completed run's results — so it is
	// invisible to the campaign cache key.
	Cancel func() error
	// CoRun, when non-empty, runs the cell multi-core: the cell's bench
	// on core 0 and each listed workload on its own additional core, all
	// over one shared L2 and DRAM (see RunCoRun). The cell's Result is
	// core 0's per-core view with the cross-core context in Result.CoRun.
	// Part of the campaign cache key (spec axis "corun").
	CoRun []string
}

// Validate checks the run options: any overridden CPU, cache, or DRAM
// configuration and the fault plan must be internally consistent, and an
// SRP region-size override must be a region the queue can hold. Run
// calls it; drivers may call it earlier for friendlier errors.
func (o *Options) Validate() error {
	if n := o.SRPRegionBlocks; n != 0 && (n < 2 || n > prefetch.RegionBlocks || n&(n-1) != 0) {
		return fmt.Errorf("core: SRPRegionBlocks %d: want 0 (the default) or a power of two in [2, %d]",
			n, prefetch.RegionBlocks)
	}
	if o.CPU != nil {
		if err := o.CPU.Validate(); err != nil {
			return err
		}
	}
	if o.Mem != nil {
		if err := o.Mem.L1.Validate(); err != nil {
			return err
		}
		if err := o.Mem.L2.Validate(); err != nil {
			return err
		}
		if err := o.Mem.DRAM.Validate(); err != nil {
			return err
		}
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Result captures everything measured in one run.
type Result struct {
	Bench  string
	Scheme Scheme

	CPU  cpu.Result
	L1   cache.Stats
	L2   cache.Stats
	Mem  sim.MemStats
	Dram dram.Stats
	PF   prefetch.Stats

	// TrafficBytes is total memory traffic (demand + prefetch +
	// writeback transfers).
	TrafficBytes uint64
	// Hints is the static hint census of the compiled binary (Table 3).
	Hints isa.HintCounts
	// Metrics is the end-of-run telemetry snapshot (nil unless
	// Options.Metrics was set).
	Metrics *metrics.Snapshot
	// ArchDigest fingerprints the run's architectural results: final
	// registers, functional memory contents, and timing-independent
	// instruction counts. Prefetching is purely speculative, so the
	// digest must not vary across schemes' timing behavior under fault
	// injection — the metamorphic property the fault harness checks.
	ArchDigest uint64
	// MemDigest is the raw functional memory digest (mem.Digest) after
	// the run. Unlike ArchDigest it involves no registers or counters, so
	// it is directly comparable with an interpreter run over the same
	// placed-and-initialized memory — the conformance oracle check.
	MemDigest uint64
	// FaultCounts reports injected faults (zero without a fault plan). In
	// a co-run it is the shared injector's total, the same on every core.
	FaultCounts faults.Counts
	// Attrib is the prefetch lifecycle attribution digest (nil unless
	// Options.Attrib was set).
	Attrib *attrib.Summary `json:",omitempty"`
	// CoRun is the cross-core context of a co-run cell (nil on solo runs).
	CoRun *CoRunInfo `json:",omitempty"`
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 { return r.CPU.IPC() }

// Accuracy returns the fraction (percent) of issued prefetches that were
// demand-referenced, counting late (in-flight) references as useful, as
// the paper's Table 5 accuracy metric does.
func (r *Result) Accuracy() float64 { return accuracy(r.L2, r.Mem) }

// Run simulates one benchmark under one scheme: a one-core run of
// runCores, the code behind RunCoRun, with no co-run context in the
// Result.
func Run(spec *workloads.Spec, scheme Scheme, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(opt.CoRun) > 0 {
		return runCoRunCell(spec, scheme, opt)
	}
	rs, err := runCores([]*workloads.Spec{spec}, scheme, opt, false, engineFor)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// runCores runs solo and co-run cells alike. It builds one
// core per spec — private functional memory, compiled program, L1,
// prefetch engine, L2 MSHR partition and prefetch budget — over one
// memory system with a shared L2 and DRAM, runs the cores' threads to
// completion, drains the memory system, and returns each core's Result.
// Threads interleave deterministically: the unfinished core whose last
// commit is furthest behind in cycles steps next (the lower core id on
// ties), so a run is exactly reproducible at any host parallelism. With
// coRun set, each Result carries its CoRunInfo. newEngine builds each
// core's prefetch engine: engineFor, or a wrapper of it in tests.
func runCores(specs []*workloads.Spec, scheme Scheme, opt Options, coRun bool, newEngine engineMaker) ([]*Result, error) {
	n := len(specs)
	benches := make([]string, n)
	for i, spec := range specs {
		benches[i] = spec.Name
	}
	// fail labels an error with the cell, and with the core in a co-run.
	fail := func(i int, err error) error {
		if !coRun {
			return fmt.Errorf("core: running %s/%s: %w", specs[0].Name, scheme, err)
		}
		if i >= 0 {
			err = fmt.Errorf("core %d (%s): %w", i, benches[i], err)
		}
		return fmt.Errorf("core: co-running %v/%s: %w", benches, scheme, err)
	}

	type coreState struct {
		m      *mem.Memory
		prog   *isa.Program
		engine prefetch.Engine
		port   *sim.CorePort
		ledger *attrib.Ledger
		core   *cpu.Core
		thread *cpu.Thread

		maxInstrs uint64
	}
	states := make([]coreState, n)
	engines := make([]prefetch.Engine, n)
	for i, spec := range specs {
		st := &states[i]
		built := spec.Build(opt.Factor)
		st.m = mem.New()
		var cgOpts compiler.CodegenOptions
		if scheme == SoftwarePF {
			cgOpts.SoftwarePrefetch = true
		}
		prog, layout, _, err := compiler.CompileWorkloadOpts(built.Prog, st.m, opt.Policy, cgOpts)
		if err != nil {
			return nil, fmt.Errorf("core: compiling %s: %w", spec.Name, err)
		}
		built.Init(st.m, layout)
		st.prog = prog
		st.engine = newEngine(scheme, spec, st.m, opt)
		st.maxInstrs = built.MaxInstrs
		engines[i] = st.engine
	}

	memCfg := sim.DefaultMemConfig()
	if opt.Mem != nil {
		memCfg = *opt.Mem
	}
	switch scheme {
	case PerfectL1:
		memCfg.L1.Perfect = true
	case PerfectL2:
		memCfg.L2.Perfect = true
	}
	if opt.PrefetchInsertMRU {
		memCfg.L2.PrefetchInsertMRU = true
	}
	if opt.OpenPageFirst {
		memCfg.OpenPageFirst = true
	}

	ms, err := sim.NewCoRunSystem(memCfg, engines)
	if err != nil {
		return nil, fmt.Errorf("core: building memory system: %w", err)
	}
	for i := range states {
		states[i].port = ms.Port(i)
	}
	if opt.DisablePrioritizer {
		ms.SetPrioritizer(false)
	}
	// Faults are armed before telemetry so the sinks observe the wrapped
	// engines; the watchdog is always on (its defaults never fire on a
	// healthy run).
	if opt.Faults.Active() {
		ms.SetFaults(faults.NewInjector(opt.Faults))
	}
	wdCfg := sim.WatchdogConfig{}
	if opt.Watchdog != nil {
		wdCfg = *opt.Watchdog
	}
	ms.SetWatchdog(wdCfg)
	if opt.CheckInvariants {
		ms.EnableInvariantChecks(opt.InvariantEvery)
	}
	// The single-core instruments (validateCoRun rejects them on more
	// cores) observe core 0.
	if opt.TamperPrefetchFill != nil {
		m := states[0].m
		ms.SetFillTamper(func(block uint64) { opt.TamperPrefetchFill(m, block) })
	}
	var reg *metrics.Registry
	var smp *metrics.Sampler
	if opt.Metrics {
		reg = metrics.NewRegistry()
		smp = metrics.NewSampler(opt.SampleInterval)
	}
	if reg != nil || opt.Timeline != nil {
		ms.AttachTelemetry(reg, smp, opt.Timeline)
	}

	for i := range states {
		st := &states[i]
		if opt.Attrib {
			st.ledger = attrib.NewLedger()
			st.port.AttachLedger(st.ledger)
		}
		cpuCfg := cpu.Default()
		if opt.CPU != nil {
			cpuCfg = *opt.CPU
		}
		cpuCfg.MaxInstrs = st.maxInstrs
		if opt.MaxInstrs != 0 {
			cpuCfg.MaxInstrs = opt.MaxInstrs
		}
		cpuCfg.Cancel = opt.Cancel
		c, err := cpu.New(cpuCfg, st.m, st.port)
		if err != nil {
			return nil, fmt.Errorf("core: building core %d: %w", i, err)
		}
		st.core = c
	}
	if reg != nil {
		c := states[0].core
		c.RegisterMetrics(reg)
		// IPC joins the sampler's series; the probes fire from inside the
		// memory system, so they see the core's live commit progress.
		smp.Watch("cpu.ipc", func() float64 {
			i, cy := c.Progress()
			if cy == 0 {
				return 0
			}
			return float64(i) / float64(cy)
		})
	}

	// Watchdog and invariant aborts surface from deep inside the timing
	// pump as typed panics; convert them back into errors here.
	failed := -1 // the core whose Start or Step failed
	err = func() (err error) {
		defer sim.RecoverAbort(&err)
		for i := range states {
			t, serr := states[i].core.Start(states[i].prog)
			if serr != nil {
				failed = i
				return serr
			}
			states[i].thread = t
		}
		for {
			// best is the core furthest behind, next the runner-up. best
			// keeps stepping while it stays behind next, so one core runs
			// as a plain loop; cross-core submission-time jitter from the
			// commit granularity is absorbed by the pump's monotonic clamp.
			best, next := -1, -1
			for i := range states {
				th := states[i].thread
				switch {
				case th.Done():
				case best < 0 || th.LastCommitCycle() < states[best].thread.LastCommitCycle():
					best, next = i, best
				case next < 0 || th.LastCommitCycle() < states[next].thread.LastCommitCycle():
					next = i
				}
			}
			if best < 0 {
				break
			}
			th := states[best].thread
			for {
				if serr := th.Step(); serr != nil {
					failed = best
					return serr
				}
				if th.Done() || next >= 0 && !behind(th, best, states[next].thread, next) {
					break
				}
			}
		}
		ms.Drain()
		return nil
	}()
	if err != nil {
		return nil, fail(failed, err)
	}

	var snap *metrics.Snapshot
	if reg != nil {
		snap = metrics.Snap(reg, smp)
	}
	results := make([]*Result, n)
	for i := range states {
		st := &states[i]
		var summary *attrib.Summary
		if st.ledger != nil {
			st.ledger.Finalize()
			if cerr := st.ledger.CheckConservation(); cerr != nil {
				return nil, fail(i, cerr)
			}
			summary = st.ledger.Summarize()
			// The memory system is done with it (the run drained above), so
			// hand the slab and tables to the next cell.
			st.port.AttachLedger(nil)
			st.ledger.Recycle()
		}
		cres := st.thread.Result()
		md := st.m.Digest()
		l1, l2, dc := st.port.Hierarchy()
		r := &Result{
			Bench:        benches[i],
			Scheme:       scheme,
			CPU:          cres,
			L1:           l1.Stats(),
			L2:           l2.Stats(),
			Mem:          st.port.Stats(),
			Dram:         dc.Stats(),
			PF:           st.engine.Stats(),
			TrafficBytes: dc.TrafficBytes(),
			Hints:        st.prog.CountHints(),
			Metrics:      snap,
			ArchDigest:   archDigest(st.core, cres, md),
			MemDigest:    md,
			FaultCounts:  ms.FaultCounts(),
			Attrib:       summary,
		}
		if coRun {
			r.CoRun = &CoRunInfo{
				NCores: n, Core: i,
				Benches:         append([]string(nil), benches...),
				AggTrafficBytes: dc.TrafficBytes(),
			}
			r.CoRun.PollutionCaused, r.CoRun.PollutionSuffered = st.port.Pollution()
		}
		results[i] = r
	}
	return results, nil
}

// behind reports whether thread a (core ai) steps before thread b (core
// bi) under the interleave order: fewer committed cycles, then the lower
// core id.
func behind(a *cpu.Thread, ai int, b *cpu.Thread, bi int) bool {
	ac, bc := a.LastCommitCycle(), b.LastCommitCycle()
	return ac < bc || ac == bc && ai < bi
}

// archDigest fingerprints the architectural outcome of a run: the final
// register file, the functional memory digest, and the timing-independent
// instruction counts. Cycle counts and cache/DRAM statistics are
// deliberately excluded — they are exactly what faults may perturb.
func archDigest(c *cpu.Core, cres cpu.Result, memDigest uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, r := range c.Regs() {
		mix(r)
	}
	mix(memDigest)
	mix(cres.Instrs)
	mix(cres.Loads)
	mix(cres.Stores)
	mix(cres.Branches)
	mix(cres.Mispredicts)
	if cres.Halted {
		mix(1)
	} else {
		mix(0)
	}
	return h
}

// engineMaker builds one core's prefetch engine over its functional
// memory m.
type engineMaker func(scheme Scheme, spec *workloads.Spec, m *mem.Memory, opt Options) prefetch.Engine

// engineFor is the engineMaker of every run: the scheme's engine.
func engineFor(scheme Scheme, spec *workloads.Spec, m *mem.Memory, opt Options) prefetch.Engine {
	switch scheme {
	case StridePF:
		return prefetch.NewStride(prefetch.DefaultStrideConfig())
	case SRP:
		return prefetch.NewSRPAblation(opt.SRPRegionBlocks, opt.SRPFIFO)
	case GRPFix, GRPVar:
		cfg := prefetch.DefaultGRPConfig()
		cfg.Variable = scheme == GRPVar
		cfg.RecursionDepth = grpDepth(spec, opt)
		return prefetch.NewGRP(cfg, m)
	case GRPAdaptive:
		cfg := prefetch.DefaultGRPConfig()
		cfg.RecursionDepth = grpDepth(spec, opt)
		return prefetch.NewAdaptiveGRP(cfg, m)
	case GHB:
		return prefetch.NewGHB(prefetch.DefaultGHBConfig())
	case PointerOnly:
		return prefetch.NewPointerOnly(m, grpDepth(spec, opt))
	default:
		return prefetch.NewNull()
	}
}

// grpDepth returns the recursive chase depth: the paper uses 6, except 3
// for mcf "to make simulation tractable" (footnote 2).
func grpDepth(spec *workloads.Spec, opt Options) uint8 {
	if opt.RecursionDepth != 0 {
		return opt.RecursionDepth
	}
	if spec.Name == "mcf" {
		return 3
	}
	return 6
}

// Suite holds results for a set of benchmarks across schemes, shared by
// the per-table experiment drivers so each (bench, scheme) pair simulates
// once.
type Suite struct {
	Opt     Options
	Benches []string
	results map[string]map[Scheme]*Result
}

// Cell identifies one (bench, scheme) simulation of a suite grid.
type Cell struct {
	Bench  string
	Scheme Scheme
}

// SuiteCells enumerates the bench × scheme grid in canonical order:
// benches outer (presentation order), schemes inner. Every suite reducer
// consumes results in exactly this order, which is what lets a parallel
// runner produce output byte-identical to the serial path.
func SuiteCells(benches []string, schemes []Scheme) []Cell {
	cells := make([]Cell, 0, len(benches)*len(schemes))
	for _, b := range benches {
		for _, sc := range schemes {
			cells = append(cells, Cell{Bench: b, Scheme: sc})
		}
	}
	return cells
}

// CellRunner executes a suite grid under shared options and returns
// results positionally: results[i] belongs to cells[i]. RunCells is the
// serial reference implementation; internal/campaign provides the
// parallel, cached one. A cancelled ctx stops the grid between cells
// (and, via Options.Cancel, inside one).
type CellRunner func(ctx context.Context, cells []Cell, opt Options) ([]*Result, error)

// RunCells is the serial CellRunner: it simulates each cell in order.
func RunCells(ctx context.Context, cells []Cell, opt Options) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil && opt.Cancel == nil {
		opt.Cancel = ctx.Err
	}
	out := make([]*Result, len(cells))
	for i, c := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec, err := workloads.ByName(c.Bench)
		if err != nil {
			return nil, err
		}
		r, err := Run(spec, c.Scheme, opt)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// NewSuite returns an empty suite shell for the given benches; runners
// fill it with Put.
func NewSuite(benches []string, opt Options) *Suite {
	return &Suite{Opt: opt, Benches: benches, results: map[string]map[Scheme]*Result{}}
}

// Put stores a result under its (bench, scheme) cell.
func (s *Suite) Put(r *Result) {
	m := s.results[r.Bench]
	if m == nil {
		m = map[Scheme]*Result{}
		s.results[r.Bench] = m
	}
	m[r.Scheme] = r
}

// RunSuiteWith simulates the grid through the given runner and reduces
// the results in canonical cell order — the single ordering code path
// shared by the serial and campaign-engine suite paths. A nil benches
// runs every workload; a nil schemes runs all of them.
func RunSuiteWith(ctx context.Context, benches []string, schemes []Scheme, opt Options, run CellRunner) (*Suite, error) {
	if benches == nil {
		benches = workloads.Names()
	}
	if schemes == nil {
		schemes = AllSchemes()
	}
	cells := SuiteCells(benches, schemes)
	rs, err := run(ctx, cells, opt)
	if err != nil {
		return nil, err
	}
	if len(rs) != len(cells) {
		return nil, fmt.Errorf("core: runner returned %d results for %d cells", len(rs), len(cells))
	}
	s := NewSuite(benches, opt)
	for i, c := range cells {
		if rs[i] == nil {
			return nil, fmt.Errorf("core: runner returned no result for %s/%s", c.Bench, c.Scheme)
		}
		s.Put(rs[i])
	}
	return s, nil
}

// RunSuite simulates the given benchmarks under the given schemes through
// the serial reference runner.
func RunSuite(benches []string, schemes []Scheme, opt Options) (*Suite, error) {
	return RunSuiteWith(context.Background(), benches, schemes, opt, RunCells)
}

// Get returns the result for (bench, scheme), or nil if it was not run.
func (s *Suite) Get(bench string, sc Scheme) *Result {
	m := s.results[bench]
	if m == nil {
		return nil
	}
	return m[sc]
}

// Included reports whether the benchmark participates in timing results
// (crafty is excluded, matching the paper's Section 5.1).
func Included(bench string) bool {
	sp, err := workloads.ByName(bench)
	return err == nil && !sp.Exclude
}

// TimedBenches filters s.Benches to those included in timing results.
func (s *Suite) TimedBenches() []string {
	var out []string
	for _, b := range s.Benches {
		if Included(b) {
			out = append(out, b)
		}
	}
	return out
}
