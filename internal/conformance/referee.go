package conformance

import (
	"fmt"

	"grp/internal/cache"
	"grp/internal/compiler"
	"grp/internal/core"
	"grp/internal/cpu"
	"grp/internal/isa"
	"grp/internal/lang"
	"grp/internal/mem"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// The timing referees. Prefetching perturbs timing only, so the oracle and
// cross-scheme checks cannot see a timing bug; these relations can, and
// none of them needs a second copy of the engine:
//
//   - the ideal port: under a perfect L2 the engine reduces to a private
//     L1 with fixed hit latencies, so a core driving that model alone
//     must take exactly the perfect-L2 cell's cycles;
//   - the idle co-runner: a co-run beside a core that makes no memory
//     access must leave core 0's Result exactly as it is solo.
//
// A third relation, a muted engine equals none, needs the core package's
// engine factory and lives in its tests.

// idealPort is the ideal-port referee's memory model: a private L1 over an
// L2 that always hits, with fixed hit latencies and no in-flight table,
// MSHR, DRAM or prefetch engine. With clamp set it moves each request up
// to the latest time submitted so far, the program-order submission clamp
// of sim.CorePort.
type idealPort struct {
	l1           *cache.Cache
	l1Lat, l2Lat uint64
	clamp        bool
	last         uint64 // latest submission time, kept with clamp set
}

func (p *idealPort) submit(now uint64) uint64 {
	if p.clamp {
		now = max(now, p.last)
		p.last = now
	}
	return now
}

func (p *idealPort) access(addr uint64, write bool, now uint64) uint64 {
	now = p.submit(now)
	if hit, _ := p.l1.Access(addr, write); hit {
		return now + p.l1Lat
	}
	p.l1.Fill(p.l1.BlockAddr(addr), false, write)
	return now + p.l1Lat + p.l2Lat
}

func (p *idealPort) Load(_, addr uint64, _ isa.Hint, _ uint8, now uint64) uint64 {
	return p.access(addr, false, now)
}

func (p *idealPort) Store(_, addr uint64, now uint64) uint64 { return p.access(addr, true, now) }

func (p *idealPort) SoftwarePrefetch(_, now uint64) { p.submit(now) }

func (p *idealPort) SetBound(uint64) {}

func (p *idealPort) Indirect(uint64, uint64, uint) {}

// runIdealPort runs spec on a core that drives the ideal port, built as
// core.Run builds a cell: the same program, memory image, core
// configuration and instruction budget. It returns the core's Result and
// the L1's statistics.
func runIdealPort(spec *workloads.Spec, opt core.Options, clamp bool) (cpu.Result, cache.Stats, error) {
	built := spec.Build(opt.Factor)
	m := mem.New()
	prog, layout, _, err := compiler.CompileWorkloadOpts(built.Prog, m, opt.Policy, compiler.CodegenOptions{})
	if err != nil {
		return cpu.Result{}, cache.Stats{}, err
	}
	built.Init(m, layout)
	memCfg := sim.DefaultMemConfig()
	if opt.Mem != nil {
		memCfg = *opt.Mem
	}
	l1, err := cache.New(memCfg.L1)
	if err != nil {
		return cpu.Result{}, cache.Stats{}, err
	}
	port := &idealPort{l1: l1, l1Lat: uint64(memCfg.L1.HitLatency), l2Lat: uint64(memCfg.L2.HitLatency), clamp: clamp}
	cfg := cpu.Default()
	if opt.CPU != nil {
		cfg = *opt.CPU
	}
	cfg.MaxInstrs = built.MaxInstrs
	if opt.MaxInstrs != 0 {
		cfg.MaxInstrs = opt.MaxInstrs
	}
	c, err := cpu.New(cfg, m, port)
	if err != nil {
		return cpu.Result{}, cache.Stats{}, err
	}
	res, err := c.Run(prog)
	return res, l1.Stats(), err
}

// idealPortDiff runs the ideal port (clamp set) and returns how it
// differs from perfect, the perfect-L2 cell of the same spec and options.
func idealPortDiff(spec *workloads.Spec, opt core.Options, perfect *core.Result) ([]string, error) {
	res, l1, err := runIdealPort(spec, opt, true)
	if err != nil {
		return nil, err
	}
	var out []string
	if res != perfect.CPU {
		out = append(out, fmt.Sprintf("cpu: %+v vs perfect-L2 %+v", res, perfect.CPU))
	}
	if l1 != perfect.L1 {
		out = append(out, fmt.Sprintf("l1: %+v vs perfect-L2 %+v", l1, perfect.L1))
	}
	return out, nil
}

// idleSpec is a co-runner that halts at once: an empty program, which
// makes no memory access.
var idleSpec = &workloads.Spec{
	Name: "idle",
	Build: func(workloads.Factor) *workloads.Built {
		return &workloads.Built{Prog: &lang.Program{Name: "idle"}, Init: func(*mem.Memory, *compiler.Layout) {}}
	},
}

// coRunnerDiff co-runs spec on core 0 beside coRunner on core 1 and
// returns how core 0's Result differs from solo, the solo cell of the
// same spec, scheme and options (see DiffResults). Beside idleSpec there
// must be no difference.
func coRunnerDiff(spec, coRunner *workloads.Spec, sc core.Scheme, opt core.Options, solo *core.Result) ([]string, error) {
	pair, err := core.RunCoRunSpecs([]*workloads.Spec{spec, coRunner}, sc, opt)
	if err != nil {
		return nil, err
	}
	return DiffResults(pair.Results[0], solo), nil
}
