package main

import (
	"fmt"
	"reflect"
	"time"

	"grp/internal/attrib"
	"grp/internal/compiler"
	"grp/internal/core"
	"grp/internal/cpu"
	"grp/internal/isa"
	"grp/internal/mem"
	"grp/internal/prefetch"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// sampleMask picks 1 in 16 memory-system calls for timing: a time.Now
// pair costs about as much as a memory call, so timing every call would
// distort what it measures.
const sampleMask = 15

// probe counts the calls crossing the two hot boundaries of one cell,
// core → memory system and memory system → prefetch engine, and times a
// sample of them. Samples are chosen by a fixed-seed xorshift, not every
// n-th call, so a loop's stride cannot alias with the sampling period;
// the same cell samples the same calls on every run.
type probe struct {
	rng      uint64
	sampling bool // inside a sampled memory-system call

	memCalls, memSampled uint64
	memNs                int64 // in sampled memory calls, prefetch calls included
	pfCalls, pfTimed     uint64
	pfNs                 int64 // in prefetch calls inside sampled memory calls
	drainNs              int64
}

func newProbe() *probe { return &probe{rng: 0x9e3779b97f4a7c15} }

func (p *probe) sample() bool {
	p.memCalls++
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	if p.rng&sampleMask != 0 {
		return false
	}
	p.sampling = true
	return true
}

func (p *probe) sampled(t time.Time) {
	p.memNs += int64(time.Since(t))
	p.memSampled++
	p.sampling = false
}

// args summarizes the probe for the cell's cpu.run span.
func (p *probe) args() map[string]any {
	return map[string]any{
		"mem_calls": p.memCalls, "mem_sampled": p.memSampled, "mem_sampled_ns": p.memNs,
		"pf_calls": p.pfCalls, "pf_timed": p.pfTimed, "pf_timed_ns": p.pfNs, "drain_ns": p.drainNs,
	}
}

// memSystem is what the core sees of the memory system: the timing
// interface plus the watchdog's retirement hooks.
type memSystem interface {
	cpu.MemoryTiming
	cpu.ProgressMonitor
}

// memShim sits between the core and the memory system. It implements
// cpu.ProgressMonitor too, so the core keeps feeding the watchdog.
type memShim struct {
	ms memSystem
	p  *probe
}

func (s *memShim) Load(pc, addr uint64, hint isa.Hint, coeff uint8, now uint64) uint64 {
	if !s.p.sample() {
		return s.ms.Load(pc, addr, hint, coeff, now)
	}
	t := time.Now()
	done := s.ms.Load(pc, addr, hint, coeff, now)
	s.p.sampled(t)
	return done
}

func (s *memShim) Store(pc, addr uint64, now uint64) uint64 {
	if !s.p.sample() {
		return s.ms.Store(pc, addr, now)
	}
	t := time.Now()
	done := s.ms.Store(pc, addr, now)
	s.p.sampled(t)
	return done
}

func (s *memShim) SetBound(v uint64) {
	if !s.p.sample() {
		s.ms.SetBound(v)
		return
	}
	t := time.Now()
	s.ms.SetBound(v)
	s.p.sampled(t)
}

func (s *memShim) Indirect(indexAddr, base uint64, shift uint) {
	if !s.p.sample() {
		s.ms.Indirect(indexAddr, base, shift)
		return
	}
	t := time.Now()
	s.ms.Indirect(indexAddr, base, shift)
	s.p.sampled(t)
}

func (s *memShim) SoftwarePrefetch(addr, now uint64) {
	if !s.p.sample() {
		s.ms.SoftwarePrefetch(addr, now)
		return
	}
	t := time.Now()
	s.ms.SoftwarePrefetch(addr, now)
	s.p.sampled(t)
}

func (s *memShim) NoteRetire(now uint64)    { s.ms.NoteRetire(now) }
func (s *memShim) CheckProgress(now uint64) { s.ms.CheckProgress(now) }

// engineShim sits between the memory system and the prefetch engine and
// times the engine calls made inside sampled memory calls. It offers
// every optional engine capability the memory system asks for; where the
// engine lacks one, the shim does what the memory system does without it.
type engineShim struct {
	e prefetch.Engine
	p *probe
}

var (
	_ prefetch.QueueLenner   = (*engineShim)(nil)
	_ prefetch.OpenPageAware = (*engineShim)(nil)
	_ prefetch.Checker       = (*engineShim)(nil)
)

// call runs one engine call, timed when inside a sampled memory call.
func (s *engineShim) call(fn func()) {
	s.p.pfCalls++
	if !s.p.sampling {
		fn()
		return
	}
	t := time.Now()
	fn()
	s.p.pfNs += int64(time.Since(t))
	s.p.pfTimed++
}

func (s *engineShim) Name() string          { return s.e.Name() }
func (s *engineShim) Stats() prefetch.Stats { return s.e.Stats() }

func (s *engineShim) OnL2DemandMiss(ev prefetch.MissEvent) {
	s.call(func() { s.e.OnL2DemandMiss(ev) })
}

func (s *engineShim) OnDemandHitPrefetched(block uint64) {
	s.call(func() { s.e.OnDemandHitPrefetched(block) })
}

func (s *engineShim) OnArrival(block uint64) { s.call(func() { s.e.OnArrival(block) }) }

func (s *engineShim) Pop(present func(block uint64) bool) (block uint64, ok bool) {
	s.call(func() { block, ok = s.e.Pop(present) })
	return block, ok
}

func (s *engineShim) SetBound(v uint64) { s.call(func() { s.e.SetBound(v) }) }

func (s *engineShim) Indirect(indexElemAddr, base uint64, shift uint) {
	s.call(func() { s.e.Indirect(indexElemAddr, base, shift) })
}

func (s *engineShim) QueueLen() int {
	if q, ok := s.e.(prefetch.QueueLenner); ok {
		return q.QueueLen()
	}
	return 0
}

func (s *engineShim) PopOpenFirst(present func(block uint64) bool, rowOpen func(block uint64) bool) (block uint64, ok bool) {
	s.call(func() {
		if o, isOPA := s.e.(prefetch.OpenPageAware); isOPA {
			block, ok = o.PopOpenFirst(present, rowOpen)
		} else {
			block, ok = s.e.Pop(present)
		}
	})
	return block, ok
}

func (s *engineShim) CheckInvariants() error {
	if c, ok := s.e.(prefetch.Checker); ok {
		return c.CheckInvariants()
	}
	return nil
}

// newEngine builds the scheme's prefetch engine with the constructors
// and default configurations core.Run uses.
func newEngine(scheme core.Scheme, spec *workloads.Spec, m *mem.Memory) prefetch.Engine {
	// The paper chases pointers 6 deep, but 3 for mcf (its footnote 2).
	depth := uint8(6)
	if spec.Name == "mcf" {
		depth = 3
	}
	switch scheme {
	case core.StridePF:
		return prefetch.NewStride(prefetch.DefaultStrideConfig())
	case core.SRP:
		return prefetch.NewSRP()
	case core.GRPFix, core.GRPVar:
		cfg := prefetch.DefaultGRPConfig()
		cfg.Variable = scheme == core.GRPVar
		cfg.RecursionDepth = depth
		return prefetch.NewGRP(cfg, m)
	case core.GRPAdaptive:
		cfg := prefetch.DefaultGRPConfig()
		cfg.RecursionDepth = depth
		return prefetch.NewAdaptiveGRP(cfg, m)
	case core.GHB:
		return prefetch.NewGHB(prefetch.DefaultGHBConfig())
	case core.PointerOnly:
		return prefetch.NewPointerOnly(m, depth)
	default:
		return prefetch.NewNull()
	}
}

// tracedOptions is the subset of core.Options tracedCell rebuilds.
func tracedOptions(opt core.Options) core.Options {
	return core.Options{Factor: opt.Factor, Policy: opt.Policy, CheckInvariants: opt.CheckInvariants,
		InvariantEvery: opt.InvariantEvery, Attrib: opt.Attrib}
}

// tracedCell runs one single-core cell rebuilt from the public
// constructors core.Run calls, in core.Run's order, with a span around
// each stage and the shims on the two hot boundaries. Its result must
// equal core.Run's for the same cell; that equality is what shows the
// spans and shims timed the same program.
func tracedCell(rec *recorder, spec *workloads.Spec, scheme core.Scheme, opt core.Options) (*core.Result, *probe, error) {
	if !reflect.DeepEqual(opt, tracedOptions(opt)) {
		return nil, nil, fmt.Errorf("traced cell: options beyond factor, policy, invariants and attribution are not rebuilt")
	}
	root := rec.begin("cell")
	defer rec.end(root)

	id := rec.begin("workloads.build")
	built := spec.Build(opt.Factor)
	rec.end(id)

	id = rec.begin("compiler.compile")
	m := mem.New()
	var cg compiler.CodegenOptions
	cg.SoftwarePrefetch = scheme == core.SoftwarePF
	prog, layout, _, err := compiler.CompileWorkloadOpts(built.Prog, m, opt.Policy, cg)
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("compiling %s: %w", spec.Name, err)
	}

	id = rec.begin("mem.image")
	built.Init(m, layout)
	rec.end(id)

	id = rec.begin("core.construct")
	memCfg := sim.DefaultMemConfig()
	memCfg.L1.Perfect = scheme == core.PerfectL1
	memCfg.L2.Perfect = scheme == core.PerfectL2
	p := newProbe()
	engine := newEngine(scheme, spec, m)
	ms, err := sim.NewMemSystem(memCfg, &engineShim{e: engine, p: p})
	if err != nil {
		rec.end(id)
		return nil, nil, err
	}
	ms.SetWatchdog(sim.WatchdogConfig{})
	if opt.CheckInvariants {
		ms.EnableInvariantChecks(opt.InvariantEvery)
	}
	var ledger *attrib.Ledger
	if opt.Attrib {
		ledger = attrib.NewLedger()
		ms.AttachLedger(ledger)
	}
	cpuCfg := cpu.Default()
	cpuCfg.MaxInstrs = built.MaxInstrs
	c, err := cpu.New(cpuCfg, m, &memShim{ms: ms, p: p})
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}

	id = rec.begin("cpu.run")
	cres, err := func() (r cpu.Result, err error) {
		defer sim.RecoverAbort(&err)
		r, err = c.Run(prog)
		if err == nil {
			t := time.Now()
			ms.Drain()
			p.drainNs = int64(time.Since(t))
		}
		return r, err
	}()
	rec.end(id)
	if rec != nil {
		rec.spans[id].Args = p.args()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("running %s/%s: %w", spec.Name, scheme, err)
	}

	var summary *attrib.Summary
	if ledger != nil {
		id = rec.begin("attrib.fold")
		ledger.Finalize()
		err = ledger.CheckConservation()
		if err == nil {
			summary = ledger.Summarize()
			ms.AttachLedger(nil)
			ledger.Recycle()
		}
		rec.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("running %s/%s: %w", spec.Name, scheme, err)
		}
	}

	md := m.Digest()
	l1, l2, dc := ms.Hierarchy()
	return &core.Result{
		Bench:        spec.Name,
		Scheme:       scheme,
		CPU:          cres,
		L1:           l1.Stats(),
		L2:           l2.Stats(),
		Mem:          ms.Stats(),
		Dram:         dc.Stats(),
		PF:           engine.Stats(),
		TrafficBytes: dc.TrafficBytes(),
		Hints:        prog.CountHints(),
		ArchDigest:   archDigest(c, cres, md),
		MemDigest:    md,
		FaultCounts:  ms.FaultCounts(),
		Attrib:       summary,
	}, p, nil
}

// archDigest is core's architectural fingerprint (FNV-1a over the final
// registers, the memory digest and the timing-independent counts),
// recomputed here because tracedCell builds its own Result.
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
