package sim

import (
	"fmt"
	"testing"

	"grp/internal/compiler"
	"grp/internal/cpu"
	"grp/internal/faults"
	"grp/internal/isa"
	"grp/internal/mem"
	"grp/internal/prefetch"
	"grp/internal/workloads"
)

// maskCheck counts the mask queries of a run and those that disagree
// with the per-block answer.
type maskCheck struct {
	calls, mismatches int
	first             string
}

// maskUnderTest builds a port's mask query; CorePort.presentMask is the
// real one.
type maskUnderTest func(p *CorePort) func(base uint64, n int) uint64

func realMask(p *CorePort) func(uint64, int) uint64 { return p.presentMask }

// presenceEngine builds a scheme's region engine reading memory m.
func presenceEngine(scheme string, m *mem.Memory) prefetch.Engine {
	cfg := prefetch.DefaultGRPConfig()
	switch scheme {
	case "srp":
		return prefetch.NewSRP()
	case "grp/fix":
		cfg.Variable = false
		return prefetch.NewGRP(cfg, m)
	case "grp/var":
		return prefetch.NewGRP(cfg, m)
	case "grp-adaptive":
		return prefetch.NewAdaptiveGRP(cfg, m)
	}
	panic("no region engine for " + scheme)
}

// presenceRun runs the kernels, one per core, at test factor under
// scheme with plan's faults armed, and replaces every port's mask query
// with mask's, checked at each call against present block by block.
// Only a region creation queries the mask.
func presenceRun(t *testing.T, kernels []string, scheme string, plan faults.Plan, mask maskUnderTest, chk *maskCheck) {
	t.Helper()
	var engines []prefetch.Engine
	var mems []*mem.Memory
	var progs []*compiledProg
	for _, name := range kernels {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		built := spec.Build(workloads.Test)
		m := mem.New()
		prog, layout, _, err := compiler.CompileWorkloadOpts(built.Prog, m, compiler.Policy(0), compiler.CodegenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		built.Init(m, layout)
		engines, mems = append(engines, presenceEngine(scheme, m)), append(mems, m)
		progs = append(progs, &compiledProg{prog, built.MaxInstrs})
	}
	cs, err := NewCoRunSystem(DefaultMemConfig(), engines)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Active() {
		cs.SetFaults(faults.NewInjector(&plan))
	}
	for _, p := range cs.ports {
		p, q := p, mask(p)
		p.presentMaskFn = func(base uint64, n int) uint64 {
			got := q(base, n)
			var want uint64
			for i := 0; i < n; i++ {
				if p.present(base + uint64(i)*prefetch.BlockBytes) {
					want |= 1 << i
				}
			}
			chk.calls++
			if got != want {
				if chk.mismatches++; chk.first == "" {
					chk.first = fmt.Sprintf("%v/%s core %d: region %#x of %d blocks: mask %#x, per block %#x",
						kernels, scheme, p.id, base, n, got, want)
				}
			}
			return got
		}
	}
	var threads []*cpu.Thread
	for i, cp := range progs {
		cfg := cpu.Default()
		cfg.MaxInstrs = cp.maxInstrs
		c, err := cpu.New(cfg, mems[i], cs.Port(i))
		if err != nil {
			t.Fatal(err)
		}
		th, err := c.Start(cp.prog)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	// Step the unfinished thread furthest behind, the lower core on ties.
	for {
		best := -1
		for i, th := range threads {
			if !th.Done() && (best < 0 || th.LastCommitCycle() < threads[best].LastCommitCycle()) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if err := threads[best].Step(); err != nil {
			t.Fatal(err)
		}
	}
	cs.Drain()
}

type compiledProg struct {
	prog      *isa.Program
	maxInstrs uint64
}

// presenceRuns are the runs whose every region creation is checked: the
// 18 kernels under each region scheme, a 2-core co-run, and fault plans
// that cancel in-flight prefetches, which leaves cancelled lines in the
// arrival queue.
func presenceRuns(t *testing.T, mask maskUnderTest) maskCheck {
	t.Helper()
	var chk maskCheck
	for _, scheme := range []string{"srp", "grp/fix", "grp/var", "grp-adaptive"} {
		for _, name := range workloads.Names() {
			presenceRun(t, []string{name}, scheme, faults.Plan{}, mask, &chk)
		}
	}
	presenceRun(t, []string{"mcf", "swim"}, "grp/var", faults.Plan{}, mask, &chk)
	cancel := faults.Plan{Seed: 1, CancelInflight: 0.3}
	for _, name := range []string{"swim", "art", "mcf", "twolf"} {
		presenceRun(t, []string{name}, "srp", cancel, mask, &chk)
	}
	presenceRun(t, []string{"art", "mgrid"}, "grp/var", cancel, mask, &chk)
	return chk
}

// TestPresentMaskMatchesPerBlock: at every region creation of every
// presence run, the one-query mask equals present asked block by block,
// bit for bit.
func TestPresentMaskMatchesPerBlock(t *testing.T) {
	chk := presenceRuns(t, realMask)
	if chk.calls == 0 {
		t.Fatal("no region was created")
	}
	if chk.mismatches != 0 {
		t.Errorf("%d of %d mask queries differ from the per-block answer; first: %s", chk.mismatches, chk.calls, chk.first)
	}
}

// TestPresentMaskKnownBadCaught: the property catches a mask that
// ignores the in-flight lines and one that counts cancelled lines, which
// have already left the in-flight table.
func TestPresentMaskKnownBadCaught(t *testing.T) {
	ignoresInflight := func(p *CorePort) func(uint64, int) uint64 {
		return func(base uint64, n int) uint64 { return p.sys.L2.PresentMask(p.global(base), n) }
	}
	countsCancelled := func(p *CorePort) func(uint64, int) uint64 {
		return func(base uint64, n int) uint64 {
			cs, g := p.sys, p.global(base)
			mask := cs.L2.PresentMask(g, n)
			cs.arrivals.forEach(func(idx int32) {
				if d := (cs.pool.at(idx).block - g) / prefetch.BlockBytes; d < uint64(n) {
					mask |= 1 << d
				}
			})
			return mask
		}
	}
	for _, bad := range []struct {
		name string
		mask maskUnderTest
	}{{"ignores-inflight", ignoresInflight}, {"counts-cancelled", countsCancelled}} {
		if chk := presenceRuns(t, bad.mask); chk.mismatches == 0 {
			t.Errorf("%s mask matched the per-block answer in all %d queries", bad.name, chk.calls)
		}
	}
}
