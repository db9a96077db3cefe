package workloads

import (
	"grp/internal/compiler"
	"grp/internal/mem"
	"grp/internal/progen"
)

// Oracle is the functional interpreter's run of a generated program: the
// reference a timed run of the same program is checked against.
type Oracle struct {
	// Spec wraps the program so it flows through core.Run unchanged; its
	// factor is ignored, since a generated program has one size.
	Spec *Spec
	// Steps is the number of interpreter steps the program took.
	Steps int
	// Budget is Spec's instruction budget, 16 × Steps + 65536: compiled
	// code spends a bounded handful of instructions per interpreter
	// step, so only a genuine divergence can exhaust it.
	Budget uint64
	// Digest is the functional memory digest after the run. Placement is
	// deterministic and compiled code never occupies simulated memory,
	// so it is directly comparable with a timed run's Result.MemDigest.
	Digest uint64
}

// RunOracle interprets w over a fresh placed-and-initialized memory,
// taking at most maxSteps steps (300,000 when maxSteps ≤ 0), and wraps
// it as a spec named name. An error means the program ran away, which is
// a property of the generated program rather than a simulator bug:
// callers skip it.
func RunOracle(name string, w *progen.Workload, maxSteps int) (*Oracle, error) {
	if maxSteps <= 0 {
		maxSteps = 300_000
	}
	init := func(m *mem.Memory, lay *compiler.Layout) {
		w.Init(m, func(name string) uint64 { return lay.Addr[name] })
	}
	om := mem.New()
	lay := compiler.Place(w.Prog, om)
	init(om, lay)
	ip := compiler.NewInterp(w.Prog, lay, om, maxSteps)
	if err := ip.Run(); err != nil {
		return nil, err
	}
	budget := uint64(ip.Steps())*16 + 65536
	return &Oracle{
		Spec: &Spec{Name: name, Build: func(Factor) *Built {
			return &Built{Prog: w.Prog, Init: init, MaxInstrs: budget}
		}},
		Steps:  ip.Steps(),
		Budget: budget,
		Digest: om.Digest(),
	}, nil
}
