package conformance

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"grp/internal/campaign"
	"grp/internal/core"
	"grp/internal/faults"
	"grp/internal/progen"
	"grp/internal/workloads"
)

// The head-to-head harness answers the scheme family's motivating
// question with numbers: where does runtime feedback win over static
// hints, and where does a modern hardware prefetcher (GHB) stand against
// the paper's stride engine? It runs classes of generated workloads —
// including a hint-hostile class where the fault injector corrupts the
// compiler's hints, turning GRP's guidance into noise — and reports
// geometric-mean IPC per scheme per class.

// H2HClass is one workload class of the head-to-head comparison.
type H2HClass struct {
	// Name labels the class in the report table.
	Name string
	// Arith restricts the generator to the arithmetic/array grammar
	// (dense and strided sweeps — no heap pointers).
	Arith bool
	// Faults is a fault-plan spec (internal/faults grammar) applied to
	// every scheme's run, "" for none. Faults are timing-only, so the
	// comparison stays architecturally sound.
	Faults string
}

// DefaultH2HClasses returns the classes the EXPERIMENTS.md table reports:
// clean heap-rich code, and the two hint-hostile classes — hints
// corrupted into wrong kinds, and hints stripped entirely (the guided
// engines see an unhinted miss stream).
func DefaultH2HClasses() []H2HClass {
	return []H2HClass{
		{Name: "heap-clean"},
		{Name: "hint-corrupt", Faults: "corrupt-hint=0.9"},
		{Name: "hint-dropped", Faults: "drop-hint=0.95"},
	}
}

// DefaultH2HSchemes returns the comparison column set: the no-prefetch
// floor, the two pure-hardware engines, and the two guided engines.
func DefaultH2HSchemes() []core.Scheme {
	return []core.Scheme{core.NoPrefetch, core.StridePF, core.GHB, core.GRPVar, core.GRPAdaptive}
}

// H2HConfig parameterizes a head-to-head run.
type H2HConfig struct {
	// N is how many generated programs per class; Seed seeds the first
	// (program i uses Seed+i, identical across classes and schemes so
	// every comparison is paired).
	N    int
	Seed int64
	// Jobs is the worker-pool width (class runs in parallel).
	Jobs int
	// Classes and Schemes default to DefaultH2HClasses/DefaultH2HSchemes.
	Classes []H2HClass
	Schemes []core.Scheme
	// Base is the option set under every cell.
	Base core.Options
}

// H2HCell is one (class, scheme) aggregate.
type H2HCell struct {
	Class    string
	Scheme   core.Scheme
	Programs int     // programs aggregated (oracle-skipped seeds excluded)
	Geomean  float64 // geometric-mean IPC
}

// H2HReport is a completed head-to-head comparison.
type H2HReport struct {
	N       int
	Seed    int64
	Classes []H2HClass
	Schemes []core.Scheme
	Cells   []H2HCell // classes-major, schemes-minor, canonical order
}

// Cell returns the aggregate for (class, scheme), or nil.
func (r *H2HReport) Cell(class string, sc core.Scheme) *H2HCell {
	for i := range r.Cells {
		if r.Cells[i].Class == class && r.Cells[i].Scheme == sc {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunHeadToHead runs the comparison fleet. Every (class, seed) pair
// generates one program, checks it against the interpreter oracle for a
// step budget, then times it under every scheme with the class's fault
// plan applied; per-scheme IPCs aggregate into geometric means.
func RunHeadToHead(cfg H2HConfig) (*H2HReport, error) {
	if cfg.N <= 0 {
		cfg.N = 50
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	classes := cfg.Classes
	if classes == nil {
		classes = DefaultH2HClasses()
	}
	schemes := cfg.Schemes
	if schemes == nil {
		schemes = DefaultH2HSchemes()
	}
	plans := make([]*faults.Plan, len(classes))
	for i, cl := range classes {
		if cl.Faults == "" {
			continue
		}
		p, err := faults.Parse(cl.Faults)
		if err != nil {
			return nil, fmt.Errorf("conformance: class %s: %w", cl.Name, err)
		}
		plans[i] = &p
	}

	// One task per (class, seed); each task times every scheme so the
	// per-seed comparison shares one generated program and one oracle run.
	type task struct {
		class int
		ipc   []float64 // per scheme; nil when the oracle skipped the seed
	}
	tasks := make([]task, len(classes)*cfg.N)
	err := campaign.ParallelFor(nil, len(tasks), cfg.Jobs, func(ti int) error {
		ci, si := ti/cfg.N, ti%cfg.N
		seed := cfg.Seed + int64(si)
		tasks[ti].class = ci

		w := progen.Generate(seed, progen.Config{Arith: classes[ci].Arith})
		if err := w.Prog.Validate(); err != nil {
			return nil // skip: generator artifact, not a scheme property
		}
		orc, err := workloads.RunOracle(specName(seed), w, 0)
		if err != nil {
			return nil // runaway program: skip the seed for every scheme
		}
		spec := orc.Spec

		ipcs := make([]float64, len(schemes))
		for k, sc := range schemes {
			opt := cloneOptions(cfg.Base)
			opt.Faults = plans[ci]
			res, err := core.Run(spec, sc, opt)
			if err != nil {
				return fmt.Errorf("conformance: h2h seed %d class %s scheme %s: %w",
					seed, classes[ci].Name, sc, err)
			}
			ipcs[k] = res.IPC()
		}
		tasks[ti].ipc = ipcs
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &H2HReport{N: cfg.N, Seed: cfg.Seed, Classes: classes, Schemes: schemes}
	for ci, cl := range classes {
		sums := make([]float64, len(schemes))
		n := 0
		for si := 0; si < cfg.N; si++ {
			tk := &tasks[ci*cfg.N+si]
			if tk.ipc == nil {
				continue
			}
			n++
			for k, v := range tk.ipc {
				sums[k] += math.Log(v)
			}
		}
		for k, sc := range schemes {
			gm := 0.0
			if n > 0 {
				gm = math.Exp(sums[k] / float64(n))
			}
			rep.Cells = append(rep.Cells, H2HCell{Class: cl.Name, Scheme: sc, Programs: n, Geomean: gm})
		}
	}
	return rep, nil
}

// Table renders the report as an aligned text table: one row per class,
// one IPC column per scheme, with the winning realistic scheme starred.
func (r *H2HReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "head-to-head geomean IPC (%d programs/class, seed %d)\n", r.N, r.Seed)
	w := 14
	fmt.Fprintf(&b, "%-*s", w, "class")
	for _, sc := range r.Schemes {
		fmt.Fprintf(&b, " %*s", w, sc.String())
	}
	fmt.Fprintf(&b, " %*s\n", w, "programs")
	for _, cl := range r.Classes {
		best := ""
		bestIPC := math.Inf(-1)
		for _, sc := range r.Schemes {
			if sc == core.NoPrefetch {
				continue // the floor is a reference, not a contestant
			}
			if c := r.Cell(cl.Name, sc); c != nil && c.Geomean > bestIPC {
				bestIPC, best = c.Geomean, sc.String()
			}
		}
		fmt.Fprintf(&b, "%-*s", w, cl.Name)
		programs := 0
		for _, sc := range r.Schemes {
			c := r.Cell(cl.Name, sc)
			cell := fmt.Sprintf("%.4f", c.Geomean)
			if sc.String() == best {
				cell += "*"
			}
			fmt.Fprintf(&b, " %*s", w, cell)
			programs = c.Programs
		}
		fmt.Fprintf(&b, " %*d\n", w, programs)
	}
	return b.String()
}

// SortedSchemes returns the schemes of one class ordered best-first (for
// tests asserting who won).
func (r *H2HReport) SortedSchemes(class string) []core.Scheme {
	out := append([]core.Scheme(nil), r.Schemes...)
	sort.SliceStable(out, func(i, j int) bool {
		ci, cj := r.Cell(class, out[i]), r.Cell(class, out[j])
		return ci.Geomean > cj.Geomean
	})
	return out
}
