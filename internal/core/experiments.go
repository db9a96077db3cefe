package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"grp/internal/compiler"
	"grp/internal/stats"
	"grp/internal/workloads"
)

// need fetches a result or errors with a clear message about which scheme
// the experiment requires.
func (s *Suite) need(bench string, sc Scheme) (*Result, error) {
	r := s.Get(bench, sc)
	if r == nil {
		return nil, fmt.Errorf("core: experiment needs %s/%s; include it in RunSuite", bench, sc)
	}
	return r, nil
}

// Speedup returns cycles(base)/cycles(r); both runs execute the identical
// instruction stream, so the cycle ratio is the speedup.
func Speedup(r, base *Result) float64 {
	return stats.Ratio(float64(base.CPU.Cycles), float64(r.CPU.Cycles))
}

// GapFromPerfect returns the percentage by which r's cycles exceed the
// perfect-L2 run's cycles (the paper's "performance gap from perfect L2").
func GapFromPerfect(r, perfect *Result) float64 {
	return stats.Pct(float64(r.CPU.Cycles), float64(perfect.CPU.Cycles))
}

// TrafficIncrease returns r's memory traffic normalized to the baseline's.
func TrafficIncrease(r, base *Result) float64 {
	return stats.Ratio(float64(r.TrafficBytes), float64(base.TrafficBytes))
}

// Coverage returns the percentage reduction in L2 demand misses relative
// to the baseline (the paper's coverage metric, Table 5).
func Coverage(r, base *Result) float64 {
	if base.L2.Misses == 0 {
		return 0
	}
	return 100 * (float64(base.L2.Misses) - float64(r.L2.Misses)) / float64(base.L2.Misses)
}

// --------------------------------------------------------------- Figure 1 --

// Figure1 reproduces the processor-performance figure: IPC of the
// realistic system, perfect L1, perfect L2, and GRP, per benchmark, sorted
// by the realistic-vs-perfect-L2 gap as the paper sorts its bars.
func (s *Suite) Figure1() (*stats.Table, error) {
	type row struct {
		bench                  string
		base, pl1, pl2, grpIPC float64
		gap                    float64
	}
	var rows []row
	for _, b := range s.TimedBenches() {
		base, err := s.need(b, NoPrefetch)
		if err != nil {
			return nil, err
		}
		pl1, err := s.need(b, PerfectL1)
		if err != nil {
			return nil, err
		}
		pl2, err := s.need(b, PerfectL2)
		if err != nil {
			return nil, err
		}
		grp, err := s.need(b, GRPVar)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row{
			bench: b, base: base.IPC(), pl1: pl1.IPC(), pl2: pl2.IPC(),
			grpIPC: grp.IPC(), gap: GapFromPerfect(base, pl2),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].gap > rows[j].gap })
	t := &stats.Table{
		Title:   "Figure 1: processor performance (IPC)",
		Headers: []string{"benchmark", "base", "perfectL1", "perfectL2", "GRP", "gap%"},
	}
	var gaps []float64
	for _, r := range rows {
		t.Add(r.bench, stats.Fmt(r.base, 3), stats.Fmt(r.pl1, 3), stats.Fmt(r.pl2, 3),
			stats.Fmt(r.grpIPC, 3), stats.Fmt(r.gap, 1))
		gaps = append(gaps, 1+r.gap/100)
	}
	t.Add("geomean gap%", "", "", "", "", stats.Fmt(100*(stats.Geomean(gaps)-1), 1))
	return t, nil
}

// Figure1Chart renders Figure 1 as grouped ASCII bars (base / perfect L1 /
// perfect L2 / GRP IPC per benchmark).
func (s *Suite) Figure1Chart() (*stats.BarChart, error) {
	c := &stats.BarChart{
		Title:  "Figure 1: processor performance (IPC)",
		Series: []string{"base", "perfectL1", "perfectL2", "grp"},
	}
	for _, b := range s.TimedBenches() {
		vals := make([]float64, 0, 4)
		for _, sc := range []Scheme{NoPrefetch, PerfectL1, PerfectL2, GRPVar} {
			r, err := s.need(b, sc)
			if err != nil {
				return nil, err
			}
			vals = append(vals, r.IPC())
		}
		c.Add(b, vals...)
	}
	return c, nil
}

// Figure12Chart renders Figure 12 as grouped ASCII bars (normalized
// traffic per scheme and benchmark).
func (s *Suite) Figure12Chart() (*stats.BarChart, error) {
	c := &stats.BarChart{
		Title:  "Figure 12: normalized memory traffic",
		Series: []string{"stride", "srp", "grp"},
	}
	for _, b := range s.TimedBenches() {
		base, err := s.need(b, NoPrefetch)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, 0, 3)
		for _, sc := range []Scheme{StridePF, SRP, GRPVar} {
			r, err := s.need(b, sc)
			if err != nil {
				return nil, err
			}
			vals = append(vals, TrafficIncrease(r, base))
		}
		c.Add(b, vals...)
	}
	return c, nil
}

// ---------------------------------------------------------------- Table 1 --

// Table1Row is one summary line of the paper's Table 1.
type Table1Row struct {
	Scheme          Scheme
	Speedup         float64
	TrafficIncrease float64
	GapFromPerfect  float64
}

// Table1 reproduces the summary table: geometric-mean speedup, traffic
// increase, and performance gap from a perfect L2 for each scheme.
func (s *Suite) Table1() ([]Table1Row, *stats.Table, error) {
	schemes := []Scheme{NoPrefetch, StridePF, SRP, GRPFix, GRPVar}
	var out []Table1Row
	t := &stats.Table{
		Title:   "Table 1: summary of prefetching performance and traffic (geometric means)",
		Headers: []string{"scheme", "speedup", "traffic", "gap from perfect L2 (%)"},
	}
	for _, sc := range schemes {
		var speedups, traffics, gaps []float64
		for _, b := range s.TimedBenches() {
			base, err := s.need(b, NoPrefetch)
			if err != nil {
				return nil, nil, err
			}
			pl2, err := s.need(b, PerfectL2)
			if err != nil {
				return nil, nil, err
			}
			r, err := s.need(b, sc)
			if err != nil {
				return nil, nil, err
			}
			speedups = append(speedups, Speedup(r, base))
			traffics = append(traffics, TrafficIncrease(r, base))
			gaps = append(gaps, 1+GapFromPerfect(r, pl2)/100)
		}
		row := Table1Row{
			Scheme:          sc,
			Speedup:         stats.Geomean(speedups),
			TrafficIncrease: stats.Geomean(traffics),
			GapFromPerfect:  100 * (stats.Geomean(gaps) - 1),
		}
		out = append(out, row)
		t.Add(sc.String(), stats.Fmt(row.Speedup, 3), stats.Fmt(row.TrafficIncrease, 2),
			stats.Fmt(row.GapFromPerfect, 2))
	}
	return out, t, nil
}

// ---------------------------------------------------------------- Table 3 --

// Table3 reproduces the static hint census: memory instructions and the
// number marked spatial/pointer/recursive, the hinted ratio, and indirect
// prefetch instructions, per benchmark.
func (s *Suite) Table3() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 3: number of compiler hints for each benchmark",
		Headers: []string{"benchmark", "mem insts", "spatial", "pointer", "recursive", "ratio(%)", "indirect"},
	}
	for _, b := range s.Benches {
		r := s.Get(b, GRPVar)
		if r == nil {
			r = s.Get(b, NoPrefetch)
		}
		if r == nil {
			return nil, fmt.Errorf("core: Table3 needs any run of %s", b)
		}
		h := r.Hints
		t.Add(b, fmt.Sprint(h.MemInsts), fmt.Sprint(h.Spatial), fmt.Sprint(h.Pointer),
			fmt.Sprint(h.Recursive), stats.Fmt(h.HintRatio(), 1), fmt.Sprint(h.Indirect))
	}
	return t, nil
}

// --------------------------------------------------------------- Figure 9 --

// Figure9 reproduces the pointer-prefetching study on the C benchmarks:
// speedup of pure hardware pointer prefetching vs SRP, over no prefetching.
func (s *Suite) Figure9() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Figure 9: performance gains from pointer prefetching (C benchmarks)",
		Headers: []string{"benchmark", "ptr speedup", "srp speedup"},
	}
	for _, b := range s.TimedBenches() {
		spec, err := workloads.ByName(b)
		if err != nil {
			return nil, err
		}
		if !spec.CBench {
			continue
		}
		base, err := s.need(b, NoPrefetch)
		if err != nil {
			return nil, err
		}
		ptr, err := s.need(b, PointerOnly)
		if err != nil {
			return nil, err
		}
		srp, err := s.need(b, SRP)
		if err != nil {
			return nil, err
		}
		t.Add(b, stats.Fmt(Speedup(ptr, base), 3), stats.Fmt(Speedup(srp, base), 3))
	}
	return t, nil
}

// ---------------------------------------------------------- Figures 10/11 --

func (s *Suite) speedupFigure(title string, fp bool) (*stats.Table, error) {
	t := &stats.Table{
		Title:   title,
		Headers: []string{"benchmark", "stride", "srp", "grp", "perfectL2"},
	}
	for _, b := range s.TimedBenches() {
		spec, err := workloads.ByName(b)
		if err != nil {
			return nil, err
		}
		if spec.FP != fp {
			continue
		}
		base, err := s.need(b, NoPrefetch)
		if err != nil {
			return nil, err
		}
		rows := make([]string, 0, 5)
		rows = append(rows, b)
		for _, sc := range []Scheme{StridePF, SRP, GRPVar, PerfectL2} {
			r, err := s.need(b, sc)
			if err != nil {
				return nil, err
			}
			rows = append(rows, stats.Fmt(Speedup(r, base), 3))
		}
		t.Add(rows...)
	}
	return t, nil
}

// Figure10 reproduces the integer-benchmark speedup comparison.
func (s *Suite) Figure10() (*stats.Table, error) {
	return s.speedupFigure("Figure 10: speedups from region and stride prefetching (integer benchmarks)", false)
}

// Figure11 reproduces the floating-point-benchmark speedup comparison.
func (s *Suite) Figure11() (*stats.Table, error) {
	return s.speedupFigure("Figure 11: speedups from region and stride prefetching (floating-point benchmarks)", true)
}

// ---------------------------------------------------------------- Table 4 --

// Table4 reproduces the GRP/Var-vs-GRP/Fix comparison for the benchmarks
// where variable sizing matters, with the region-size distribution of the
// GRP/Var run. A nil benches selects those of mesa, bzip2 and sphinx
// that the suite holds.
func (s *Suite) Table4(benches []string) (*stats.Table, error) {
	if benches == nil {
		for _, b := range []string{"mesa", "bzip2", "sphinx"} {
			if slices.Contains(s.Benches, b) {
				benches = append(benches, b)
			}
		}
	}
	sizes := []int{2, 4, 8, 16, 32, 64}
	headers := []string{"benchmark", "var traffic", "fix traffic"}
	for _, sz := range sizes {
		headers = append(headers, fmt.Sprintf("sz%d%%", sz))
	}
	t := &stats.Table{
		Title:   "Table 4: GRP/Var versus GRP/Fix (traffic normalized to no prefetching)",
		Headers: headers,
	}
	for _, b := range benches {
		base, err := s.need(b, NoPrefetch)
		if err != nil {
			return nil, err
		}
		vr, err := s.need(b, GRPVar)
		if err != nil {
			return nil, err
		}
		fx, err := s.need(b, GRPFix)
		if err != nil {
			return nil, err
		}
		row := []string{b,
			stats.Fmt(TrafficIncrease(vr, base), 2),
			stats.Fmt(TrafficIncrease(fx, base), 2),
		}
		var total uint64
		for _, n := range vr.PF.RegionSizeDist {
			total += n
		}
		for _, sz := range sizes {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(vr.PF.RegionSizeDist[sz]) / float64(total)
			}
			row = append(row, stats.Fmt(pct, 1))
		}
		t.Add(row...)
	}
	return t, nil
}

// --------------------------------------------------------------- Figure 12 --

// Figure12 reproduces the normalized-traffic chart: each scheme's memory
// traffic relative to no prefetching, per benchmark, with geometric means.
func (s *Suite) Figure12() (*stats.Table, error) {
	schemes := []Scheme{StridePF, SRP, GRPVar}
	t := &stats.Table{
		Title:   "Figure 12: normalized memory traffic",
		Headers: []string{"benchmark", "stride", "srp", "grp"},
	}
	sums := map[Scheme][]float64{}
	for _, b := range s.TimedBenches() {
		base, err := s.need(b, NoPrefetch)
		if err != nil {
			return nil, err
		}
		row := []string{b}
		for _, sc := range schemes {
			r, err := s.need(b, sc)
			if err != nil {
				return nil, err
			}
			v := TrafficIncrease(r, base)
			sums[sc] = append(sums[sc], v)
			row = append(row, stats.Fmt(v, 2))
		}
		t.Add(row...)
	}
	row := []string{"geomean"}
	for _, sc := range schemes {
		row = append(row, stats.Fmt(stats.Geomean(sums[sc]), 2))
	}
	t.Add(row...)
	return t, nil
}

// ---------------------------------------------------------------- Table 5 --

// Table5 reproduces the accuracy/coverage/traffic table: the baseline L2
// miss rate and traffic, then coverage, accuracy and traffic for stride,
// SRP and GRP.
func (s *Suite) Table5() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Table 5: prefetching accuracy, coverage and memory traffic",
		Headers: []string{"benchmark", "missrate", "traffic",
			"st.cov", "st.acc", "st.traf",
			"srp.cov", "srp.acc", "srp.traf",
			"grp.cov", "grp.acc", "grp.traf"},
	}
	type agg struct{ cov, acc, traf []float64 }
	aggs := map[Scheme]*agg{StridePF: {}, SRP: {}, GRPVar: {}}
	var missrates, basetraf []float64
	for _, b := range s.TimedBenches() {
		base, err := s.need(b, NoPrefetch)
		if err != nil {
			return nil, err
		}
		row := []string{b, stats.Fmt(base.L2.MissRate(), 1), fmtKB(base.TrafficBytes)}
		missrates = append(missrates, base.L2.MissRate())
		basetraf = append(basetraf, float64(base.TrafficBytes))
		for _, sc := range []Scheme{StridePF, SRP, GRPVar} {
			r, err := s.need(b, sc)
			if err != nil {
				return nil, err
			}
			cov, acc := Coverage(r, base), r.Accuracy()
			a := aggs[sc]
			a.cov = append(a.cov, cov)
			a.acc = append(a.acc, acc)
			a.traf = append(a.traf, float64(r.TrafficBytes))
			row = append(row, stats.Fmt(cov, 1), stats.Fmt(acc, 1), fmtKB(r.TrafficBytes))
		}
		t.Add(row...)
	}
	// Arithmetic-mean summary row, as the paper's "average" line.
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	row := []string{"average", stats.Fmt(mean(missrates), 1), fmtKB(uint64(mean(basetraf)))}
	for _, sc := range []Scheme{StridePF, SRP, GRPVar} {
		a := aggs[sc]
		row = append(row, stats.Fmt(mean(a.cov), 1), stats.Fmt(mean(a.acc), 1), fmtKB(uint64(mean(a.traf))))
	}
	t.Add(row...)
	return t, nil
}

func fmtKB(b uint64) string { return fmt.Sprintf("%dK", b/1024) }

// ---------------------------------------------------------------- Table 6 --

// Table6 reproduces the remaining-L2-miss characterization: benchmarks
// whose GRP configuration still trails a perfect L2 by more than 15%, with
// the workload's documented miss cause.
func (s *Suite) Table6() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 6: level 2 miss characteristics (GRP gap > 15% from perfect L2)",
		Headers: []string{"benchmark", "GRP gap (%)", "L2 miss cause"},
	}
	for _, b := range s.TimedBenches() {
		grp, err := s.need(b, GRPVar)
		if err != nil {
			return nil, err
		}
		pl2, err := s.need(b, PerfectL2)
		if err != nil {
			return nil, err
		}
		gap := GapFromPerfect(grp, pl2)
		if gap <= 15 {
			continue
		}
		spec, err := workloads.ByName(b)
		if err != nil {
			return nil, err
		}
		t.Add(b, stats.Fmt(gap, 2), spec.MissCause)
	}
	return t, nil
}

// ----------------------------------------------------- Section 5.4 policy --

// SensitivityRow is one compiler-policy result.
type SensitivityRow struct {
	Policy  string
	Speedup float64 // geomean vs no prefetching
	Traffic float64 // geomean normalized traffic
}

// RunSensitivity reproduces Section 5.4: GRP under the default, aggressive
// and conservative spatial-marking policies, through the serial reference
// runner. It runs its own simulations (the compiler output differs per
// policy).
func RunSensitivity(benches []string, opt Options) ([]SensitivityRow, *stats.Table, error) {
	return RunSensitivityWith(context.Background(), benches, opt, RunCells)
}

// RunSensitivityWith is RunSensitivity through an arbitrary CellRunner, so
// the campaign engine can parallelize and cache the per-policy sweeps.
func RunSensitivityWith(ctx context.Context, benches []string, opt Options, run CellRunner) ([]SensitivityRow, *stats.Table, error) {
	if benches == nil {
		benches = workloads.Names()
	}
	var timed []string
	for _, b := range benches {
		if Included(b) {
			timed = append(timed, b)
		}
	}
	policies := []compiler.Policy{compiler.PolicyDefault, compiler.PolicyAggressive, compiler.PolicyConservative}
	t := &stats.Table{
		Title:   "Section 5.4: compiler spatial-policy sensitivity (GRP/Var, geomeans)",
		Headers: []string{"policy", "speedup", "traffic"},
	}
	var out []SensitivityRow
	for _, pol := range policies {
		o := opt
		o.Policy = pol
		cells := SuiteCells(timed, []Scheme{NoPrefetch, GRPVar})
		rs, err := run(ctx, cells, o)
		if err != nil {
			return nil, nil, err
		}
		if len(rs) != len(cells) {
			return nil, nil, fmt.Errorf("core: runner returned %d results for %d cells", len(rs), len(cells))
		}
		var speedups, traffics []float64
		for i := 0; i < len(rs); i += 2 {
			base, grp := rs[i], rs[i+1]
			speedups = append(speedups, Speedup(grp, base))
			traffics = append(traffics, TrafficIncrease(grp, base))
		}
		row := SensitivityRow{Policy: pol.String(), Speedup: stats.Geomean(speedups), Traffic: stats.Geomean(traffics)}
		out = append(out, row)
		t.Add(row.Policy, stats.Fmt(row.Speedup, 3), stats.Fmt(row.Traffic, 2))
	}
	return out, t, nil
}
