package core

import (
	"strings"
	"testing"

	"grp/internal/stats"
	"grp/internal/workloads"
)

// testSuite runs the whole suite once at test scale for all experiments.
var testSuiteCache *Suite

func getSuite(t *testing.T) *Suite {
	t.Helper()
	if testSuiteCache == nil {
		s, err := RunSuite(nil, nil, Options{Factor: workloads.Test})
		if err != nil {
			t.Fatalf("RunSuite: %v", err)
		}
		testSuiteCache = s
	}
	return testSuiteCache
}

func TestNoSchemeBeatsPerfectL2(t *testing.T) {
	s := getSuite(t)
	for _, b := range s.TimedBenches() {
		perf := s.Get(b, PerfectL2)
		for _, sc := range []Scheme{NoPrefetch, StridePF, SRP, GRPFix, GRPVar, PointerOnly} {
			r := s.Get(b, sc)
			if r.CPU.Cycles < perf.CPU.Cycles {
				t.Errorf("%s/%s (%d cycles) beats perfect L2 (%d cycles)",
					b, sc, r.CPU.Cycles, perf.CPU.Cycles)
			}
		}
	}
}

func TestPrefetchingNeverCatastrophic(t *testing.T) {
	// The access prioritizer and LRU insertion must keep every prefetch
	// scheme within a small margin of the no-prefetch baseline, even when
	// prefetching is useless (paper Section 3.1).
	s := getSuite(t)
	for _, b := range s.TimedBenches() {
		base := s.Get(b, NoPrefetch)
		for _, sc := range []Scheme{StridePF, SRP, GRPVar} {
			r := s.Get(b, sc)
			if float64(r.CPU.Cycles) > 1.30*float64(base.CPU.Cycles) {
				t.Errorf("%s/%s is %.2fx slower than no prefetching",
					b, sc, float64(r.CPU.Cycles)/float64(base.CPU.Cycles))
			}
		}
	}
}

func TestHeadlineShape(t *testing.T) {
	// The paper's headline: SRP and GRP clearly beat stride and the
	// baseline; GRP's traffic is well below SRP's (geometric means).
	s := getSuite(t)
	rows, _, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	get := func(sc Scheme) Table1Row {
		for _, r := range rows {
			if r.Scheme == sc {
				return r
			}
		}
		t.Fatalf("scheme %v missing", sc)
		return Table1Row{}
	}
	base, stride, srp, grpv := get(NoPrefetch), get(StridePF), get(SRP), get(GRPVar)
	if base.Speedup != 1 {
		t.Errorf("baseline speedup = %v", base.Speedup)
	}
	if stride.Speedup <= 1.0 {
		t.Errorf("stride should help: %v", stride.Speedup)
	}
	if srp.Speedup <= stride.Speedup {
		t.Errorf("SRP (%v) should beat stride (%v)", srp.Speedup, stride.Speedup)
	}
	// At test scale the tiny working sets flatter SRP (everything its
	// regions fetch is eventually used); GRP reaches parity at the small
	// and full scales the benchmark harness runs. Require 80% here.
	if grpv.Speedup < 0.8*srp.Speedup {
		t.Errorf("GRP (%v) should be close to SRP (%v)", grpv.Speedup, srp.Speedup)
	}
	if grpv.TrafficIncrease >= srp.TrafficIncrease {
		t.Errorf("GRP traffic (%v) should undercut SRP (%v)",
			grpv.TrafficIncrease, srp.TrafficIncrease)
	}
}

func TestAllExperimentTablesRender(t *testing.T) {
	s := getSuite(t)
	checks := []struct {
		name string
		f    func() (string, error)
	}{
		{"Figure1", func() (string, error) { tb, err := s.Figure1(); return render(tb, err) }},
		{"Table1", func() (string, error) { _, tb, err := s.Table1(); return render(tb, err) }},
		{"Table3", func() (string, error) { tb, err := s.Table3(); return render(tb, err) }},
		{"Figure9", func() (string, error) { tb, err := s.Figure9(); return render(tb, err) }},
		{"Figure10", func() (string, error) { tb, err := s.Figure10(); return render(tb, err) }},
		{"Figure11", func() (string, error) { tb, err := s.Figure11(); return render(tb, err) }},
		{"Table4", func() (string, error) { tb, err := s.Table4(nil); return render(tb, err) }},
		{"Figure12", func() (string, error) { tb, err := s.Figure12(); return render(tb, err) }},
		{"Table5", func() (string, error) { tb, err := s.Table5(); return render(tb, err) }},
		{"Table6", func() (string, error) { tb, err := s.Table6(); return render(tb, err) }},
	}
	for _, c := range checks {
		out, err := c.f()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(strings.Split(out, "\n")) < 3 {
			t.Errorf("%s rendered nearly empty:\n%s", c.name, out)
		}
	}
}

// TestExhibitsOnSubsetSuite renders every exhibit from a suite of two
// kernels that hold none of Table 4's benchmarks: each exhibit reads only
// the benchmarks the suite ran.
func TestExhibitsOnSubsetSuite(t *testing.T) {
	s, err := RunSuite([]string{"mcf", "art"}, nil, Options{Factor: workloads.Test})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure1(); err != nil {
		t.Error(err)
	}
	if _, _, err := s.Table1(); err != nil {
		t.Error(err)
	}
	for name, f := range map[string]func() (*stats.Table, error){
		"Table3": s.Table3, "Figure9": s.Figure9, "Figure10": s.Figure10, "Figure11": s.Figure11,
		"Figure12": s.Figure12, "Table5": s.Table5, "Table6": s.Table6,
	} {
		if _, err := f(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	t4, err := s.Table4(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 0 {
		t.Errorf("Table 4 of {mcf, art} has rows %v, want none", t4.Rows)
	}
}

func render(tb interface{ String() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return tb.String(), nil
}

func TestTable4MesaShape(t *testing.T) {
	// mesa is the flagship GRP/Var result: variable regions must cut its
	// traffic versus fixed regions (paper Table 4: 1.11 vs 6.55).
	s := getSuite(t)
	base := s.Get("mesa", NoPrefetch)
	vr := s.Get("mesa", GRPVar)
	fx := s.Get("mesa", GRPFix)
	tv := TrafficIncrease(vr, base)
	tf := TrafficIncrease(fx, base)
	if tv >= tf/2 {
		t.Errorf("mesa GRP/Var traffic %.2f should be far below GRP/Fix %.2f", tv, tf)
	}
	// And most regions are the minimum size.
	var total, small uint64
	for sz, n := range vr.PF.RegionSizeDist {
		total += n
		if sz == 2 {
			small += n
		}
	}
	if total == 0 || float64(small)/float64(total) < 0.5 {
		t.Errorf("mesa region-size distribution not dominated by size 2: %v", vr.PF.RegionSizeDist)
	}
}

func TestRunDeterministic(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Factor: workloads.Test}
	r1, err := Run(spec, GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec, GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CPU != r2.CPU || r1.TrafficBytes != r2.TrafficBytes {
		t.Errorf("simulation is not deterministic:\n%+v\n%+v", r1.CPU, r2.CPU)
	}
}

func TestSensitivitySmoke(t *testing.T) {
	rows, tb, err := RunSensitivity([]string{"swim", "apsi"}, Options{Factor: workloads.Test})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || tb.String() == "" {
		t.Errorf("sensitivity rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("policy %s speedup = %v", r.Policy, r.Speedup)
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, sc := range AllSchemes() {
		got, err := SchemeByName(sc.String())
		if err != nil || got != sc {
			t.Errorf("SchemeByName(%q) = %v, %v", sc.String(), got, err)
		}
	}
	for alias, want := range map[string]Scheme{
		"NoPF": NoPrefetch, "nopref": NoPrefetch, "GRPFix": GRPFix, "grpvar": GRPVar,
		"Pointer": PointerOnly, "grpadaptive": GRPAdaptive, "ADAPTIVE": GRPAdaptive,
	} {
		if got, err := SchemeByName(alias); err != nil || got != want {
			t.Errorf("SchemeByName(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "GRP/VAR", "PerfectL2"} {
		if _, err := SchemeByName(bad); err == nil {
			t.Errorf("SchemeByName(%q) accepted", bad)
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme string")
	}
}

func TestMcfRecursionDepthOverride(t *testing.T) {
	spec, _ := workloads.ByName("mcf")
	if d := grpDepth(spec, Options{}); d != 3 {
		t.Errorf("mcf depth = %d, want 3 (paper footnote 2)", d)
	}
	other, _ := workloads.ByName("ammp")
	if d := grpDepth(other, Options{}); d != 6 {
		t.Errorf("default depth = %d, want 6", d)
	}
	if d := grpDepth(spec, Options{RecursionDepth: 5}); d != 5 {
		t.Errorf("override depth = %d, want 5", d)
	}
}

func TestChartsRender(t *testing.T) {
	s := getSuite(t)
	c1, err := s.Figure1Chart()
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.String()) < 100 {
		t.Errorf("Figure1Chart nearly empty:\n%s", c1)
	}
	c12, err := s.Figure12Chart()
	if err != nil {
		t.Fatal(err)
	}
	if len(c12.String()) < 100 {
		t.Errorf("Figure12Chart nearly empty:\n%s", c12)
	}
}
