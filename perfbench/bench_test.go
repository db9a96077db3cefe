package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grp/internal/conformance"
	"grp/internal/core"
	"grp/internal/cpu"
	"grp/internal/mem"
	"grp/internal/progen"
	"grp/internal/workloads"
)

var _ cpu.ProgressMonitor = (*memShim)(nil)

func runCell(t *testing.T, bench string, sc core.Scheme, opt core.Options) *core.Result {
	t.Helper()
	spec, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Run(spec, sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A prefetch data path that corrupts the blocks it fills changes what
// the program computes, so the cross-scheme relation must break.
func TestTamperedFillBreaksCrossScheme(t *testing.T) {
	clean := core.Options{Factor: workloads.Test}
	tampered := clean
	tampered.TamperPrefetchFill = func(m *mem.Memory, block uint64) {
		m.Write64(block, m.Read64(block)^0xdeadbeef)
	}
	base := runCell(t, "art", core.NoPrefetch, clean)
	good := runCell(t, "art", core.GRPVar, clean)
	bad := runCell(t, "art", core.GRPVar, tampered)
	if errs := checkCrossScheme([]*core.Result{base, good}); len(errs) != 0 {
		t.Fatalf("clean cells broke the relation: %v", errs)
	}
	if errs := checkCrossScheme([]*core.Result{base, good, bad}); len(errs) == 0 {
		t.Fatal("tampered prefetch fills left every digest equal")
	}
}

// A warm result whose digest differs from the cold one must break the
// warm-equals-cold relation.
func TestFlippedDigestBreaksWarmEqualsCold(t *testing.T) {
	cold := []*core.Result{
		runCell(t, "mcf", core.GRPVar, core.Options{Factor: workloads.Test}),
		runCell(t, "swim", core.SRP, core.Options{Factor: workloads.Test}),
	}
	warm := make([]*core.Result, len(cold))
	for i, r := range cold {
		c := *r
		warm[i] = &c
	}
	if errs := checkSame("warm", cold, warm); len(errs) != 0 {
		t.Fatalf("identical results broke the relation: %v", errs)
	}
	warm[1].ArchDigest ^= 1
	errs := checkSame("warm", cold, warm)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "cell 1") {
		t.Fatalf("flipped digest in cell 1 gave %v", errs)
	}
}

// Co-run cores must reproduce their kernel's solo digests.
func TestCoRunDigestRelation(t *testing.T) {
	opt := core.Options{Factor: workloads.Test}
	cr, err := core.RunCoRun([]string{"mcf", "art"}, core.GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	solo := map[string]*core.Result{
		"mcf": runCell(t, "mcf", core.GRPVar, opt),
		"art": runCell(t, "art", core.GRPVar, opt),
	}
	if errs := checkCoRunDigests([]*core.CoRunResult{cr}, solo); len(errs) != 0 {
		t.Fatalf("co-run digests: %v", errs)
	}
	bad := *solo["art"]
	bad.MemDigest ^= 1
	solo["art"] = &bad
	if errs := checkCoRunDigests([]*core.CoRunResult{cr}, solo); len(errs) != 1 {
		t.Fatalf("altered solo digest gave %v", errs)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	v, beyond, err := tailPercentile(xs, 0.9)
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v, %d beyond, %v; want 90, 10, nil", v, beyond, err)
	}
	if _, beyond, err := tailPercentile(xs[:99], 0.9); err == nil {
		t.Fatalf("p90 of 99 samples accepted with %d beyond", beyond)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 1..4 = %v", m)
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: 0, End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "a.inner", Start: ms(20), End: ms(30), Parent: 1},
		{Name: "b", Start: ms(50), End: ms(60), Parent: 0},
		{Name: "b", Start: ms(70), End: ms(75), Parent: 0},
	}
	want := []time.Duration{ms(55), ms(20), ms(10), ms(10), ms(5)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	op := r.beginOp("op")
	in := r.begin("inner")
	r.end(in)
	r.end(op)
	if r.spans[in].Parent != op || r.spans[in].Op != 1 || r.spans[op].Parent != -1 {
		t.Fatalf("spans %+v", r.spans)
	}
	var none *recorder
	none.end(none.begin("ignored")) // a nil recorder records nothing

	op = r.beginOp("failed")
	r.begin("left open")
	r.begin("also open")
	r.endThrough(op)
	if len(r.open) != 0 || r.spans[op].End == 0 {
		t.Fatalf("endThrough left %v open", r.open)
	}
}

func TestMetricNameRule(t *testing.T) {
	for _, ok := range []string{"setup_s", "cpu.self_ns_per_instr", "paper-grid", "0x", strings.Repeat("a", 64)} {
		if err := checkName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "a b", "a/b", "µs", strings.Repeat("a", 65)} {
		if checkName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// The shims must leave the simulation untouched: a rebuilt cell equals
// core.Run's, for every scheme, with and without the ledger and audit.
func TestTracedCellEqualsCoreRun(t *testing.T) {
	opt := core.Options{Factor: workloads.Test}
	for _, bench := range []string{"mcf", "art"} {
		spec, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range core.AllSchemes() {
			want := runCell(t, bench, sc, opt)
			got, p, err := tracedCell(newRecorder(), spec, sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameStats(want, got) {
				t.Fatalf("%s/%s: traced %s, core.Run %s", bench, sc, statsJSON(got), statsJSON(want))
			}
			if p.memCalls == 0 || p.memSampled == 0 || p.memSampled > p.memCalls {
				t.Fatalf("%s/%s: %d memory calls, %d sampled", bench, sc, p.memCalls, p.memSampled)
			}
		}
	}
	w := progen.Generate(7, progen.Config{})
	pr := conformance.CheckWorkload(fleetConfig(), 7, w)
	if pr.Skipped || len(pr.Failures) > 0 {
		t.Fatalf("program 7: %+v", pr)
	}
	spec := fleetSpec(7, w, pr.Steps)
	for _, sc := range fleetSchemes() {
		want, err := core.Run(spec, sc, fleetCellOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tracedCell(nil, spec, sc, fleetCellOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !sameStats(want, got) || got.Attrib == nil || got.Attrib.Issued != want.Attrib.Issued {
			t.Fatalf("program 7 %s: traced cell differs from core.Run", sc)
		}
	}
}

// runFor must run a contiguous prefix of whole units, also when its
// deadline passes while operations are in flight.
func TestRunForRunsWholeUnitsOfAContiguousPrefix(t *testing.T) {
	const unit = 7
	for _, d := range []time.Duration{0, 20 * time.Millisecond} {
		var ran [20000]atomic.Int32
		n, lat, _ := runFor(3, d, unit, func(i int) {
			if i >= len(ran) {
				t.Errorf("operation %d claimed", i)
				return
			}
			ran[i].Add(1)
			time.Sleep(time.Duration(50+i%7*50) * time.Microsecond)
		})
		if n < minOps || n%unit != 0 || len(lat) != n {
			t.Fatalf("deadline %v: %d operations, %d latencies", d, n, len(lat))
		}
		if d == 0 && n != (minOps+unit-1)/unit*unit {
			t.Fatalf("zero deadline ran %d operations", n)
		}
		for i := range ran {
			want := int32(0)
			if i < n {
				want = 1
			}
			if ran[i].Load() != want {
				t.Fatalf("deadline %v: operation %d ran %d times with n=%d", d, i, ran[i].Load(), n)
			}
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics of the
// catalogue, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(cat.Workloads) {
		t.Fatalf("%d workloads, catalogue has %d", len(b.Workloads), len(cat.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != cat.Workloads[i].Name || workloadRunners[w.Name] == nil || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	for _, pair := range []struct {
		got, want []metricDef
	}{{b.EndToEnd, cat.EndToEnd}, {b.PerLayer, cat.PerLayer}} {
		if len(pair.got) != len(pair.want) {
			t.Fatalf("%d metrics, catalogue has %d", len(pair.got), len(pair.want))
		}
		for i := range pair.got {
			if pair.got[i] != pair.want[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, catalogue %+v", i, pair.got[i], pair.want[i])
			}
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
