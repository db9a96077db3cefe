package core

import (
	"reflect"
	"strings"
	"testing"

	"grp/internal/faults"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// TestCoRunSingleCoreMatchesSolo: solo cells and co-runs share
// runCores, so what remains to check is the co-run context — a 1-core
// RunCoRun carries it, Run does not, and nothing else differs.
func TestCoRunSingleCoreMatchesSolo(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Factor: workloads.Test, Attrib: true, CheckInvariants: true}
	solo, err := Run(spec, GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	if solo.CoRun != nil {
		t.Fatalf("solo run carries co-run info: %+v", solo.CoRun)
	}
	cr, err := RunCoRun([]string{"mcf"}, GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := *cr.Results[0]
	if got.CoRun == nil || got.CoRun.NCores != 1 || got.CoRun.Core != 0 {
		t.Fatalf("missing or wrong CoRun info: %+v", got.CoRun)
	}
	got.CoRun = nil
	if !reflect.DeepEqual(*solo, got) {
		t.Fatalf("1-core co-run differs from solo beyond its co-run info:\nsolo:  %+v\ncorun: %+v", *solo, got)
	}
}

// TestCoRunOptionsDelegation: Options.CoRun routes Run through the
// co-run engine — the cell's bench lands on core 0 and the result
// carries the cross-core context.
func TestCoRunOptionsDelegation(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Factor: workloads.Test, CoRun: []string{"art"}}
	r, err := Run(spec, GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bench != "mcf" || r.CoRun == nil || r.CoRun.NCores != 2 || r.CoRun.Core != 0 {
		t.Fatalf("co-run cell result misrouted: bench=%s corun=%+v", r.Bench, r.CoRun)
	}
	if got, want := r.CoRun.Benches, []string{"mcf", "art"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("co-run benches = %v, want %v", got, want)
	}

	cr, err := RunCoRun([]string{"mcf", "art"}, GRPVar, Options{Factor: workloads.Test})
	if err != nil {
		t.Fatal(err)
	}
	if r.CPU.Cycles != cr.Results[0].CPU.Cycles || r.ArchDigest != cr.Results[0].ArchDigest {
		t.Fatal("Options.CoRun cell differs from the equivalent RunCoRun core 0")
	}
}

// TestCoRunArchUnchanged: contention perturbs timing only — each core's
// architectural and memory digests equal its solo run's.
func TestCoRunArchUnchanged(t *testing.T) {
	opt := Options{Factor: workloads.Test, Attrib: true, CheckInvariants: true}
	cr, err := RunCoRun([]string{"mcf", "art"}, GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range cr.Results {
		spec, err := workloads.ByName(r.Bench)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Run(spec, GRPVar, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.ArchDigest != solo.ArchDigest || r.MemDigest != solo.MemDigest {
			t.Fatalf("core %d (%s): digests diverged from solo under contention", i, r.Bench)
		}
		if r.CPU.Cycles < solo.CPU.Cycles {
			t.Fatalf("core %d (%s): co-run cycles %d below solo %d — contention cannot speed a core up",
				i, r.Bench, r.CPU.Cycles, solo.CPU.Cycles)
		}
	}
}

// TestCoRunDeterminism: two identical co-runs agree exactly.
func TestCoRunDeterminism(t *testing.T) {
	opt := Options{Factor: workloads.Test, Attrib: true}
	a, err := RunCoRun([]string{"mcf", "art", "equake"}, GRPAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCoRun([]string{"mcf", "art", "equake"}, GRPAdaptive, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("co-run is not deterministic across identical invocations")
	}
}

// TestCoRunPollutionAccounting: with the shared L2 squeezed small enough
// that prefetch fills displace the co-runner's working set, pollution
// shows up and balances: total caused equals total suffered, and the
// same totals surface through the attribution annotation.
func TestCoRunPollutionAccounting(t *testing.T) {
	memCfg := sim.DefaultMemConfig()
	memCfg.L2.SizeBytes = 8 << 10 // 8 KB shared L2: heavy capacity contention
	opt := Options{Factor: workloads.Test, Mem: &memCfg, Attrib: true, CheckInvariants: true}
	cr, err := RunCoRun([]string{"mcf", "art"}, GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	var caused, suffered, ledgerPoll uint64
	for _, r := range cr.Results {
		caused += r.CoRun.PollutionCaused
		suffered += r.CoRun.PollutionSuffered
		if r.Attrib != nil {
			ledgerPoll += r.Attrib.CrossCorePollution
		}
	}
	if caused == 0 {
		t.Fatal("no cross-core pollution under an 8 KB shared L2 — accounting is dead")
	}
	if caused != suffered {
		t.Fatalf("pollution caused %d != suffered %d", caused, suffered)
	}
	if ledgerPoll == 0 {
		t.Fatal("attribution ledgers recorded no cross-core pollution")
	}
}

// TestCoRunSlowdowns: ComputeSlowdowns fills per-core solo references;
// slowdown is ≥ 1 by the non-speedup property.
func TestCoRunSlowdowns(t *testing.T) {
	opt := Options{Factor: workloads.Test}
	cr, err := RunCoRun([]string{"mcf", "art"}, GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.ComputeSlowdowns(opt); err != nil {
		t.Fatal(err)
	}
	for i, s := range cr.Slowdown {
		if cr.SoloCycles[i] == 0 || s < 1.0 {
			t.Fatalf("core %d: slowdown %.3f (solo %d cycles) — want ≥ 1 with a real solo reference",
				i, s, cr.SoloCycles[i])
		}
	}
}

// TestCoRunRejectsUnsupportedOptions: the single-core instruments fail
// fast with a named error instead of silently misbehaving, and fault
// injection, which serves the whole system, is accepted.
func TestCoRunRejectsUnsupportedOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"metrics", Options{Factor: workloads.Test, Metrics: true}, "telemetry"},
	}
	for _, tc := range cases {
		_, err := RunCoRun([]string{"mcf", "art"}, GRPVar, tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	opt := Options{Factor: workloads.Test, Faults: &faults.Plan{Seed: 1, DelayFill: 1, DelayFillCycles: 4}}
	if _, err := RunCoRun([]string{"mcf", "art"}, GRPVar, opt); err != nil {
		t.Fatalf("faults: co-run rejected a fault plan: %v", err)
	}
}

// TestCoRunFaultsKeepDigests: faults perturb a co-run's timing only. Each
// core of a faulted 2-core co-run computes the architectural and memory
// digests of the fault-free co-run, with the invariant audit on, and the
// plan injects something.
func TestCoRunFaultsKeepDigests(t *testing.T) {
	for _, pair := range [][]string{{"mcf", "art"}, {"swim", "mcf"}} {
		clean, err := RunCoRun(pair, GRPVar, Options{Factor: workloads.Test})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"light,seed=7", "heavy,seed=11"} {
			plan, err := faults.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := RunCoRun(pair, GRPVar, Options{Factor: workloads.Test, Faults: &plan, CheckInvariants: true})
			if err != nil {
				t.Fatalf("%v under %s: %v", pair, spec, err)
			}
			if cr.Results[0].FaultCounts.Total() == 0 {
				t.Errorf("%v under %s: no fault injected", pair, spec)
			}
			for i, r := range cr.Results {
				c := clean.Results[i]
				if r.ArchDigest != c.ArchDigest || r.MemDigest != c.MemDigest {
					t.Errorf("%v under %s: core %d digests arch %016x mem %016x, fault-free arch %016x mem %016x",
						pair, spec, i, r.ArchDigest, r.MemDigest, c.ArchDigest, c.MemDigest)
				}
				if r.FaultCounts != cr.Results[0].FaultCounts {
					t.Errorf("%v under %s: core %d reports fault counts %v, core 0 %v; one injector serves the system",
						pair, spec, i, r.FaultCounts, cr.Results[0].FaultCounts)
				}
			}
		}
	}
}

// TestCoRunEmpty documents the degenerate-input contract.
func TestCoRunEmpty(t *testing.T) {
	if _, err := RunCoRun(nil, GRPVar, Options{Factor: workloads.Test}); err == nil {
		t.Fatal("RunCoRun(nil benches) succeeded")
	}
}
