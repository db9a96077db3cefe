package conformance

import (
	"testing"

	"grp/internal/core"
	"grp/internal/progen"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// kernelSpecs returns every registered kernel's spec.
func kernelSpecs(t *testing.T) []*workloads.Spec {
	t.Helper()
	var out []*workloads.Spec
	for _, name := range workloads.Names() {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, spec)
	}
	return out
}

// TestIdealPortMatchesPerfectL2 holds every kernel's perfect-L2 cell to
// the ideal port: the same core over a private L1 and fixed hit
// latencies must commit the same instructions in the same cycles with
// the same L1 statistics. The fleet programs get the same check inside
// CheckWorkload.
func TestIdealPortMatchesPerfectL2(t *testing.T) {
	for _, f := range []workloads.Factor{workloads.Test, workloads.Small} {
		opt := core.Options{Factor: f}
		for _, spec := range kernelSpecs(t) {
			perfect, err := core.Run(spec, core.PerfectL2, opt)
			if err != nil {
				t.Fatal(err)
			}
			diffs, err := idealPortDiff(spec, opt, perfect)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) > 0 {
				t.Errorf("%s at %s: ideal port differs from perfect-L2: %v", spec.Name, f, diffs)
			}
		}
	}
}

// TestIdealPortWithoutClampCaught is the ideal port's known-bad
// self-test: without the program-order submission clamp, which the
// engine applies, the referee must see a different cycle count on the
// kernels whose loads issue out of order.
func TestIdealPortWithoutClampCaught(t *testing.T) {
	opt := core.Options{Factor: workloads.Test}
	for _, name := range []string{"twolf", "vpr", "bzip2", "gap", "mcf"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		perfect, err := core.Run(spec, core.PerfectL2, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := runIdealPort(spec, opt, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles == perfect.CPU.Cycles {
			t.Errorf("%s: the unclamped ideal port matches perfect-L2 at %d cycles", name, res.Cycles)
		}
		t.Logf("%s: perfect-L2 %d cycles, unclamped ideal port %d", name, perfect.CPU.Cycles, res.Cycles)
	}
}

// idleCellOptions are CheckWorkload's cell options without faults.
func idleCellOptions(f workloads.Factor) core.Options {
	return core.Options{Factor: f, Attrib: true, CheckInvariants: true}
}

// TestIdleCoRunnerMatchesSolo co-runs every kernel beside an idle core
// under every default scheme, with attribution and the invariant audit
// on, and demands core 0's Result equal the solo run's.
func TestIdleCoRunnerMatchesSolo(t *testing.T) {
	opt := idleCellOptions(workloads.Test)
	for _, spec := range kernelSpecs(t) {
		for _, sc := range DefaultSchemes() {
			solo, err := core.Run(spec, sc, opt)
			if err != nil {
				t.Fatal(err)
			}
			diffs, err := coRunnerDiff(spec, idleSpec, sc, opt, solo)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) > 0 {
				t.Errorf("%s/%s beside an idle core differs from solo: %v", spec.Name, sc, diffs)
			}
		}
	}
}

// TestBusyCoRunnerCaught is the idle co-runner's known-bad self-test: a
// co-runner that runs real loads contends for the shared L2 and DRAM, so
// the relation must report a difference.
func TestBusyCoRunnerCaught(t *testing.T) {
	opt := idleCellOptions(workloads.Test)
	busy, err := workloads.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mcf", "art"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := core.Run(spec, core.GRPVar, opt)
		if err != nil {
			t.Fatal(err)
		}
		diffs, err := coRunnerDiff(spec, busy, core.GRPVar, opt, solo)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) == 0 {
			t.Errorf("%s beside swim matches its solo run; the relation cannot see contention", name)
		}
	}
}

// TestRelationsCountedApart pins the cell accounting of the default
// configuration: the perfect-L2 reference plus one fault-free cell per
// default scheme. The referee runs are counted apart, one ideal port per
// program and one idle co-run per fault-free cell, so Cells keeps
// meaning the cells CheckSeed simulates.
func TestRelationsCountedApart(t *testing.T) {
	rep, err := Run(Config{N: 2, Seed: 1, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Programs {
		if p.Skipped {
			continue
		}
		if want := 1 + len(DefaultSchemes()); p.Cells != want || p.Relations != want {
			t.Fatalf("seed %d ran %d cells and %d relation runs, want %d of each", p.Seed, p.Cells, p.Relations, want)
		}
	}
}

// TestL2WaysNeverAddMisses checks the LRU stack property under none:
// with the set count fixed, going from 4 to 8 to 16 L2 ways never adds an
// L2 miss, on every kernel and on a slice of the generated fleet. At test
// factor the paper's 4096 sets hold almost every working set, so a
// 512-set L2 checks it where capacity misses occur.
func TestL2WaysNeverAddMisses(t *testing.T) {
	specs := kernelSpecs(t)
	for seed := int64(1); seed <= 60; seed++ {
		if spec := fleetSpec(seed); spec != nil {
			specs = append(specs, spec)
		}
	}
	for _, fourWayBytes := range []int{1 << 20, 128 << 10} {
		for _, spec := range specs {
			var prev uint64
			for i, ways := range []int{4, 8, 16} {
				mc := sim.DefaultMemConfig()
				mc.L2.SizeBytes = fourWayBytes / 4 * ways
				mc.L2.Assoc = ways
				r, err := core.Run(spec, core.NoPrefetch, core.Options{Factor: workloads.Test, Mem: &mc})
				if err != nil {
					t.Fatal(err)
				}
				if i > 0 && r.L2.Misses > prev {
					t.Errorf("%s, %d-byte L2: %d ways miss %d times, %d ways %d",
						spec.Name, mc.L2.SizeBytes, ways, r.L2.Misses, ways/2, prev)
				}
				prev = r.L2.Misses
			}
		}
	}
}

// fleetSpec returns the generated program of seed as a spec with
// CheckWorkload's instruction budget, or nil when the oracle skips it.
func fleetSpec(seed int64) *workloads.Spec {
	orc, err := workloads.RunOracle(specName(seed), progen.Generate(seed, progen.Config{}), 0)
	if err != nil {
		return nil
	}
	return orc.Spec
}
