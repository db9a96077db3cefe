package core

import (
	"errors"
	"strings"
	"testing"

	"grp/internal/faults"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// TestFaultMetamorphic is the headline robustness property: faults perturb
// timing only, so every scheme under every fault plan must produce
// bit-identical architectural results (registers, memory, instruction
// counts) to its fault-free run. mcf mixes pointer chasing with array
// resets, exercising GRP's recursive path alongside the spatial one.
func TestFaultMetamorphic(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	plans := []string{"light,seed=7", "heavy,seed=11", "chaos,seed=13"}
	schemes := append(AllSchemes(), SoftwarePF)
	var injected uint64
	for _, sc := range schemes {
		clean, err := Run(spec, sc, Options{Factor: workloads.Test, CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s fault-free: %v", sc, err)
		}
		for _, ps := range plans {
			plan, err := faults.Parse(ps)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Run(spec, sc, Options{
				Factor: workloads.Test, Faults: &plan, CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("%s under %q: %v", sc, ps, err)
			}
			if r.ArchDigest != clean.ArchDigest {
				t.Errorf("%s under %q: ArchDigest %#x != fault-free %#x",
					sc, ps, r.ArchDigest, clean.ArchDigest)
			}
			if r.CPU.Instrs != clean.CPU.Instrs || r.CPU.Loads != clean.CPU.Loads ||
				r.CPU.Stores != clean.CPU.Stores || r.CPU.Branches != clean.CPU.Branches ||
				r.CPU.Mispredicts != clean.CPU.Mispredicts || r.CPU.Halted != clean.CPU.Halted {
				t.Errorf("%s under %q: timing-independent counts diverged:\n faulty %+v\n clean  %+v",
					sc, ps, r.CPU, clean.CPU)
			}
			injected += r.FaultCounts.Total() + r.Mem.PrefetchesCancelled
		}
	}
	if injected == 0 {
		t.Fatal("no faults injected across any scheme/plan: the harness is not armed")
	}
	t.Logf("injected %d faults across %d scheme runs", injected, len(schemes)*len(plans))
}

// TestFaultsPerturbTiming guards against the injector silently becoming a
// no-op: under the chaos plan a prefetching scheme must show different
// timing (and some injected-fault count) than the fault-free run.
func TestFaultsPerturbTiming(t *testing.T) {
	spec, err := workloads.ByName("wupwise")
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(spec, SRP, Options{Factor: workloads.Test})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("chaos,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(spec, SRP, Options{Factor: workloads.Test, Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.FaultCounts.Total() == 0 && faulty.Mem.PrefetchesCancelled == 0 {
		t.Fatalf("chaos plan injected nothing: %+v", faulty.FaultCounts)
	}
	if faulty.CPU.Cycles == clean.CPU.Cycles {
		t.Errorf("chaos plan did not perturb timing (both %d cycles)", clean.CPU.Cycles)
	}
	if faulty.ArchDigest != clean.ArchDigest {
		t.Errorf("ArchDigest changed under faults: %#x vs %#x", faulty.ArchDigest, clean.ArchDigest)
	}
}

// TestWatchdogStallAborts wedges the memory system (every fill delayed by
// ~2^31 cycles) and checks the run aborts with a structured livelock
// diagnostic instead of silently spinning for billions of cycles.
func TestWatchdogStallAborts(t *testing.T) {
	spec, err := workloads.ByName("wupwise")
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Seed: 3, DelayFill: 1, DelayFillCycles: 1 << 31}
	r, err := Run(spec, NoPrefetch, Options{
		Factor:   workloads.Test,
		Faults:   &plan,
		Watchdog: &sim.WatchdogConfig{StallCycles: 100_000},
	})
	if err == nil {
		t.Fatalf("expected livelock abort, run completed: %+v", r.CPU)
	}
	var ll *sim.LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("error is not a LivelockError: %v", err)
	}
	if ll.Dump == "" || !strings.Contains(ll.Dump, "inflight") {
		t.Errorf("diagnostic dump missing or empty:\n%s", ll.Dump)
	}
	checkAbortPoint(t, "wupwise", ll, abortPoint{cycle: 2147483870, lastRetire: 11, lastMem: 10})
}

// abortPoint is where and why a stall abort fired.
type abortPoint struct{ cycle, lastRetire, lastMem uint64 }

func checkAbortPoint(t *testing.T, name string, ll *sim.LivelockError, want abortPoint) {
	t.Helper()
	got := abortPoint{cycle: ll.Cycle, lastRetire: ll.LastRetire, lastMem: ll.LastMem}
	if got != want || ll.Spin {
		t.Errorf("%s: stall abort at cycle %d (last retire %d, last memory event %d, spin %v), want cycle %d (%d, %d, stall)",
			name, got.cycle, got.lastRetire, got.lastMem, ll.Spin, want.cycle, want.lastRetire, want.lastMem)
	}
}

// TestWatchdogAbortPoints pins where tight stall thresholds abort real
// runs, field by field: the core skips the watchdog at commits inside
// its stall window, and that must not move an abort by one cycle. The
// co-runs abort mid-run, after the other core has retired, so they also
// pin the shared rule that a retirement on any core counts as progress.
func TestWatchdogAbortPoints(t *testing.T) {
	cases := []struct {
		benches []string
		scheme  Scheme
		stall   uint64
		want    abortPoint
	}{
		{[]string{"mcf"}, GRPVar, 200, abortPoint{cycle: 218, lastRetire: 8, lastMem: 6}},
		{[]string{"swim", "mcf"}, NoPrefetch, 220, abortPoint{cycle: 26752, lastRetire: 26523, lastMem: 26520}},
		{[]string{"equake", "mcf"}, NoPrefetch, 220, abortPoint{cycle: 1747, lastRetire: 1522, lastMem: 1519}},
	}
	for _, tc := range cases {
		name := strings.Join(tc.benches, "+") + "/" + tc.scheme.String()
		opt := Options{Factor: workloads.Test, Watchdog: &sim.WatchdogConfig{StallCycles: tc.stall}}
		var err error
		if len(tc.benches) == 1 {
			spec, serr := workloads.ByName(tc.benches[0])
			if serr != nil {
				t.Fatal(serr)
			}
			_, err = Run(spec, tc.scheme, opt)
		} else {
			_, err = RunCoRun(tc.benches, tc.scheme, opt)
		}
		var ll *sim.LivelockError
		if !errors.As(err, &ll) {
			t.Errorf("%s: want a livelock abort, got %v", name, err)
			continue
		}
		checkAbortPoint(t, name, ll, tc.want)
	}
}

// TestOptionsValidateRejectsBadConfigs: invalid overrides surface as
// errors from Run instead of panics from deep inside a constructor.
func TestOptionsValidateRejectsBadConfigs(t *testing.T) {
	spec, err := workloads.ByName("wupwise")
	if err != nil {
		t.Fatal(err)
	}
	badMem := sim.DefaultMemConfig()
	badMem.L2.Assoc = 0
	badPlan := faults.Plan{DropIssue: 2}
	cases := []Options{
		{Factor: workloads.Test, Mem: &badMem},
		{Factor: workloads.Test, Faults: &badPlan},
	}
	for i, opt := range cases {
		if _, err := Run(spec, NoPrefetch, opt); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
}
