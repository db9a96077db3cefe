package cpu

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"grp/internal/cache"
	"grp/internal/compiler"
	"grp/internal/isa"
	"grp/internal/mem"
	"grp/internal/prefetch"
	"grp/internal/progen"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// runOutcome is everything a run leaves behind that the run loop could
// get wrong: the core's result and registers, the memory image, and what
// the memory system saw.
type runOutcome struct {
	Res  Result
	Regs [isa.NumRegs]uint64
	Mem  uint64
	Sys  sim.MemStats
	L1   cache.Stats
	L2   cache.Stats
}

// loopSpecs returns the 18 kernels and the first 100 generated programs
// whose interpreter run fits the conformance step bound.
func loopSpecs(t *testing.T) []*workloads.Spec {
	t.Helper()
	var specs []*workloads.Spec
	for _, name := range workloads.Names() {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for seed := int64(1); seed <= 100; seed++ {
		orc, err := workloads.RunOracle(fmt.Sprintf("gen%d", seed), progen.Generate(seed, progen.Config{}), 0)
		if err == nil {
			specs = append(specs, orc.Spec)
		}
	}
	return specs
}

// runSpec runs spec at test factor on a fresh grp/var memory system with
// the watchdog armed; drive runs the started thread to its end.
func runSpec(t *testing.T, spec *workloads.Spec, drive func(*Thread) error) runOutcome {
	t.Helper()
	built := spec.Build(workloads.Test)
	m := mem.New()
	prog, layout, _, err := compiler.CompileWorkloadOpts(built.Prog, m, compiler.Policy(0), compiler.CodegenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	built.Init(m, layout)
	ms, err := sim.NewMemSystem(sim.DefaultMemConfig(), prefetch.NewGRP(prefetch.DefaultGRPConfig(), m))
	if err != nil {
		t.Fatal(err)
	}
	ms.SetWatchdog(sim.WatchdogConfig{})
	cfg := Default()
	cfg.MaxInstrs = built.MaxInstrs
	c := mustNew(t, cfg, m, ms)
	th, err := c.Start(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := drive(th); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	l1, l2, _ := ms.Hierarchy()
	return runOutcome{th.Result(), c.Regs(), m.Digest(), ms.Stats(), l1.Stats(), l2.Stats()}
}

// toEnd runs a thread to its end in one call.
func toEnd(th *Thread) error { return th.RunUntil(^uint64(0)) }

// perInstruction runs a thread to its end one instruction per call.
func perInstruction(th *Thread) error {
	for !th.Done() {
		if err := th.RunUntil(0); err != nil {
			return err
		}
	}
	return nil
}

// firstLoopMismatch returns the first spec on which driving its thread
// with drive leaves a different outcome than one call to the end.
func firstLoopMismatch(t *testing.T, specs []*workloads.Spec, drive func(*Thread) error) string {
	t.Helper()
	for _, spec := range specs {
		want := runSpec(t, spec, toEnd)
		if got := runSpec(t, spec, drive); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("%s: %+v, one call to the end gives %+v", spec.Name, got, want)
		}
	}
	return ""
}

// TestRunLoopSlicesAgree: a thread run one instruction per RunUntil call
// leaves the same result, registers, memory and memory-system counters
// as one call to the end, on every kernel and 100 generated programs.
// The loop keeps its hot state in locals for a call's length, so this is
// what shows it carries that state across calls.
func TestRunLoopSlicesAgree(t *testing.T) {
	if m := firstLoopMismatch(t, loopSpecs(t), perInstruction); m != "" {
		t.Error(m)
	}
}

// TestRunLoopLostStateCaught is the known-bad self-test: a loop that
// loses fetchedThisCycle between calls (each call's fetch-group count is
// dropped on return) must fail the comparison above.
func TestRunLoopLostStateCaught(t *testing.T) {
	lossy := func(th *Thread) error {
		for !th.Done() {
			f := th.fetchedThisCycle
			if err := th.RunUntil(0); err != nil {
				return err
			}
			th.fetchedThisCycle = f
		}
		return nil
	}
	if firstLoopMismatch(t, loopSpecs(t)[:1], lossy) == "" {
		t.Error("a loop that loses fetchedThisCycle between calls passed the comparison")
	}
}

// TestCancelFiresAtSameInstruction: the cancellation poll aborts the run
// at the same instruction whether the thread runs in one call or one
// instruction per call.
func TestCancelFiresAtSameInstruction(t *testing.T) {
	p, err := isa.Assemble("spin", `
	li r1, 0
loop:
	addi r1, r1, 1
	jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	for _, drive := range []struct {
		name string
		run  func(*Thread) error
	}{{"one call", toEnd}, {"per instruction", perInstruction}} {
		polls := 0
		cfg := Default()
		cfg.Cancel = func() error {
			if polls++; polls == 3 {
				return stop
			}
			return nil
		}
		th, err := mustNew(t, cfg, mem.New(), &flatMem{lat: 3}).Start(p)
		if err != nil {
			t.Fatal(err)
		}
		err = drive.run(th)
		if !errors.Is(err, stop) || !th.Done() {
			t.Fatalf("%s: err %v, done %v; want the cancel error on a finished thread", drive.name, err, th.Done())
		}
		// The poll runs before instructions 4095, 8191 and 12287.
		if got := th.Result().Instrs; got != 3*4096-1 {
			t.Errorf("%s: cancelled after %d instructions, want %d", drive.name, got, 3*4096-1)
		}
	}
}

// abortingMem panics, as a watchdog or invariant abort does, at its
// loads-th load.
type abortingMem struct {
	flatMem
	loads int
}

func (a *abortingMem) Load(pc, addr uint64, h isa.Hint, coeff uint8, now uint64) uint64 {
	if a.loads--; a.loads == 0 {
		panic("abort")
	}
	return a.flatMem.Load(pc, addr, h, coeff, now)
}

// TestAbortPanicWritesBackState: a panic from inside the memory system
// leaves the thread's state as the same panic does one instruction into
// a per-instruction run: the loop writes its locals back on that exit
// too.
func TestAbortPanicWritesBackState(t *testing.T) {
	p, err := isa.Assemble("loads", `
	li r1, 8192
	li r2, 0
loop:
	ld r3, 0(r1)
	st r3, 8(r1)
	addi r1, r1, 64
	addi r2, r2, 1
	jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	abortAt := func(drive func(*Thread) error) threadState {
		th, err := mustNew(t, Default(), mem.New(), &abortingMem{flatMem{lat: 20}, 300}).Start(p)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the memory system's abort did not surface")
				}
			}()
			_ = drive(th)
		}()
		return th.threadState
	}
	got, want := abortAt(toEnd), abortAt(perInstruction)
	type hot struct {
		fetchCycle, lastCommit    uint64
		fetched, commits, robSlot int32
		pc                        int
		i                         uint64
		res                       Result
	}
	view := func(s threadState) hot {
		return hot{s.fetchCycle, s.lastCommitCycle, s.fetchedThisCycle, s.commitsThisCycle, s.robSlot, s.pc, s.i, s.res}
	}
	if view(got) != view(want) {
		t.Errorf("after an abort in one call: %+v; after the same abort one instruction per call: %+v", view(got), view(want))
	}
	if got.i == 0 || got.res.Loads != 300 {
		t.Errorf("abort at instruction %d with %d loads; want the 300th load", got.i, got.res.Loads)
	}
}
