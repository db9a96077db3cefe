package core

import (
	"reflect"
	"testing"

	"grp/internal/cpu"
	"grp/internal/workloads"
)

// stepInterleave is the interleave runThreads replaced, kept as its
// reference: the unfinished thread whose last commit is furthest behind
// (the lower core id on ties) steps one instruction at a time while it
// stays behind the runner-up.
func stepInterleave(threads []*cpu.Thread) (int, error) {
	for {
		best, next := -1, -1
		for i, th := range threads {
			switch {
			case th.Done():
			case best < 0 || th.LastCommitCycle() < threads[best].LastCommitCycle():
				best, next = i, best
			case next < 0 || th.LastCommitCycle() < threads[next].LastCommitCycle():
				next = i
			}
		}
		if best < 0 {
			return -1, nil
		}
		th := threads[best]
		for {
			if err := th.Step(); err != nil {
				return best, err
			}
			if th.Done() || next >= 0 && !behind(th, best, threads[next], next) {
				break
			}
		}
	}
}

// behind reports whether thread a (core ai) steps before thread b (core
// bi): fewer committed cycles, then the lower core id.
func behind(a *cpu.Thread, ai int, b *cpu.Thread, bi int) bool {
	ac, bc := a.LastCommitCycle(), b.LastCommitCycle()
	return ac < bc || ac == bc && ai < bi
}

// TestRunThreadsMatchesStepInterleave: runThreads, one RunUntil call per
// interleave switch, leaves every core's whole Result as the reference
// interleave does, which steps one instruction per call. Solo cells run
// each kernel in one call against one step per instruction; the 3-core
// co-runs switch cores thousands of times.
func TestRunThreadsMatchesStepInterleave(t *testing.T) {
	run := func(specs []*workloads.Spec, sc Scheme, opt Options, runner threadRunner) []*Result {
		t.Helper()
		rs, err := runCores(specs, sc, opt, len(specs) > 1, engineFor, runner)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	spec := func(name string) *workloads.Spec {
		s, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	opt := Options{Factor: workloads.Test, CheckInvariants: true}
	for _, name := range workloads.Names() {
		specs := []*workloads.Spec{spec(name)}
		if got, want := run(specs, GRPVar, opt, runThreads), run(specs, GRPVar, opt, stepInterleave); !reflect.DeepEqual(got, want) {
			t.Errorf("%s solo: %+v, stepped %+v", name, *got[0], *want[0])
		}
	}
	attrib := opt
	attrib.Attrib = true
	for _, c := range []struct {
		benches []string
		sc      Scheme
		opt     Options
	}{
		{[]string{"mcf", "swim", "art"}, GRPVar, opt},
		{[]string{"twolf", "mesa", "gzip"}, SRP, attrib},
		{[]string{"mcf", "mcf", "mcf"}, GRPAdaptive, opt},
		{[]string{"equake", "bzip2", "gap"}, NoPrefetch, opt},
	} {
		var specs []*workloads.Spec
		for _, b := range c.benches {
			specs = append(specs, spec(b))
		}
		got, want := run(specs, c.sc, c.opt, runThreads), run(specs, c.sc, c.opt, stepInterleave)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%v/%s core %d: %+v, stepped %+v", c.benches, c.sc, i, *got[i], *want[i])
			}
		}
	}
}
