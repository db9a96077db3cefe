package core

import (
	"fmt"
	"reflect"
	"testing"

	"grp/internal/mem"
	"grp/internal/prefetch"
	"grp/internal/progen"
	"grp/internal/workloads"
)

// mutedEngine wraps a scheme's engine so that it sees every event the
// memory system delivers but never issues: Pop finds nothing and the
// queue reads empty.
type mutedEngine struct{ prefetch.Engine }

func (mutedEngine) Pop(func(uint64) bool) (uint64, bool) { return 0, false }
func (mutedEngine) QueueLen() int                        { return 0 }

func mutedEngineFor(scheme Scheme, spec *workloads.Spec, m *mem.Memory, opt Options) prefetch.Engine {
	return mutedEngine{engineFor(scheme, spec, m, opt)}
}

// issuingSchemes are the schemes whose engine issues prefetches.
var issuingSchemes = []Scheme{StridePF, GHB, SRP, GRPFix, GRPVar, GRPAdaptive, PointerOnly}

// runWith runs one solo cell with the given engine factory.
func runWith(t *testing.T, spec *workloads.Spec, sc Scheme, newEngine engineMaker) *Result {
	t.Helper()
	rs, err := runCores([]*workloads.Spec{spec}, sc, Options{Factor: workloads.Test, CheckInvariants: true}, false, newEngine)
	if err != nil {
		t.Fatal(err)
	}
	return rs[0]
}

// timingDiff returns the timing fields of a that differ from b: the
// core's Result, the memory-system counters and the L1, L2 and DRAM
// statistics.
func timingDiff(a, b *Result) []string {
	var out []string
	for _, f := range []struct {
		name string
		x, y any
	}{{"cpu", a.CPU, b.CPU}, {"mem", a.Mem, b.Mem}, {"l1", a.L1, b.L1}, {"l2", a.L2, b.L2}, {"dram", a.Dram, b.Dram}} {
		if !reflect.DeepEqual(f.x, f.y) {
			out = append(out, fmt.Sprintf("%s: %+v vs %+v", f.name, f.x, f.y))
		}
	}
	return out
}

// generatedSpec returns generated program seed as a spec whose budget is
// the conformance harness's, or nil when its interpreter run exceeds the
// harness's step bound.
func generatedSpec(seed int64) *workloads.Spec {
	orc, err := workloads.RunOracle(fmt.Sprintf("gen%d", seed), progen.Generate(seed, progen.Config{}), 0)
	if err != nil {
		return nil
	}
	return orc.Spec
}

// TestMutedEngineEqualsNone runs every issuing scheme with its engine
// muted, on every kernel and on generated programs: an engine that is
// told everything but issues nothing must leave the run cycle-identical
// to none. Observing must not perturb.
func TestMutedEngineEqualsNone(t *testing.T) {
	var specs []*workloads.Spec
	for _, name := range workloads.Names() {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for seed := int64(1); seed <= 100; seed++ {
		if spec := generatedSpec(seed); spec != nil {
			specs = append(specs, spec)
		}
	}
	for _, spec := range specs {
		none := runWith(t, spec, NoPrefetch, engineFor)
		for _, sc := range issuingSchemes {
			if d := timingDiff(runWith(t, spec, sc, mutedEngineFor), none); len(d) > 0 {
				t.Errorf("%s/%s muted differs from none: %v", spec.Name, sc, d)
			}
		}
	}
}

// TestUnmutedEngineCaught is the muted relation's known-bad self-test:
// with the engines left issuing, most kernel cells must differ from none.
func TestUnmutedEngineCaught(t *testing.T) {
	differ, cells := 0, 0
	for _, name := range workloads.Names() {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		none := runWith(t, spec, NoPrefetch, engineFor)
		for _, sc := range issuingSchemes {
			cells++
			if len(timingDiff(runWith(t, spec, sc, engineFor), none)) > 0 {
				differ++
			}
		}
	}
	t.Logf("%d of %d cells differ from none", differ, cells)
	if differ < cells*3/4 {
		t.Fatalf("only %d of %d issuing cells differ from none; the relation cannot see prefetches", differ, cells)
	}
}
