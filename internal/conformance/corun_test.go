package conformance

import (
	"strings"
	"testing"

	"grp/internal/core"
	"grp/internal/sim"
)

// TestCoRunPairInvarianceFleet runs a smaller fleet as 2-core
// self-co-runs across the full realistic scheme set: architectural and
// memory digests must match solo, no core may beat its solo cycle
// count, and the shared-fabric invariants (arbiter fairness included)
// hold throughout.
func TestCoRunPairInvarianceFleet(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	rep, err := RunCoRun(CoRunConfig{
		N:    n,
		Seed: 101,
		Jobs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("2-core co-run broke an invariance:\n%s", rep.Summary())
	}
}

// TestTamperedArbiterCaught is the multi-core known-bad self-test,
// mirroring TestTamperedLadderCaught: an arbiter tampered to silently
// refuse core 1 models a starvation bug in the cross-core issue path.
// The run must not wedge (the starved core's demands still flow; only
// its prefetch pump is dead) and the always-on invariant checking must
// flag programs fleet-wide through the arbiter's starvation bound.
func TestTamperedArbiterCaught(t *testing.T) {
	sim.SetArbiterTamper(func(c int) bool { return c == 1 })
	defer sim.SetArbiterTamper(nil)

	rep, err := RunCoRun(CoRunConfig{
		N:       10,
		Seed:    1,
		Schemes: []core.Scheme{core.GRPVar},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("tampered arbiter went undetected:\n%s", rep.Summary())
	}
	var starved int
	for _, f := range rep.Failures() {
		if f.Kind != "run-error" {
			t.Fatalf("unexpected failure kind under arbiter tamper: %s", f)
		}
		if strings.Contains(f.Detail, "starvation") {
			starved++
		}
	}
	if starved == 0 {
		t.Fatalf("no failure names the starvation invariant:\n%s", rep.Summary())
	}

	// The same fleet with the tamper removed is clean — the failures
	// above are the tamper's, not the engine's.
	sim.SetArbiterTamper(nil)
	rep, err = RunCoRun(CoRunConfig{
		N:       10,
		Seed:    1,
		Schemes: []core.Scheme{core.GRPVar},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("untampered co-run fleet failed:\n%s", rep.Summary())
	}
}
