package conformance

import "testing"

// TestTimingEquivalence is the timing referee of the one engine:
// generated programs run through every realistic scheme on both the
// timing engine (as a one-core system) and the retained legacy engine,
// and the two must agree on every Result field but the attribution
// summary. 200 programs in full mode — the count the engine rewrite was
// signed off against — and a fast slice under -short.
func TestTimingEquivalence(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 20
	}
	rep, err := Run(Config{N: n, Seed: 1, Jobs: 4, TimingCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("timing equivalence violated:\n%s", rep.Summary())
	}
	// The mode must actually have run the legacy twins: each unskipped
	// program runs 1 perfect-L2 reference + 5 schemes × 2 engines.
	for _, p := range rep.Programs {
		if p.Skipped {
			continue
		}
		if want := 1 + 2*len(DefaultSchemes()); p.Cells != want {
			t.Fatalf("seed %d ran %d cells, want %d (legacy twins missing?)", p.Seed, p.Cells, want)
		}
	}
}

// TestTimingCheckCellAccounting pins that TimingCheck=false runs no
// legacy twins, so the two modes stay distinguishable in reports.
func TestTimingCheckCellAccounting(t *testing.T) {
	rep, err := Run(Config{N: 2, Seed: 1, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Programs {
		if p.Skipped {
			continue
		}
		if want := 1 + len(DefaultSchemes()); p.Cells != want {
			t.Fatalf("seed %d ran %d cells, want %d", p.Seed, p.Cells, want)
		}
	}
}
