package prefetch

import (
	"math/rand"
	"testing"
)

// TestLadderTransitionTable pins the decision matrix with explicit counter
// vectors, one per rule.
func TestLadderTransitionTable(t *testing.T) {
	cases := []struct {
		name                         string
		from                         LadderState
		useful, late, issued, misses uint64
		want                         LadderState
	}{
		{"acc-low-steps-down", MiddleOfTheRoad, 10, 0, 100, 50, ConservativeState},
		{"acc-low-floor-holds", VeryConservative, 0, 0, 100, 50, VeryConservative},
		{"acc-low-boundary-exclusive", MiddleOfTheRoad, 20, 0, 100, 200, MiddleOfTheRoad}, // exactly 20% is not low (and 20 < 50% of 200 ⇒ covLow, but acc not high)
		{"late-steps-up", MiddleOfTheRoad, 60, 1, 100, 50, AggressiveState},
		{"late-ceiling-holds", VeryAggressive, 60, 1, 100, 50, VeryAggressive},
		{"acc-high-cov-low-steps-up", ConservativeState, 80, 0, 100, 400, MiddleOfTheRoad},
		{"acc-high-cov-ok-holds", MiddleOfTheRoad, 80, 0, 100, 100, MiddleOfTheRoad},
		{"idle-epoch-with-misses-steps-up", VeryConservative, 0, 0, 0, 512, ConservativeState},
		{"idle-epoch-no-misses-holds", MiddleOfTheRoad, 0, 0, 0, 0, MiddleOfTheRoad},
		{"acc-mid-holds", MiddleOfTheRoad, 50, 0, 100, 400, MiddleOfTheRoad},
		{"acc-low-beats-late", AggressiveState, 5, 5, 100, 50, MiddleOfTheRoad}, // pollution dominates lateness
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := LadderTransition(tc.from, tc.useful, tc.late, tc.issued, tc.misses)
			if got != tc.want {
				t.Fatalf("LadderTransition(%v, u=%d l=%d i=%d m=%d) = %v, want %v",
					tc.from, tc.useful, tc.late, tc.issued, tc.misses, got, tc.want)
			}
		})
	}
}

// ladderDrive feeds one pseudo-random event sequence into a fresh ladder
// and returns it; the caller asserts properties along the way via check.
func ladderDrive(seed int64, events int, check func(l *Ladder)) *Ladder {
	rng := rand.New(rand.NewSource(seed))
	l := NewLadder()
	for i := 0; i < events; i++ {
		switch rng.Intn(4) {
		case 0:
			l.RecordIssue()
		case 1:
			l.RecordMiss()
		case 2:
			l.RecordUseful(false)
		case 3:
			l.RecordUseful(rng.Intn(8) == 0)
		}
		if check != nil {
			check(l)
		}
	}
	return l
}

// TestLadderStateAlwaysInRange drives many arbitrary counter sequences and
// asserts the state (and every derived per-rung parameter) never leaves
// its legal range.
func TestLadderStateAlwaysInRange(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		l := ladderDrive(seed, 20000, func(l *Ladder) {
			if int(l.State()) >= NumLadderStates {
				t.Fatalf("seed %d: state %d escaped the ladder", seed, l.State())
			}
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			p := adaptLadderParams[l.rung()]
			if p.maxRegionBlocks < 1 || p.maxRegionBlocks > RegionBlocks {
				t.Fatalf("seed %d: rung %v region cap %d outside [1,%d]", seed, l.State(), p.maxRegionBlocks, RegionBlocks)
			}
			if p.ptrBlocks < 1 || p.ptrBlocks > RegionBlocks {
				t.Fatalf("seed %d: rung %v ptr degree %d outside [1,%d]", seed, l.State(), p.ptrBlocks, RegionBlocks)
			}
			if p.queueCap < 1 || p.queueCap > QueueSize {
				t.Fatalf("seed %d: rung %v queue cap %d outside [1,%d]", seed, l.State(), p.queueCap, QueueSize)
			}
			if p.chaseDepth < 1 {
				t.Fatalf("seed %d: rung %v chase depth 0", seed, l.State())
			}
		})
		_ = l
	}
}

// TestLadderDeterministic replays identical event sequences and asserts
// identical trajectories — the property the conformance digests lean on.
func TestLadderDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		var trajA, trajB []LadderState
		ladderDrive(seed, 20000, func(l *Ladder) { trajA = append(trajA, l.State()) })
		ladderDrive(seed, 20000, func(l *Ladder) { trajB = append(trajB, l.State()) })
		if len(trajA) != len(trajB) {
			t.Fatalf("seed %d: trajectory lengths differ", seed)
		}
		for i := range trajA {
			if trajA[i] != trajB[i] {
				t.Fatalf("seed %d: trajectories diverge at event %d: %v vs %v", seed, i, trajA[i], trajB[i])
			}
		}
	}
}

// TestLadderMonotoneAccuracyConverges runs epochs of perfectly accurate,
// fully covering, never-late feedback from every starting state: the
// ladder must reach a fixed point and stay there (no oscillation under a
// monotone accuracy stream).
func TestLadderMonotoneAccuracyConverges(t *testing.T) {
	for s := LadderState(0); s < NumLadderStates; s++ {
		l := &Ladder{state: s}
		perfectEpoch := func() {
			// useful == issued (100% accuracy), zero late, and coverage
			// saturated: misses == useful so covLow is false.
			for i := 0; i < ladderEpochIssues; i++ {
				l.RecordUseful(false)
				l.RecordMiss()
				l.RecordIssue() // the ladderEpochIssues-th issue closes the epoch
			}
		}
		var prev LadderState
		fixed := -1
		for epoch := 0; epoch < 16; epoch++ {
			prev = l.State()
			perfectEpoch()
			if l.State() == prev {
				fixed = epoch
				break
			}
		}
		if fixed < 0 {
			t.Fatalf("start %v: no fixed point after 16 perfect epochs", s)
		}
		at := l.State()
		for epoch := 0; epoch < 8; epoch++ {
			perfectEpoch()
			if l.State() != at {
				t.Fatalf("start %v: left fixed state %v for %v after convergence", s, at, l.State())
			}
		}
	}
}

// TestLadderAccurateUncoveredClimbsToCeiling is the other monotone stream:
// perfect accuracy but poor coverage (most misses unprefetched) climbs
// every starting state to the top rung and stays there.
func TestLadderAccurateUncoveredClimbsToCeiling(t *testing.T) {
	for s := LadderState(0); s < NumLadderStates; s++ {
		l := &Ladder{state: s}
		hungryEpoch := func() {
			// Three misses per useful prefetch: ~33% coverage at 100%
			// accuracy. Epochs close on whichever bound trips first.
			for i := 0; i < ladderEpochIssues; i++ {
				l.RecordUseful(false)
				l.RecordMiss()
				l.RecordMiss()
				l.RecordMiss()
				l.RecordIssue()
			}
		}
		for epoch := 0; epoch < 8; epoch++ {
			hungryEpoch()
		}
		if l.State() != VeryAggressive {
			t.Fatalf("start %v: accurate-but-uncovered epochs reached %v, want %v", s, l.State(), VeryAggressive)
		}
		hungryEpoch()
		if l.State() != VeryAggressive {
			t.Fatalf("start %v: left the ceiling after convergence", s)
		}
	}
}

// TestLadderLowAccuracyDrivesToFloor pins the throttling direction: an
// unbroken stream of inaccurate epochs lands every starting state on the
// most conservative rung.
func TestLadderLowAccuracyDrivesToFloor(t *testing.T) {
	for s := LadderState(0); s < NumLadderStates; s++ {
		l := &Ladder{state: s}
		for epoch := 0; epoch < 8; epoch++ {
			for i := 0; i < ladderEpochIssues; i++ {
				l.RecordIssue() // zero useful: 0% accuracy
			}
		}
		if l.State() != VeryConservative {
			t.Fatalf("start %v: 8 polluting epochs left state %v, want %v", s, l.State(), VeryConservative)
		}
	}
}

// TestLadderMissOnlyEpochsEscalate pins the fallback-activation path: an
// engine that issues nothing while misses pile up (wrong or absent hints)
// must climb toward the fallback rungs.
func TestLadderMissOnlyEpochsEscalate(t *testing.T) {
	l := NewLadder()
	for epoch := 0; epoch < 6; epoch++ {
		for i := 0; i < ladderEpochMisses; i++ {
			l.RecordMiss()
		}
	}
	if l.State() != VeryAggressive {
		t.Fatalf("6 miss-only epochs reached %v, want %v", l.State(), VeryAggressive)
	}
}

// TestLadderTamperCaught proves the invariant checker sees a broken
// transition function: a tamperer pushing the state off the ladder must
// surface as a CheckInvariants error, not a panic.
func TestLadderTamperCaught(t *testing.T) {
	SetLadderTamper(func(from, to LadderState) LadderState { return NumLadderStates + 3 })
	defer SetLadderTamper(nil)
	l := NewLadder()
	for i := 0; i < ladderEpochIssues; i++ {
		l.RecordIssue()
	}
	if err := l.CheckInvariants(); err == nil {
		t.Fatal("tampered ladder passed CheckInvariants")
	}
	if r := l.rung(); r != NumLadderStates-1 {
		t.Fatalf("tampered rung() = %d, want clamp to %d", r, NumLadderStates-1)
	}
}
