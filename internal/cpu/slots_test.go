package cpu

import (
	"math/rand"
	"testing"
)

// mapSlotTable is the reference the byte ring replaced: a sparse map of
// per-cycle reservation counts, which keeps every cycle it ever reserved.
type mapSlotTable struct {
	limit  uint8
	counts map[uint64]uint8
}

func newMapSlotTable(limit int) *mapSlotTable {
	return &mapSlotTable{limit: uint8(limit), counts: make(map[uint64]uint8)}
}

// reserveWith claims the first cycle >= at with a free slot in both s
// and (when other != nil) other.
func (s *mapSlotTable) reserveWith(at uint64, other *mapSlotTable) uint64 {
	for ; ; at++ {
		if s.counts[at] < s.limit && (other == nil || other.counts[at] < other.limit) {
			s.counts[at]++
			if other != nil {
				other.counts[at]++
			}
			return at
		}
	}
}

// TestSlotRingMatchesLegacyPastWindow drives the ring slotTable and the
// reference map table through the same reserveWith sequences, with probes
// from 1 to 4×slotWindow cycles above a monotone fetch frontier, so most
// land beyond the ring and spill, and with and without a second table.
// A slow frontier puts several probes on each cycle, so cycles that
// spilled come into the window and are reclaimed while they still hold
// counts. Both tables must return the same cycle for every probe.
func TestSlotRingMatchesLegacyPastWindow(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, paired := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			limit, otherLimit := 1+rng.Intn(3), 1+rng.Intn(2)
			ring, ref := newSlotTable(limit), newMapSlotTable(limit)
			var ringOther *slotTable
			var refOther *mapSlotTable
			if paired {
				ringOther, refOther = newSlotTable(otherLimit), newMapSlotTable(otherLimit)
			}
			spilled := 0
			frontier := uint64(1)
			for k := 0; k < 40000; k++ {
				switch r := rng.Intn(100); {
				case r < 25:
					frontier++
				case r == 25:
					frontier += uint64(rng.Intn(slotWindow))
				}
				at := frontier + 1 + uint64(rng.Int63n(4*slotWindow))
				got := ring.reserveWith(at, frontier, ringOther)
				want := ref.reserveWith(at, refOther)
				if got != want {
					t.Fatalf("seed %d paired=%v probe %d at %d (frontier %d): ring reserved %d, map %d",
						seed, paired, k, at, frontier, got, want)
				}
				if len(ring.spill) > spilled {
					spilled = len(ring.spill)
				}
				if k%4096 == 4095 {
					ring.pruneBelow(frontier)
				}
			}
			if spilled == 0 {
				t.Fatalf("seed %d paired=%v: no probe spilled past the window", seed, paired)
			}
		}
	}
}

// TestSlotRingJumps moves the frontier by slotWindow−1, slotWindow,
// slotWindow+1 and several windows at once, and by a few short strides.
// Before the jump every cycle of the window is reserved to its limit,
// and counts are spilled just past the window's top and next to the far
// edge of the window after the jump, leaving the edge cycle itself free.
// After the jump every cycle that entered the window, and a few past its
// top, is probed to its limit, and after that the frontier creeps on.
// The ring must reserve what the reference map table reserves: a slot left
// uncleared by the jump shows as a full cycle at the new window's top.
func TestSlotRingJumps(t *testing.T) {
	jumps := []uint64{1, 7, 100, slotWindow / 2, slotWindow - 1, slotWindow, slotWindow + 1,
		2 * slotWindow, 3*slotWindow + 5}
	for _, jump := range jumps {
		for _, paired := range []bool{false, true} {
			for _, start := range []uint64{1, slotWindow - 3} {
				ring, ref := newSlotTable(2), newMapSlotTable(2)
				var ringOther *slotTable
				var refOther *mapSlotTable
				perCycle := 2 // probes that fill a cycle
				if paired {
					ringOther, refOther = newSlotTable(1), newMapSlotTable(1)
					perCycle = 1
				}
				probe := func(at, frontier uint64) {
					t.Helper()
					got := ring.reserveWith(at, frontier, ringOther)
					want := ref.reserveWith(at, refOther)
					if got != want {
						t.Fatalf("jump %d paired=%v start %d: probe at %d (frontier %d): ring reserved %d, map %d",
							jump, paired, start, at, frontier, got, want)
					}
				}
				fill := func(from, to, frontier uint64) {
					t.Helper()
					for c := from; c <= to; c++ {
						for k := 0; k < perCycle; k++ {
							probe(c, frontier)
						}
					}
				}
				f := start
				fill(f+1, f+slotWindow, f)
				top := f + jump + slotWindow // the new window's top
				for _, c := range []uint64{f + slotWindow + 1, f + slotWindow + 2, top - 1, top + 1, top + 2} {
					probe(c, f)
				}
				if len(ring.spill) == 0 {
					t.Fatalf("jump %d paired=%v start %d: nothing spilled before the jump", jump, paired, start)
				}
				f += jump
				fill(max(f, start+slotWindow)+1, f+slotWindow+4, f)
				for k := uint64(0); k < 64; k++ {
					f++
					probe(f+slotWindow-k%3, f)
				}
			}
		}
	}
}
