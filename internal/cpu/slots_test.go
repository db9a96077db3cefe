package cpu

import (
	"math/rand"
	"testing"
)

// TestSlotRingMatchesLegacyPastWindow drives the ring slotTable and the
// legacy map table through the same reserveWith sequences, with probes
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
			ring, leg := newSlotTable(limit, false), newSlotTable(limit, true)
			var ringOther, legOther *slotTable
			if paired {
				ringOther, legOther = newSlotTable(otherLimit, false), newSlotTable(otherLimit, true)
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
				want := leg.reserveWith(at, frontier, legOther)
				if got != want {
					t.Fatalf("seed %d paired=%v probe %d at %d (frontier %d): ring reserved %d, legacy %d",
						seed, paired, k, at, frontier, got, want)
				}
				if len(ring.spill) > spilled {
					spilled = len(ring.spill)
				}
				if k%4096 == 4095 {
					ring.pruneBelow(frontier)
					leg.pruneBelow(frontier)
				}
			}
			if spilled == 0 {
				t.Fatalf("seed %d paired=%v: no probe spilled past the window", seed, paired)
			}
		}
	}
}
