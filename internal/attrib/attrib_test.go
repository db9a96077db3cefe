package attrib

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestLifecycleClasses walks one prefetch through each terminal class and
// checks the tallies land where they should.
func TestLifecycleClasses(t *testing.T) {
	l := NewLedger()

	// Region 0x1000 is opened by a demand miss at PC 0x40.
	l.Hint(0x40, 0x1040)

	// Useful: issue, fill, demand hit.
	id := l.Issue(0x1080, 100, false)
	l.Fill(id, 300, true, 0, false, false)
	l.DemandHit(id)

	// Late: demand merges while in flight.
	id = l.Issue(0x10c0, 110, false)
	l.Late(id)
	l.Fill(id, 320, true, 0, false, false)

	// Evicted-unused: fill displaced nothing valid, evicted untouched.
	id = l.Issue(0x1100, 120, false)
	l.Fill(id, 330, true, 0, false, false)
	l.EvictPrefetched(id)

	// Pollution: fill displaced a valid demand line, evicted untouched.
	id = l.Issue(0x1140, 130, false)
	l.Fill(id, 340, true, 0x9000, true, false)
	l.EvictPrefetched(id)

	// Redundant: fill was a no-op.
	id = l.Issue(0x1180, 140, false)
	l.Fill(id, 350, false, 0, false, false)

	// Cancelled in flight.
	id = l.Issue(0x11c0, 150, false)
	l.Cancel(id)

	// Resident at end of run.
	id = l.Issue(0x1200, 160, true)
	l.Fill(id, 360, true, 0, false, false)

	// The polluted victim re-misses.
	l.Hint(0x44, 0x9000)

	l.Finalize()
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	s := l.Summarize()
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	want := Counts{Useful: 1, Late: 1, EvictedUnused: 1, Pollution: 1,
		Redundant: 1, Cancelled: 1, ResidentUnused: 1}
	if s.Counts != want {
		t.Errorf("class counts = %+v, want %+v", s.Counts, want)
	}
	if s.Issued != 7 {
		t.Errorf("issued = %d, want 7", s.Issued)
	}
	if s.VictimReMisses != 1 {
		t.Errorf("victim re-misses = %d, want 1", s.VictimReMisses)
	}
	if s.HintsSeen != 2 {
		t.Errorf("hints seen = %d, want 2", s.HintsSeen)
	}

	// All seven prefetches share region 0x1000 and attribute to PC 0x40.
	if len(s.Regions) != 1 || s.Regions[0].Key != 0x1000 || s.Regions[0].Issued != 7 {
		t.Errorf("regions = %+v, want one region 0x1000 with 7 issues", s.Regions)
	}
	if len(s.PCs) != 1 || s.PCs[0].Key != 0x40 || s.PCs[0].Issued != 7 {
		t.Errorf("pcs = %+v, want one pc 0x40 with 7 issues", s.PCs)
	}
}

// TestLateThenReferenced pins the upgrade-only semantics shared with the
// trace timeline: a late prefetch later demand-referenced stays late.
func TestLateThenReferenced(t *testing.T) {
	l := NewLedger()
	id := l.Issue(0x2000, 10, false)
	l.Late(id)
	l.Fill(id, 200, true, 0, false, false)
	l.DemandHit(id) // L2 still had the prefetched mark set
	l.Finalize()
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	s := l.Summarize()
	if s.Counts.Late != 1 || s.Counts.Useful != 0 {
		t.Errorf("counts = %+v, want exactly one late", s.Counts)
	}
}

// TestDecisionCounters checks the pre-issue decision tallies stay out of
// the conservation sum.
func TestDecisionCounters(t *testing.T) {
	l := NewLedger()
	l.HoldBusy()
	l.HoldBusy()
	l.DropHeldPresent()
	l.DropSoftware()
	l.Finalize()
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	s := l.Summarize()
	if s.HoldsBusy != 2 || s.DropsHeldPresent != 1 || s.DropsSoftware != 1 {
		t.Errorf("decisions = %+v", s)
	}
	if s.Issued != 0 || s.Counts.Total() != 0 {
		t.Errorf("decision counters leaked into conservation: %+v", s)
	}
}

// TestHardwareTriggerPC: a prefetch into a region no demand ever missed
// attributes to PC 0.
func TestHardwareTriggerPC(t *testing.T) {
	l := NewLedger()
	l.Cancel(l.Issue(0x7000, 5, false))
	l.Finalize()
	s := l.Summarize()
	if len(s.PCs) != 1 || s.PCs[0].Key != 0 {
		t.Errorf("pcs = %+v, want the hardware-trigger pc 0", s.PCs)
	}
}

// TestTriggerPCIsLastMissInRegion: a prefetch attributes to the last
// PC that missed in its region before the issue, whichever region the
// misses have moved on to since.
func TestTriggerPCIsLastMissInRegion(t *testing.T) {
	l := NewLedger()
	l.Hint(0x40, 0x1000)
	l.Hint(0x44, 0x1040) // same region, another load
	l.Hint(0x48, 0x2000) // the misses move on to region 0x2000
	l.Cancel(l.Issue(0x1080, 10, false))
	l.Cancel(l.Issue(0x2040, 11, false))
	l.Cancel(l.Issue(0x3000, 12, false)) // no miss ever in region 0x3000
	l.Hint(0x4c, 0x1000)                 // region 0x1000 again, new PC
	l.Cancel(l.Issue(0x10c0, 13, false))
	l.Finalize()
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]uint64{}
	for _, r := range l.Summarize().PCs {
		got[r.Key] = r.Issued
	}
	want := map[uint64]uint64{0x44: 1, 0x48: 1, 0: 1, 0x4c: 1}
	if len(got) != len(want) {
		t.Fatalf("pcs = %v, want %v", got, want)
	}
	for pc, n := range want {
		if got[pc] != n {
			t.Fatalf("pcs = %v, want %v", got, want)
		}
	}
}

// TestSlabRecycling drives many short lifecycles through a small working
// set and checks the slab stops growing once warmed.
func TestSlabRecycling(t *testing.T) {
	l := NewLedger()
	for i := 0; i < 1000; i++ {
		block := uint64(0x4000 + (i%8)*64)
		id := l.Issue(block, uint64(i), false)
		l.Fill(id, uint64(i)+100, true, 0, false, false)
		l.DemandHit(id)
	}
	if got := len(l.entries); got > 8 {
		t.Errorf("slab grew to %d entries for an 8-block working set", got)
	}
	l.Finalize()
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if s := l.Summarize(); s.Counts.Useful != 1000 {
		t.Errorf("useful = %d, want 1000", s.Counts.Useful)
	}
}

// TestSlabHoldsOnlyTrackedEntries: an ended entry frees its slot, so the
// slab holds the prefetches still in flight or resident, however many
// distinct blocks a run prefetches.
func TestSlabHoldsOnlyTrackedEntries(t *testing.T) {
	l := NewLedger()
	var resident []int32
	for i := 0; i < 4096; i++ {
		id := l.Issue(uint64(0x100000+i*64), uint64(i), false)
		l.Fill(id, uint64(i)+100, true, 0, false, false)
		resident = append(resident, id)
		if len(resident) == 16 {
			l.EvictPrefetched(resident[0])
			resident = resident[1:]
		}
	}
	if got := len(l.entries); got > 16 {
		t.Errorf("slab grew to %d entries for at most 16 tracked prefetches", got)
	}
	l.Finalize()
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	s := l.Summarize()
	if s.Counts.EvictedUnused != 4096-15 || s.Counts.ResidentUnused != 15 {
		t.Errorf("counts = %+v, want %d evicted-unused and 15 resident-unused", s.Counts, 4096-15)
	}
}

// TestSteadyStateAllocs: after warmup, the full per-prefetch lifecycle
// allocates nothing.
func TestSteadyStateAllocs(t *testing.T) {
	l := NewLedger()
	drive := func() {
		for i := 0; i < 64; i++ {
			block := uint64(0x10000 + (i%16)*64)
			l.Hint(uint64(0x40+i%4), block)
			id := l.Issue(block, uint64(i), false)
			l.Fill(id, uint64(i)+100, true, block+0x8000, true, false)
			if i%2 == 0 {
				l.DemandHit(id)
			} else {
				l.EvictPrefetched(id)
			}
		}
	}
	drive()
	drive()
	if allocs := testing.AllocsPerRun(100, drive); allocs != 0 {
		t.Errorf("steady-state ledger allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSummaryJSONRoundTrip: the summary must survive the campaign cache's
// JSON serialization byte-exactly.
func TestSummaryJSONRoundTrip(t *testing.T) {
	l := NewLedger()
	l.Hint(0x40, 0x1000)
	id := l.Issue(0x1040, 10, false)
	l.Fill(id, 200, true, 0x9000, true, false)
	l.EvictPrefetched(id)
	l.Issue(0x1080, 20, true)
	l.Finalize()
	s := l.Summarize()

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("summary does not round-trip:\n first: %s\nsecond: %s", data, data2)
	}
	if err := back.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestNilSafe: every ledger method must be a no-op on a nil receiver, the
// same contract as the other telemetry sinks.
func TestNilSafe(t *testing.T) {
	var l *Ledger
	l.Hint(1, 2)
	if id := l.Issue(3, 4, false); id != -1 {
		t.Errorf("nil ledger Issue returned %d, want -1", id)
	}
	l.HoldBusy()
	l.DropHeldPresent()
	l.DropSoftware()
	l.Cancel(3)
	l.Late(3)
	l.Fill(3, 5, true, 0, false, false)
	l.DemandHit(3)
	l.EvictPrefetched(3)
	l.Finalize()
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if s := l.Summarize(); s != nil {
		t.Errorf("nil ledger summarized to %+v", s)
	}
	var ns *Summary
	if err := ns.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if ns.Accuracy() != 0 {
		t.Error("nil summary accuracy not 0")
	}
}

// TestTopGroupsOrdering: rows sort by issued desc, key asc, and cut at
// MaxGroups with the total preserved.
func TestTopGroupsOrdering(t *testing.T) {
	l := NewLedger()
	for r := 0; r < MaxGroups+10; r++ {
		base := uint64(r+1) * RegionBytes
		n := 1 + r%3
		for i := 0; i < n; i++ {
			block := base + uint64(i)*64
			l.Cancel(l.Issue(block, uint64(r), false))
		}
	}
	l.Finalize()
	s := l.Summarize()
	if len(s.Regions) != MaxGroups {
		t.Fatalf("kept %d regions, want %d", len(s.Regions), MaxGroups)
	}
	if s.RegionsTotal != MaxGroups+10 {
		t.Errorf("regions_total = %d, want %d", s.RegionsTotal, MaxGroups+10)
	}
	for i := 1; i < len(s.Regions); i++ {
		a, b := s.Regions[i-1], s.Regions[i]
		if a.Issued < b.Issued || (a.Issued == b.Issued && a.Key >= b.Key) {
			t.Fatalf("rows %d,%d out of order: %+v then %+v", i-1, i, a, b)
		}
	}
}
