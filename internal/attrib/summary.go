package attrib

import (
	"cmp"
	"fmt"
	"slices"
)

// GroupSummary is one per-region or per-PC attribution row.
type GroupSummary struct {
	// Key is the region base address (per-region rows) or the triggering
	// PC (per-PC rows; 0 = hardware-internal trigger, e.g. pointer-chase
	// targets whose region no demand access ever missed).
	Key    uint64 `json:"key"`
	Issued uint64 `json:"issued"`
	Counts Counts `json:"counts"`
}

// Summary is the end-of-run attribution digest: small, deterministic, and
// JSON-round-trippable, so it persists inside campaign cache entries. The
// per-region and per-PC breakdowns keep the top MaxGroups rows by issue
// count (ties broken by key) plus a count of groups beyond the cut.
type Summary struct {
	Issued    uint64 `json:"issued"`
	Counts    Counts `json:"counts"`
	HintsSeen uint64 `json:"hints_seen"`

	// Prioritizer / pre-issue decisions (not part of the issued total:
	// these prefetches never reached the controller as counted issues).
	HoldsBusy        uint64 `json:"holds_busy"`
	DropsHeldPresent uint64 `json:"drops_held_present"`
	DropsSoftware    uint64 `json:"drops_software"`

	// VictimReMisses counts demand misses to blocks that an unused
	// prefetch fill had displaced — pollution's demonstrated cost.
	VictimReMisses uint64 `json:"victim_remisses"`

	// CrossCorePollution counts this core's prefetch fills that evicted
	// another core's valid demand-resident line from the shared L2 (co-run
	// mode only; always zero solo). Like the other annotations it sits
	// outside the conservation identity: the same prefetch still lands in
	// exactly one taxonomy class.
	CrossCorePollution uint64 `json:"cross_core_pollution,omitempty"`

	Regions      []GroupSummary `json:"regions"`
	PCs          []GroupSummary `json:"pcs"`
	RegionsTotal int            `json:"regions_total"`
	PCsTotal     int            `json:"pcs_total"`
}

// MaxGroups bounds the per-region and per-PC rows kept in a Summary.
const MaxGroups = 64

// Summarize freezes the ledger into its serializable digest. Call after
// Finalize. Nil-safe (returns nil).
func (l *Ledger) Summarize() *Summary {
	if l == nil {
		return nil
	}
	s := &Summary{
		Issued:             l.issued,
		Counts:             l.classTotals.counts(),
		HintsSeen:          l.hintsSeen,
		HoldsBusy:          l.holdsBusy,
		DropsHeldPresent:   l.dropsHeld,
		DropsSoftware:      l.dropsSW,
		VictimReMisses:     l.victimRemiss,
		CrossCorePollution: l.crossPoll,
		RegionsTotal:       l.regions.issuing(),
		PCsTotal:           l.pcs.issuing(),
	}
	s.Regions = topGroups(l.regions)
	s.PCs = topGroups(l.pcs)
	return s
}

// topGroups flattens an aggregate table into rows sorted by issue count
// descending (key ascending on ties — full determinism), cut at MaxGroups.
func topGroups(g groups) []GroupSummary {
	rows := make([]GroupSummary, 0, len(g.rows))
	for i := range g.rows {
		r := &g.rows[i]
		if r.issued == 0 && r.counts.total() == 0 {
			continue
		}
		rows = append(rows, GroupSummary{Key: g.keys[i], Issued: r.issued, Counts: r.counts.counts()})
	}
	slices.SortFunc(rows, func(a, b GroupSummary) int {
		if a.Issued != b.Issued {
			return cmp.Compare(b.Issued, a.Issued)
		}
		return cmp.Compare(a.Key, b.Key)
	})
	if len(rows) > MaxGroups {
		rows = rows[:MaxGroups]
	}
	return rows
}

// CheckConservation verifies the summary-level invariant: class totals
// sum exactly to the issue count, and every kept row's classes sum to its
// own issue count adjusted for rows below the cut.
func (s *Summary) CheckConservation() error {
	if s == nil {
		return nil
	}
	if got := s.Counts.Total(); got != s.Issued {
		return fmt.Errorf("attrib: summary class totals %d != issued %d", got, s.Issued)
	}
	for _, r := range s.Regions {
		if r.Counts.Total() != r.Issued {
			return fmt.Errorf("attrib: region %#x classes %d != issued %d", r.Key, r.Counts.Total(), r.Issued)
		}
	}
	for _, r := range s.PCs {
		if r.Counts.Total() != r.Issued {
			return fmt.Errorf("attrib: pc %#x classes %d != issued %d", r.Key, r.Counts.Total(), r.Issued)
		}
	}
	return nil
}

// Accuracy returns the ledger's accuracy view in percent: prefetches that
// paid off (useful + late) over issued.
func (s *Summary) Accuracy() float64 {
	if s == nil || s.Issued == 0 {
		return 0
	}
	return 100 * float64(s.Counts.Useful+s.Counts.Late) / float64(s.Issued)
}
