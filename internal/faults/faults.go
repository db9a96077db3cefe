// Package faults implements deterministic, seed-driven fault injection for
// the simulated memory hierarchy.
//
// GRP's central contract is that prefetching is purely speculative: a
// dropped, late, deprioritized, or outright cancelled region prefetch may
// cost cycles but must never change architectural results (paper Sections
// 3-4 — the access prioritizer exists precisely so prefetches can be
// starved safely). This package turns that safety argument into something
// the simulator can *prove* rather than assume: a Plan describes a set of
// timing- and hint-level perturbations, an Injector rolls them from a
// seeded PRNG, and the hierarchy's hook points apply them. Every fault is
// restricted by construction to the timing domain (latencies, queue
// occupancy, hint bits feeding the prefetch engines), so architectural
// results under any plan must be bit-identical to the fault-free run —
// the metamorphic property checked in internal/core.
//
// Determinism: the Injector uses a splitmix64 generator seeded from the
// Plan, and a fault kind consumes PRNG state only when its probability is
// nonzero, so the same plan over the same simulated event sequence always
// injects the same faults.
package faults

import (
	"fmt"
	"math"

	"grp/internal/isa"
)

// Plan describes which faults to inject and how hard. The zero value
// injects nothing. Probabilities are per opportunity (per prefetch pop,
// per DRAM access, per fill, per pump step).
type Plan struct {
	// Seed drives the injector's PRNG; 0 is treated as 1.
	Seed uint64

	// DropIssue is the probability that a prefetch candidate popped from
	// the engine is discarded instead of issued (a dropped issue).
	DropIssue float64
	// TruncateRegion is the probability that a spatial hint's region-size
	// coefficient is reduced, truncating the region the engine builds.
	TruncateRegion float64
	// CorruptHint is the probability that a miss's compiler hint kind is
	// corrupted (one of the spatial/pointer/recursive bits flipped) before
	// it reaches the prefetch engine.
	CorruptHint float64
	// DropHint is the probability that a miss's compiler hints are
	// stripped entirely before reaching the prefetch engine — the
	// "hints went missing" failure mode (broken toolchain, unannotated
	// library code). Guided engines see an unhinted miss stream.
	DropHint float64
	// CancelInflight is the probability, per prefetch-pump step, that one
	// in-flight prefetch (not yet merged with a demand) is cancelled.
	CancelInflight float64

	// DegradeChannel is the probability that a DRAM access suffers
	// DegradeCycles of extra latency (a degraded channel).
	DegradeChannel float64
	DegradeCycles  uint64
	// StuckBank is the probability that a DRAM access leaves its bank
	// stuck busy for StuckCycles beyond its normal row cycle.
	StuckBank   float64
	StuckCycles uint64

	// MSHRSteal virtually occupies this many L2 MSHR slots, modeling
	// exhaustion pressure (at least one slot is always left usable).
	MSHRSteal int
	// DelayFill is the probability that a fill's completion is delayed by
	// DelayFillCycles.
	DelayFill       float64
	DelayFillCycles uint64
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.DropIssue > 0 || p.TruncateRegion > 0 || p.CorruptHint > 0 ||
		p.DropHint > 0 || p.CancelInflight > 0 || p.DegradeChannel > 0 ||
		p.StuckBank > 0 || p.MSHRSteal > 0 || p.DelayFill > 0
}

// Validate checks the plan for internal consistency.
func (p *Plan) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"drop", p.DropIssue}, {"truncate", p.TruncateRegion},
		{"corrupt-hint", p.CorruptHint}, {"drop-hint", p.DropHint},
		{"cancel", p.CancelInflight},
		{"degrade", p.DegradeChannel}, {"stuck-bank", p.StuckBank},
		{"delay-fill", p.DelayFill},
	}
	for _, pr := range probs {
		if math.IsNaN(pr.v) || pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.MSHRSteal < 0 {
		return fmt.Errorf("faults: mshr-steal %d negative", p.MSHRSteal)
	}
	if p.DegradeChannel > 0 && p.DegradeCycles == 0 {
		return fmt.Errorf("faults: degrade probability set but degrade cycles zero")
	}
	if p.StuckBank > 0 && p.StuckCycles == 0 {
		return fmt.Errorf("faults: stuck-bank probability set but stuck cycles zero")
	}
	if p.DelayFill > 0 && p.DelayFillCycles == 0 {
		return fmt.Errorf("faults: delay-fill probability set but delay cycles zero")
	}
	const maxFaultCycles = 1 << 32 // keep faulted latencies finite-looking
	if p.DegradeCycles > maxFaultCycles || p.StuckCycles > maxFaultCycles || p.DelayFillCycles > maxFaultCycles {
		return fmt.Errorf("faults: fault latency exceeds %d cycles", uint64(maxFaultCycles))
	}
	return nil
}

// Counts reports how many faults of each kind actually fired during a run.
type Counts struct {
	Dropped        uint64 // prefetch issues discarded
	Truncated      uint64 // region coefficients reduced
	CorruptedHints uint64 // hint kinds flipped
	DroppedHints   uint64 // hint sets stripped entirely
	Degraded       uint64 // DRAM accesses with extra latency
	StuckBanks     uint64 // bank row cycles extended
	DelayedFills   uint64 // fills completed late
}

// Total sums all injected faults.
func (c Counts) Total() uint64 {
	return c.Dropped + c.Truncated + c.CorruptedHints + c.DroppedHints + c.Degraded + c.StuckBanks + c.DelayedFills
}

// String implements fmt.Stringer.
func (c Counts) String() string {
	return fmt.Sprintf("dropped=%d truncated=%d corrupted=%d hintless=%d degraded=%d stuck=%d delayed=%d",
		c.Dropped, c.Truncated, c.CorruptedHints, c.DroppedHints, c.Degraded, c.StuckBanks, c.DelayedFills)
}

// Injector rolls faults from a plan with a deterministic PRNG. It is not
// safe for concurrent use; the simulation is single-goroutine.
type Injector struct {
	plan   Plan
	state  uint64
	counts Counts
}

// NewInjector builds an injector for the plan (copied; later mutation of
// the plan does not affect the injector).
func NewInjector(p *Plan) *Injector {
	in := &Injector{plan: *p, state: p.Seed}
	if in.state == 0 {
		in.state = 1
	}
	return in
}

// Counts returns the faults injected so far.
func (in *Injector) Counts() Counts { return in.counts }

// next advances the splitmix64 generator.
func (in *Injector) next() uint64 {
	in.state += 0x9e3779b97f4a7c15
	z := in.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll returns true with probability p, consuming PRNG state only when the
// outcome is not forced (p <= 0), so fault kinds compose without shifting
// each other's random streams on and off.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(in.next()>>11)/(1<<53) < p
}

// DropIssue reports whether the current prefetch candidate should be
// discarded instead of issued.
func (in *Injector) DropIssue() bool {
	if in.roll(in.plan.DropIssue) {
		in.counts.Dropped++
		return true
	}
	return false
}

// CorruptHint possibly flips one of the spatial/pointer/recursive hint
// bits. Hints only steer the prefetch engines, never functional execution,
// so corruption is timing-only by construction.
func (in *Injector) CorruptHint(h isa.Hint) isa.Hint {
	if !in.roll(in.plan.CorruptHint) {
		return h
	}
	in.counts.CorruptedHints++
	bits := []isa.Hint{isa.HintSpatial, isa.HintPointer, isa.HintRecursive}
	return h ^ bits[in.next()%uint64(len(bits))]
}

// DropHint possibly strips every hint bit from a miss, so guided engines
// see it unhinted. Like corruption, stripping is timing-only: hints never
// affect functional execution.
func (in *Injector) DropHint(h isa.Hint) isa.Hint {
	if h == 0 || !in.roll(in.plan.DropHint) {
		return h
	}
	in.counts.DroppedHints++
	return 0
}

// TruncateCoeff possibly reduces a region-size coefficient, truncating the
// region a variable-size engine would build. The result stays within the
// 3-bit encoding.
func (in *Injector) TruncateCoeff(c uint8) uint8 {
	if !in.roll(in.plan.TruncateRegion) {
		return c
	}
	in.counts.Truncated++
	if c == 0 {
		return 0
	}
	return uint8(in.next() % uint64(c)) // strictly smaller than c
}

// CancelInflight reports whether one in-flight prefetch should be
// cancelled at this pump step. The memory system counts actual
// cancellations (a roll may find nothing cancellable).
func (in *Injector) CancelInflight() bool {
	return in.roll(in.plan.CancelInflight)
}

// DramFault returns extra access latency (degraded channel) and extra bank
// busy time (stuck bank) for one DRAM access.
func (in *Injector) DramFault() (extraLatency, extraBankBusy uint64) {
	if in.roll(in.plan.DegradeChannel) {
		in.counts.Degraded++
		extraLatency = in.plan.DegradeCycles
	}
	if in.roll(in.plan.StuckBank) {
		in.counts.StuckBanks++
		extraBankBusy = in.plan.StuckCycles
	}
	return extraLatency, extraBankBusy
}

// StolenSlots returns how many of n MSHR slots are virtually occupied by
// fault pressure; at least one slot is always left usable.
func (in *Injector) StolenSlots(n int) int {
	s := in.plan.MSHRSteal
	if s >= n {
		s = n - 1
	}
	if s < 0 {
		s = 0
	}
	return s
}

// FillDelay returns extra cycles added to a fill's completion (zero when
// the roll misses).
func (in *Injector) FillDelay() uint64 {
	if in.roll(in.plan.DelayFill) {
		in.counts.DelayedFills++
		return in.plan.DelayFillCycles
	}
	return 0
}
