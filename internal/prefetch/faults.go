package prefetch

import (
	"fmt"

	"grp/internal/isa"
)

// Faults is the slice of the fault injector the prefetch path uses. It is
// declared here (rather than importing internal/faults) so the dependency
// points from the injector to the engines, keeping this package leaf-like;
// *faults.Injector satisfies it.
type Faults interface {
	// DropIssue reports whether a popped candidate should be discarded
	// instead of issued.
	DropIssue() bool
	// CorruptHint possibly flips a hint kind before the engine sees it.
	CorruptHint(h isa.Hint) isa.Hint
	// DropHint possibly strips a miss's hints entirely.
	DropHint(h isa.Hint) isa.Hint
	// TruncateCoeff possibly shrinks a region-size coefficient.
	TruncateCoeff(c uint8) uint8
}

// Checker is an optional Engine capability: engines that maintain internal
// queue state can audit it. The memory system's periodic invariant checker
// calls it when enabled.
type Checker interface {
	// CheckInvariants returns a descriptive error if internal state is
	// inconsistent (queue overflow, out-of-range bit positions, ...).
	CheckInvariants() error
}

// WithFaults wraps an engine with hint-level fault injection: hints may be
// corrupted and region coefficients truncated before the engine sees them,
// and popped candidates may be dropped instead of issued. All of these
// perturb only what gets prefetched — never functional execution — so the
// wrapped engine must leave architectural results untouched (the
// metamorphic property checked in internal/core). A nil injector returns
// the engine unwrapped.
func WithFaults(e Engine, inj Faults) Engine {
	if inj == nil {
		return e
	}
	return &faulty{inner: e, inj: inj}
}

type faulty struct {
	inner Engine
	inj   Faults
}

func (f *faulty) Name() string { return f.inner.Name() }

func (f *faulty) OnL2DemandMiss(ev MissEvent) {
	ev.Hint = f.inj.DropHint(ev.Hint)
	ev.Hint = f.inj.CorruptHint(ev.Hint)
	ev.Coeff = f.inj.TruncateCoeff(ev.Coeff)
	f.inner.OnL2DemandMiss(ev)
}

func (f *faulty) OnDemandHitPrefetched(block uint64) { f.inner.OnDemandHitPrefetched(block) }

func (f *faulty) OnArrival(block uint64) { f.inner.OnArrival(block) }

func (f *faulty) Pop(present func(block uint64) bool) (uint64, bool) {
	block, ok := f.inner.Pop(present)
	if ok && f.inj.DropIssue() {
		// The candidate was consumed from the queue but its issue is lost;
		// the pump sees "nothing to issue" for this opportunity.
		return 0, false
	}
	return block, ok
}

func (f *faulty) PopOpenFirst(present, rowOpen func(block uint64) bool) (uint64, bool) {
	opa, isOPA := f.inner.(OpenPageAware)
	if !isOPA {
		return f.Pop(present)
	}
	block, ok := opa.PopOpenFirst(present, rowOpen)
	if ok && f.inj.DropIssue() {
		return 0, false
	}
	return block, ok
}

func (f *faulty) SetBound(v uint64) { f.inner.SetBound(v) }

func (f *faulty) Indirect(indexElemAddr, base uint64, shift uint) {
	f.inner.Indirect(indexElemAddr, base, shift)
}

func (f *faulty) Stats() Stats { return f.inner.Stats() }

func (f *faulty) QueueLen() int {
	if ql, ok := f.inner.(QueueLenner); ok {
		return ql.QueueLen()
	}
	return 0
}

func (f *faulty) CheckInvariants() error {
	if c, ok := f.inner.(Checker); ok {
		return c.CheckInvariants()
	}
	return nil
}

// checkInvariants audits the region queue: bounded occupancy, in-range
// region sizes, candidate bits and index within the region.
func (q *regionQueue) checkInvariants() error {
	if len(q.entries) > QueueSize {
		return fmt.Errorf("prefetch queue holds %d entries, capacity %d", len(q.entries), QueueSize)
	}
	for i, e := range q.entries {
		if e.blocks == 0 || e.blocks > RegionBlocks {
			return fmt.Errorf("queue entry %d (base %#x): region size %d blocks outside (0,%d]",
				i, e.base, e.blocks, RegionBlocks)
		}
		if e.idx >= e.blocks {
			return fmt.Errorf("queue entry %d (base %#x): index %d outside %d-block region",
				i, e.base, e.idx, e.blocks)
		}
		if e.blocks < 64 && e.bits>>e.blocks != 0 {
			return fmt.Errorf("queue entry %d (base %#x): candidate bits %#x beyond %d-block region",
				i, e.base, e.bits, e.blocks)
		}
		// Spatial regions are region-aligned but pointer-target regions
		// start at an arbitrary block, so only block alignment is invariant.
		if e.base&(BlockBytes-1) != 0 {
			return fmt.Errorf("queue entry %d: base %#x not block aligned", i, e.base)
		}
	}
	return nil
}
