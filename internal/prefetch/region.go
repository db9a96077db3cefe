package prefetch

import (
	"grp/internal/isa"
	"grp/internal/oamap"
)

// MemReader is the slice of simulated memory the pointer-scanning hardware
// needs: word reads (the engine inspects returned cache lines) and the
// heap base-and-bounds test of Section 3.2.
type MemReader interface {
	Read64(addr uint64) uint64
	Read32(addr uint64) uint32
	InHeap(addr uint64) bool
}

// GRPConfig parameterizes the GRP engine.
type GRPConfig struct {
	// Variable enables compiler-controlled variable-size region
	// prefetching (GRP/Var); when false the engine is GRP/Fix.
	Variable bool
	// RecursionDepth is the initial counter for recursive pointer hints
	// (6 in the paper; 3 for mcf to keep simulation tractable, footnote 2).
	RecursionDepth uint8
	// PtrBlocks is how many blocks to prefetch per discovered pointer
	// (2 in the paper: the target block and its successor, Sec. 3.3.1).
	PtrBlocks int
}

// DefaultGRPConfig returns the paper's settings.
func DefaultGRPConfig() GRPConfig {
	return GRPConfig{Variable: true, RecursionDepth: 6, PtrBlocks: 2}
}

// regionRow is one operating point of the region engine: how much
// speculation it permits. Each static scheme runs one row; grp-adaptive
// runs the row of its ladder's current rung.
type regionRow struct {
	// maxRegionBlocks caps the spatial region size; it is the size of
	// every region that is not variably sized.
	maxRegionBlocks int
	// ptrBlocks is how many blocks to fetch per discovered pointer.
	ptrBlocks int
	// chaseDepth caps the recursive pointer-chase counter.
	chaseDepth uint8
	// queueCap bounds the prefetch queue (the prioritizer threshold:
	// a shorter queue means less stale speculation competing for idle
	// channels).
	queueCap int
	// fallbackBlocks, when nonzero, opens an SRP-style region of that many
	// blocks on unhinted primary misses — the aggressive rungs' answer to
	// absent or untrustworthy hints.
	fallbackBlocks int
}

// adaptLadderParams maps each ladder rung to its row. The middle rung
// reproduces GRP/Var's paper-faithful operating point exactly;
// conservative rungs shrink regions, pointer fan-out, chase depth, and the
// queue; aggressive rungs add hardware-only region fallback and wider
// pointer fan-out.
var adaptLadderParams = [NumLadderStates]regionRow{
	VeryConservative:  {maxRegionBlocks: 4, ptrBlocks: 1, chaseDepth: 1, queueCap: 8, fallbackBlocks: 0},
	ConservativeState: {maxRegionBlocks: 16, ptrBlocks: 1, chaseDepth: 2, queueCap: 16, fallbackBlocks: 0},
	MiddleOfTheRoad:   {maxRegionBlocks: 64, ptrBlocks: 2, chaseDepth: 6, queueCap: QueueSize, fallbackBlocks: 0},
	AggressiveState:   {maxRegionBlocks: 64, ptrBlocks: 2, chaseDepth: 6, queueCap: QueueSize, fallbackBlocks: 8},
	VeryAggressive:    {maxRegionBlocks: 64, ptrBlocks: 4, chaseDepth: 6, queueCap: QueueSize, fallbackBlocks: 32},
}

// adaptTrackCap bounds the adaptive feedback tracking map; when it grows
// past this the map is reset wholesale (only feedback fidelity is
// affected, never timing of the prefetches themselves).
const adaptTrackCap = 4096

// Region is the region prefetch engine of Sections 3.1–3.3: a LIFO queue
// of region entries fed by demand misses, a pointer scanner that inspects
// arriving lines, and PREFI indirect prefetching. The region-based schemes
// are operating points of this one engine:
//
//   - srp treats every miss as a spatial miss of fixed size and ignores
//     compiler hints and PREFI (Lin et al., Sec. 3.1);
//   - grp/fix and grp/var follow the compiler hints: spatial hints open
//     regions (sized from SETBOUND and the coefficient on grp/var),
//     pointer hints arm the scanner, PREFI queues indirect targets;
//   - ptr treats every miss as a recursive-pointer miss and ignores PREFI
//     (the hardware-only pointer prefetcher of Sec. 3.2, Figure 9);
//   - grp-adaptive is grp/var whose row is the aggressiveness ladder's
//     current rung, stepped from counters it keeps about its own
//     prefetches.
//
// The adaptive feedback is deliberately self-tracked (a small oamap of
// the engine's in-flight and resident prefetches) rather than read from
// the attribution ledger: the ledger is an optional observer that must
// never change timing, and the engine must behave identically with and
// without it attached.
type Region struct {
	name string
	// hwHint, when nonzero, replaces every miss's compiler hint: the
	// hardware-only schemes (srp, ptr) see no compiler information, so
	// they also ignore PREFI.
	hwHint isa.Hint
	// variable sizes spatial regions from SETBOUND and the coefficient.
	variable bool
	// fifo is SRP's FIFO ablation: new regions join the tail and a
	// recycled region keeps its place.
	fifo bool
	// indexOrder keeps index-order pops under open-page-first issue; the
	// pointer-only scheme never had the open-page optimization.
	indexOrder bool
	// depth is the configured recursive chase depth; the row caps it.
	depth uint8
	row   regionRow
	// ladder, when non-nil, supplies the row (adaptLadderParams at its
	// rung) in place of the static one; track follows the engine's own
	// prefetches for its feedback: 1 = issued and still in flight,
	// 2 = resident in the L2.
	ladder *Ladder
	track  *oamap.U8

	mem   MemReader
	q     regionQueue
	stats Stats

	// bound is the most recent SETBOUND value (loop trip count).
	bound uint64
	// scanCtr maps blocks awaiting arrival to their pointer-chase counter.
	scanCtr *oamap.U8

	// Indirect's per-call region-coalescing scratch (≤ 16 targets per
	// PREFI); kept on the engine so the hot path allocates nothing.
	indBase [16]uint64
	indBits [16]uint64
}

func newRegion(name string, mem MemReader, row regionRow) *Region {
	return &Region{name: name, mem: mem, row: row, depth: row.chaseDepth,
		stats: newStats(), scanCtr: oamap.NewU8()}
}

// NewSRP returns an SRP engine with the paper's parameters.
func NewSRP() *Region { return NewSRPAblation(RegionBlocks, false) }

// NewSRPAblation returns an SRP engine with regionBlocks-block regions (a
// power of two in [2, 64]; 0 selects the paper's 64) that, with fifo,
// issues from the oldest queue entry instead of the paper's LIFO
// scheduling.
func NewSRPAblation(regionBlocks int, fifo bool) *Region {
	if regionBlocks <= 0 || regionBlocks > RegionBlocks {
		regionBlocks = RegionBlocks
	}
	e := newRegion("srp", nil, regionRow{maxRegionBlocks: regionBlocks, queueCap: QueueSize})
	e.hwHint, e.fifo = isa.HintSpatial, fifo
	return e
}

// NewGRP builds a GRP/Fix or GRP/Var engine reading scanned lines from
// mem.
func NewGRP(cfg GRPConfig, mem MemReader) *Region {
	if cfg.PtrBlocks <= 0 {
		cfg.PtrBlocks = 2
	}
	if cfg.RecursionDepth == 0 {
		cfg.RecursionDepth = 6
	}
	name := "grp/fix"
	if cfg.Variable {
		name = "grp/var"
	}
	e := newRegion(name, mem, regionRow{maxRegionBlocks: RegionBlocks, ptrBlocks: cfg.PtrBlocks,
		chaseDepth: cfg.RecursionDepth, queueCap: QueueSize})
	e.variable = cfg.Variable
	return e
}

// NewAdaptiveGRP builds a grp-adaptive engine reading scanned lines from
// mem. Each rung of its ladder sets region size, pointer fan-out, chase
// depth and queue capacity; cfg.RecursionDepth further caps the chase
// depth, and cfg.PtrBlocks is ignored.
func NewAdaptiveGRP(cfg GRPConfig, mem MemReader) *Region {
	cfg.Variable = true
	e := NewGRP(cfg, mem)
	e.name, e.ladder, e.track = "grp-adaptive", NewLadder(), oamap.NewU8()
	return e
}

// NewPointerOnly builds the pure hardware pointer prefetcher of Section
// 3.2: with no compiler information at all, it scans every line returned
// on an L2 miss and prefetches two blocks per value passing the heap
// base-and-bounds test. Recursion is the generalization the paper
// mentions: prefetched lines are scanned in turn, up to depth levels
// (0 means the paper's default of 6).
func NewPointerOnly(mem MemReader, depth uint8) *Region {
	if depth == 0 {
		depth = 6
	}
	e := newRegion("ptr", mem, regionRow{ptrBlocks: 2, chaseDepth: depth, queueCap: QueueSize})
	e.hwHint, e.indexOrder = isa.HintRecursive, true
	return e
}

// Name implements Engine.
func (e *Region) Name() string { return e.name }

// params returns the current row. A tampered out-of-range ladder state
// reads the top rung (rung() clamps) so the run survives until
// CheckInvariants reports it.
func (e *Region) params() *regionRow {
	if e.ladder != nil {
		return &adaptLadderParams[e.ladder.rung()]
	}
	return &e.row
}

// ptrCounter returns the pointer-chase counter a hint arms: the chase
// depth for recursive hints, 1 for pointer hints, 0 for neither.
func (e *Region) ptrCounter(h isa.Hint, p *regionRow) uint8 {
	switch {
	case h.Has(isa.HintRecursive):
		return min(e.depth, p.chaseDepth)
	case h.Has(isa.HintPointer):
		return 1
	}
	return 0
}

// regionBlocksFor computes the region size in blocks for a spatial miss,
// capped at limit. With variable sizing and a known loop bound, the region
// size is bound << coeff bytes (Sec. 3.3.2), rounded up to a power of two
// of at least 2 blocks; coefficient 7 (FixedRegion) selects limit.
func (e *Region) regionBlocksFor(coeff uint8, limit int) int {
	if !e.variable || coeff == isa.FixedRegion {
		return limit
	}
	if coeff == 0 {
		// Coefficient 0 is reserved: the compiler could not guarantee the
		// extent of the locality (propagated pointer-target hints) and
		// requests the minimum region.
		return 2
	}
	bound := e.bound
	if bound == 0 {
		bound = 1 // no SETBOUND seen: the minimum region
	}
	want := int((bound<<coeff + BlockBytes - 1) / BlockBytes)
	p := 2
	for p < want && p < limit {
		p <<= 1
	}
	return p
}

// OnL2DemandMiss implements Engine. A spatial hint opens a region (on the
// aggressive rungs an unhinted miss opens the fallback region), and a
// pointer or recursive hint arms the scanner for the miss block
// (Sec. 3.3).
func (e *Region) OnL2DemandMiss(ev MissEvent) {
	if e.hwHint != 0 {
		ev.Hint, ev.Coeff = e.hwHint, isa.FixedRegion
	}
	miss := ev.Addr &^ uint64(BlockBytes-1)

	if ev.Merged {
		// The merged request's hint bits land in the MSHR: raise the
		// pointer counter if this request is more aggressive than the one
		// that allocated the miss. Regions are not re-triggered.
		if want := e.ptrCounter(ev.Hint, e.params()); want > 0 {
			if cur, _ := e.scanCtr.Get(miss); cur < want {
				e.scanCtr.Set(miss, want)
			}
		}
		return
	}

	// Primary misses advance the ladder's coverage denominator; this may
	// close the epoch and step the ladder, so read the row after.
	if e.ladder != nil {
		e.ladder.RecordMiss()
	}
	p := e.params()
	e.q.cap = p.queueCap

	switch {
	case ev.Hint.Has(isa.HintSpatial):
		e.openRegion(ev.Addr, e.regionBlocksFor(ev.Coeff, p.maxRegionBlocks), ev.Present)
	case p.fallbackBlocks > 0:
		e.openRegion(ev.Addr, p.fallbackBlocks, ev.Present)
	}
	if ctr := e.ptrCounter(ev.Hint, p); ctr > 0 {
		e.scanCtr.Set(miss, ctr)
	}
}

// openRegion allocates a region entry of the given power-of-two block
// count around the miss, or recycles a queued entry of that size holding
// it: the entry is retargeted past the miss block and, except under the
// FIFO ablation, moved to the head.
func (e *Region) openRegion(addr uint64, blocks int, present func(base uint64, n int) uint64) {
	base := addr &^ (uint64(blocks)*BlockBytes - 1)
	if i := e.q.find(base); i >= 0 && int(e.q.entries[i].blocks) == blocks {
		e.q.entries[i].retarget(addr)
		if !e.fifo {
			e.q.moveToHead(i)
		}
		e.stats.RegionsRecycled++
		return
	}
	r := makeRegion(addr, blocks, present, 0)
	if r.bits == 0 {
		return // whole region already cached
	}
	if e.fifo {
		e.q.pushTail(r)
	} else {
		e.q.pushHead(r)
	}
	e.stats.recordRegion(blocks)
}

// OnDemandHitPrefetched implements Engine: for grp-adaptive, a demand
// access hit one of its prefetches — the useful counter's trigger. A hit
// while the block is still in flight (tracked state 1: the demand merged
// into the outstanding prefetch) counts as late.
func (e *Region) OnDemandHitPrefetched(block uint64) {
	if e.track == nil {
		return
	}
	st, ok := e.track.Get(block)
	if !ok {
		return // tracking was reset under this block; forgo the feedback
	}
	e.track.Delete(block)
	e.ladder.RecordUseful(st == 1)
}

// OnArrival implements Engine: grp-adaptive marks its tracked prefetch
// resident, then a line with a nonzero pointer counter is scanned.
func (e *Region) OnArrival(block uint64) {
	if e.track != nil {
		if st, ok := e.track.Get(block); ok && st == 1 {
			e.track.Set(block, 2)
		}
	}
	if e.scanCtr.Len() == 0 {
		return // nothing armed; srp never arms the scanner
	}
	ctr, ok := e.scanCtr.Get(block)
	if !ok {
		return
	}
	e.scanCtr.Delete(block)
	if ctr > 0 {
		e.scanBlock(block, ctr-1)
	}
}

// scanBlock is the pointer scanner: each of the line's eight 8-byte words
// that passes the heap base-and-bounds test queues a pointer region of the
// row's ptrBlocks blocks from the word's target block, carrying the child
// counter (Sec. 3.3.1).
func (e *Region) scanBlock(block uint64, childCtr uint8) {
	e.stats.PointerScans++
	ptrBlocks := e.params().ptrBlocks
	for off := uint64(0); off < BlockBytes; off += 8 {
		v := e.mem.Read64(block + off)
		if !e.mem.InHeap(v) {
			continue
		}
		e.stats.PointersFound++
		base := v &^ uint64(BlockBytes-1)
		bits, blocks := ptrRegionBits(base, ptrBlocks)
		e.q.pushHead(regionEntry{base: base, bits: bits, blocks: uint8(blocks), ptrCtr: childCtr})
		e.stats.recordRegion(blocks)
	}
}

// Pop implements Engine.
func (e *Region) Pop(present func(uint64) bool) (uint64, bool) {
	b, ctr, ok := e.q.pop(present)
	if !ok {
		return 0, false
	}
	e.issue(b, ctr)
	return b, true
}

// PopOpenFirst implements OpenPageAware; ptr pops in index order.
func (e *Region) PopOpenFirst(present, rowOpen func(uint64) bool) (uint64, bool) {
	if e.indexOrder {
		return e.Pop(present)
	}
	b, ctr, ok := e.q.popOpenFirst(present, rowOpen)
	if !ok {
		return 0, false
	}
	e.issue(b, ctr)
	return b, true
}

// issue accounts a popped candidate. A block popped from an entry with a
// nonzero pointer counter is armed for scanning when its data arrives;
// grp-adaptive then records the issue, which may close its epoch.
func (e *Region) issue(b uint64, ctr uint8) {
	e.stats.CandidatesPopped++
	if ctr > 0 {
		e.scanCtr.Set(b, ctr)
	}
	if e.ladder != nil {
		if e.track.Len() >= adaptTrackCap {
			e.track.Reset()
		}
		e.track.Set(b, 1)
		e.ladder.RecordIssue()
	}
}

// SetBound implements Engine (Sec. 3.3.2).
func (e *Region) SetBound(v uint64) { e.bound = v }

// Indirect implements Engine: read the cache block containing the indexing
// element and, for each 4-byte word, prefetch the block holding
// base + index<<shift (Sec. 3.3.3, up to 16 prefetches per instruction).
// Addresses falling in the same region are coalesced into one queue entry.
// PREFI targets are hints whose accuracy grp-adaptive measures like any
// other issued prefetch, so the instruction itself is never throttled.
func (e *Region) Indirect(indexElemAddr, base uint64, shift uint) {
	if e.hwHint != 0 {
		return // the hardware-only schemes ignore compiler information
	}
	e.stats.IndirectInstrs++
	idxBlock := indexElemAddr &^ uint64(BlockBytes-1)
	// Coalesce targets by region, preserving first-appearance order so the
	// simulation stays deterministic. At most 16 targets per PREFI, so a
	// linear scan of the scratch arrays beats a heap-allocated map.
	n := 0
	const regionSize = uint64(RegionBlocks) * BlockBytes
	for off := uint64(0); off < BlockBytes; off += 4 {
		idx := uint64(e.mem.Read32(idxBlock + off))
		target := base + (idx << shift)
		e.stats.IndirectPrefetches++
		rbase := target &^ (regionSize - 1)
		pos := (target - rbase) / BlockBytes
		slot := -1
		for i := 0; i < n; i++ {
			if e.indBase[i] == rbase {
				slot = i
				break
			}
		}
		if slot < 0 {
			slot = n
			e.indBase[slot], e.indBits[slot] = rbase, 0
			n++
		}
		e.indBits[slot] |= 1 << uint(pos)
	}
	for k := 0; k < n; k++ {
		rbase, bits := e.indBase[k], e.indBits[k]
		if i := e.q.find(rbase); i >= 0 {
			e.q.entries[i].bits |= bits
			e.q.moveToHead(i)
			continue
		}
		e.q.pushHead(regionEntry{base: rbase, bits: bits, blocks: RegionBlocks})
	}
}

// Stats implements Engine.
func (e *Region) Stats() Stats { return e.stats }

// QueueLen implements QueueLenner.
func (e *Region) QueueLen() int { return e.q.len() }

// CheckInvariants implements Checker: the ladder's invariants (a tampered
// transition function lands the state outside the ladder, which must
// surface here, not as a crash), then the region queue's.
func (e *Region) CheckInvariants() error {
	if e.ladder != nil {
		if err := e.ladder.CheckInvariants(); err != nil {
			return err
		}
	}
	return e.q.checkInvariants()
}
