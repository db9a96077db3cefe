// Package prefetch implements the prefetch engines compared in the paper
// and its post-paper contenders:
//
//   - Region, the one region engine: a LIFO queue of region entries, a
//     pointer scanner and PREFI indirect prefetching. Its operating
//     points are the schemes srp (scheduled region prefetching, Lin et
//     al.: a 4 KB region on every L2 miss), grp/fix and grp/var (the
//     paper's contribution: that hardware gated and extended by compiler
//     hints), ptr (the pure-hardware greedy pointer prefetcher of
//     Section 3.2, Figure 9) and grp-adaptive (grp/var whose operating
//     point follows a 5-rung aggressiveness ladder);
//   - Stride, Sherwood-style predictor-directed stream buffers;
//   - GHB, a PC/DC Global History Buffer (Nesbit & Smith);
//   - Null, no prefetching.
//
// All engines produce block-granularity prefetch candidates that the memory
// system's access prioritizer issues only when the memory channels are
// otherwise idle and no demand miss is outstanding (Figure 2).
package prefetch

import "grp/internal/isa"

// MissEvent describes a demand miss at the L2, the trigger for all region
// and pointer prefetching.
type MissEvent struct {
	PC   uint64
	Addr uint64
	// Hint and Coeff are the compiler hints riding on the missing load;
	// they are zero/FixedRegion for stores and for unhinted binaries.
	Hint  isa.Hint
	Coeff uint8
	// Merged marks an access that merged into an already-outstanding miss
	// for the same block: the MSHR holds the hint bits of every merged
	// request, so pointer counters can still be armed, but region engines
	// must not re-trigger on it.
	Merged bool
	// Present reports whether a block is already in the L2 (used to build
	// region bit vectors and to filter candidates).
	Present func(block uint64) bool
}

// Engine is the interface between the memory system and a prefetcher.
type Engine interface {
	Name() string

	// OnL2DemandMiss is invoked for every demand miss at the L2.
	OnL2DemandMiss(ev MissEvent)

	// OnDemandHitPrefetched is invoked when a demand access hits a line
	// that was brought in by a prefetch; stream-based engines use it to
	// advance their streams.
	OnDemandHitPrefetched(block uint64)

	// OnArrival is invoked when a missing or prefetched block's data
	// arrives from memory; pointer-scanning engines inspect its contents.
	OnArrival(block uint64)

	// Pop returns the next prefetch candidate block, skipping blocks for
	// which present returns true. ok is false when the engine has nothing
	// to prefetch.
	Pop(present func(block uint64) bool) (block uint64, ok bool)

	// SetBound receives the value of a SETBOUND instruction (the loop trip
	// count used for variable-size region prefetching).
	SetBound(v uint64)

	// Indirect receives a PREFI indirect prefetch instruction: the address
	// of the indexing element b[i], the base address &a[0], and
	// log2(sizeof(a[0])).
	Indirect(indexElemAddr, base uint64, shift uint)

	// Stats returns accumulated engine counters.
	Stats() Stats
}

// QueueLenner is an optional Engine capability: engines that buffer
// prefetch candidates report their current queue occupancy, which the
// telemetry sampler turns into the prefetch-queue time series. All engines
// in this package implement it.
type QueueLenner interface {
	// QueueLen returns the number of buffered prefetch-queue entries
	// (region entries for region engines, pending blocks for stream
	// buffers).
	QueueLen() int
}

// OpenPageAware is an optional Engine capability: the prefetch queue
// prefers candidates whose DRAM row is already open (the paper's final
// SRP optimization in Section 3.1). The memory system type-asserts for it
// and passes the controller's row state.
type OpenPageAware interface {
	// PopOpenFirst is Pop, but among the head entry's candidates it
	// prefers one for which rowOpen reports an open page.
	PopOpenFirst(present func(block uint64) bool, rowOpen func(block uint64) bool) (block uint64, ok bool)
}

// Stats counts engine-level events.
type Stats struct {
	RegionsAllocated   uint64
	RegionsRecycled    uint64 // misses that re-targeted a queued region
	CandidatesPopped   uint64
	PointerScans       uint64
	PointersFound      uint64
	IndirectInstrs     uint64
	IndirectPrefetches uint64
	// RegionSizeDist histograms allocated region sizes in blocks, indexed
	// by size; it backs Table 4's region-size-distribution columns.
	RegionSizeDist map[int]uint64
}

func newStats() Stats { return Stats{RegionSizeDist: make(map[int]uint64)} }

func (s *Stats) recordRegion(blocks int) {
	s.RegionsAllocated++
	s.RegionSizeDist[blocks]++
}

// BlockBytes is the cache block size shared by the whole hierarchy.
const BlockBytes = 64

// RegionBlocks is the fixed region size in blocks (4 KB / 64 B, Sec. 3.1).
const RegionBlocks = 64

// QueueSize is the prefetch queue capacity (Sec. 3.1, "32 in these
// experiments").
const QueueSize = 32

// regionEntry is one prefetch queue entry: the aligned region base, a bit
// vector of candidate blocks, and an index identifying the next block to
// prefetch (Sec. 3.1). ptrCtr is the 3-bit pointer-chase counter added by
// GRP (Sec. 3.3.1); it applies to blocks prefetched from this entry.
type regionEntry struct {
	base   uint64
	bits   uint64 // candidate blocks; bit i = block base+i*BlockBytes
	idx    uint8  // next candidate position to try
	blocks uint8  // region size in blocks (<= 64)
	ptrCtr uint8
}

// regionQueue is the fixed-size LIFO prefetch queue: new entries push the
// head, old entries fall off the bottom, and prefetches issue from the head
// entry (LIFO scheduling, Sec. 5.1).
type regionQueue struct {
	// entries is a prefix of one QueueSize backing array, allocated on
	// the first push; index 0 = head. Nothing reslices its start, so no
	// push ever reallocates.
	entries []regionEntry
	// cap, when nonzero, overrides QueueSize as the occupancy bound. The
	// region engine sets it from its row on every primary miss; only
	// grp-adaptive's conservative rungs shrink it, to throttle how much
	// speculation is buffered.
	cap int
}

func (q *regionQueue) reset() { q.entries = q.entries[:0] }

func (q *regionQueue) len() int { return len(q.entries) }

// capacity returns the queue's occupancy bound (QueueSize unless
// overridden, never above it).
func (q *regionQueue) capacity() int {
	if q.cap > 0 && q.cap < QueueSize {
		return q.cap
	}
	return QueueSize
}

// find returns the queue position of the region containing addr with the
// given alignment, or -1.
func (q *regionQueue) find(base uint64) int {
	for i := range q.entries {
		if q.entries[i].base == base {
			return i
		}
	}
	return -1
}

// pushHead inserts e at the head, evicting the bottom entries if full.
func (q *regionQueue) pushHead(e regionEntry) {
	if c := q.capacity(); len(q.entries) >= c {
		q.entries = q.entries[:c-1]
	}
	q.entries = append(q.backing(), regionEntry{})
	copy(q.entries[1:], q.entries)
	q.entries[0] = e
}

// pushTail appends e at the bottom of the queue (FIFO ablation); when full
// the newest entry is dropped.
func (q *regionQueue) pushTail(e regionEntry) {
	if len(q.entries) >= q.capacity() {
		return
	}
	q.entries = append(q.backing(), e)
}

// backing returns entries, allocating its full-size backing array on
// first use.
func (q *regionQueue) backing() []regionEntry {
	if q.entries == nil {
		q.entries = make([]regionEntry, 0, QueueSize)
	}
	return q.entries
}

// dropHead deallocates the head entry, shifting the rest up in place.
func (q *regionQueue) dropHead() {
	q.entries = append(q.entries[:0], q.entries[1:]...)
}

// moveToHead moves the entry at position i to the head.
func (q *regionQueue) moveToHead(i int) {
	if i <= 0 {
		return
	}
	e := q.entries[i]
	copy(q.entries[1:i+1], q.entries[:i])
	q.entries[0] = e
}

// popOpenFirst is pop with the open-page preference: within the head
// entry, a candidate whose DRAM row is already open is chosen over the
// index-order candidate.
func (q *regionQueue) popOpenFirst(present, rowOpen func(uint64) bool) (block uint64, ptrCtr uint8, ok bool) {
	if rowOpen == nil || len(q.entries) == 0 {
		return q.pop(present)
	}
	e := &q.entries[0]
	n := int(e.blocks)
	first := -1
	for k := 0; k < n; k++ {
		pos := int(e.idx) + k
		if pos >= n { // idx and k are below n: one subtract wraps
			pos -= n
		}
		mask := uint64(1) << uint(pos)
		if e.bits&mask == 0 {
			continue
		}
		cand := e.base + uint64(pos)*BlockBytes
		if present != nil && present(cand) {
			continue
		}
		if first < 0 {
			first = pos
		}
		if rowOpen(cand) {
			first = pos
			break
		}
	}
	if first < 0 {
		// Nothing issuable in the head entry; fall back to the standard
		// pop, which also handles deallocation of exhausted entries.
		return q.pop(present)
	}
	e.bits &^= 1 << uint(first)
	e.idx = uint8((first + 1) % n)
	block = e.base + uint64(first)*BlockBytes
	ptrCtr = e.ptrCtr
	if e.bits == 0 {
		q.dropHead()
	}
	return block, ptrCtr, true
}

// pop returns the next candidate block from the head entry, skipping
// blocks already present; exhausted entries are deallocated. The second
// result is the entry's pointer-chase counter for the popped block.
func (q *regionQueue) pop(present func(uint64) bool) (block uint64, ptrCtr uint8, ok bool) {
	for len(q.entries) > 0 {
		e := &q.entries[0]
		found := false
		// Scan from idx, wrapping once around the region, as the hardware
		// index field does. The scan re-reads idx after moving it past a
		// present block, so it skips ahead (TestRegionPopScanOrder).
		n := int(e.blocks)
		for k := 0; k < n; k++ {
			pos := int(e.idx) + k
			if pos >= n { // idx and k are below n: one subtract wraps
				pos -= n
			}
			mask := uint64(1) << uint(pos)
			if e.bits&mask == 0 {
				continue
			}
			e.bits &^= mask
			e.idx = uint8((pos + 1) % n)
			cand := e.base + uint64(pos)*BlockBytes
			if present != nil && present(cand) {
				continue // already cached; keep scanning this entry
			}
			block, ptrCtr, found = cand, e.ptrCtr, true
			break
		}
		if found {
			if e.bits == 0 {
				q.dropHead()
			}
			return block, ptrCtr, true
		}
		// Entry exhausted (all candidates present or popped): deallocate.
		q.dropHead()
	}
	return 0, 0, false
}

// makeRegion builds a region entry of `blocks` blocks around addr. The bit
// vector starts with every block not already present in the L2 except the
// miss block itself, and the index points at the candidate just after the
// miss block (Sec. 3.1).
func makeRegion(addr uint64, blocks int, present func(uint64) bool, ptrCtr uint8) regionEntry {
	size := uint64(blocks) * BlockBytes
	base := addr &^ (size - 1)
	missPos := (addr - base) / BlockBytes
	var bits uint64
	for i := 0; i < blocks; i++ {
		b := base + uint64(i)*BlockBytes
		if uint64(i) == missPos {
			continue // the miss block is being fetched by the demand miss
		}
		if present != nil && present(b) {
			continue
		}
		bits |= 1 << uint(i)
	}
	return regionEntry{
		base:   base,
		bits:   bits,
		idx:    uint8((missPos + 1) % uint64(blocks)),
		blocks: uint8(blocks),
		ptrCtr: ptrCtr,
	}
}

// ptrRegionBits builds the candidate bit vector for a pointer-target region
// of up to want blocks starting at base. Unlike spatial regions — which are
// size-aligned, so they end at or below the top of the address space by
// construction — pointer regions start at an arbitrary block, and one whose
// target sits in the topmost blocks is clamped rather than wrapped to
// address zero.
func ptrRegionBits(base uint64, want int) (bits uint64, blocks int) {
	for i := 0; i < want && i < 64; i++ {
		if base+uint64(i)*BlockBytes < base {
			break // wrapped past the top of the address space
		}
		bits |= 1 << uint(i)
		blocks++
	}
	return bits, blocks
}

// retarget updates a queued region entry for a new miss within it: the miss
// block's bit is cleared and the index points just past the miss block.
func (e *regionEntry) retarget(addr uint64) {
	pos := (addr - e.base) / BlockBytes
	e.bits &^= 1 << uint(pos)
	e.idx = uint8((pos + 1) % uint64(e.blocks))
}
