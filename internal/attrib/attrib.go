// Package attrib is the prefetch lifecycle attribution ledger: it follows
// every prefetch the memory system issues from the hint (or hardware
// trigger) that caused it, through the prioritizer's decision, to its fill
// and final outcome, and classifies each one into a closed taxonomy with a
// conservation invariant — every issued prefetch lands in exactly one
// outcome class, so class totals always sum to the issue count.
//
// The paper argues in aggregates (accuracy, coverage, pollution); the
// ledger supplies the *causes*: which 4 KB region, which triggering PC,
// and which prioritizer decision produced the useful — or wasted —
// traffic. That per-outcome attribution is exactly the signal a
// feedback-directed scheme (the ROADMAP's grp-adaptive item) consumes.
//
// The implementation follows the hot-path idiom of internal/sim: entries
// live in a slab indexed by int32 with a free list, and the memory system
// carries each prefetch's slot index with the prefetch (on its in-flight
// line, then as the L2 line's token), so no event looks a block up.
// Per-region/per-PC aggregates are flat rows resolved once per issue and
// stop growing once the working set is resident — zero heap allocations
// in steady state. Every public method is safe on a nil *Ledger, so the
// memory system guards instrumentation with a single nil check exactly
// like its other telemetry sinks.
package attrib

import (
	"fmt"
	"runtime"
	"sync"

	"grp/internal/oamap"
)

// Class is a terminal outcome in the closed taxonomy. Every issued
// prefetch is assigned exactly one Class by the time Finalize runs.
type Class uint8

// The outcome taxonomy (DESIGN.md §11 defines each precisely).
const (
	// ClassUseful: the block was demand-referenced after its fill landed
	// in the L2 — the prefetch fully hid the miss.
	ClassUseful Class = iota
	// ClassLate: a demand access merged with the prefetch while it was
	// still in flight — correct but only partially hiding the latency.
	ClassLate
	// ClassEvictedUnused: the filled block was evicted untouched without
	// having displaced live demand data (its fill victim was invalid or
	// itself an unused prefetch).
	ClassEvictedUnused
	// ClassPollution: the prefetch was never demand-referenced and its
	// fill evicted a valid demand-resident line — wasted traffic that also
	// displaced useful data (victim-caused pollution).
	ClassPollution
	// ClassRedundant: the fill was a no-op because the block was already
	// present in the L2 when the data arrived.
	ClassRedundant
	// ClassCancelled: fault injection cancelled the in-flight prefetch
	// before its data landed.
	ClassCancelled
	// ClassResidentUnused: still untouched (resident or in flight) when
	// the run ended — not demonstrably wasted, just never paid off.
	ClassResidentUnused

	NumClasses = int(ClassResidentUnused) + 1
)

var classNames = [NumClasses]string{
	"useful", "late", "evicted-unused", "pollution", "redundant",
	"cancelled", "resident-unused",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ClassNames lists the taxonomy in Class order, for table headers.
func ClassNames() []string {
	out := make([]string, NumClasses)
	copy(out, classNames[:])
	return out
}

// victimBuckets sizes the victim filter (see Ledger.victimBits).
const victimBuckets = 4096

// RegionBytes is the attribution granularity: the paper's 4 KB region.
const RegionBytes = 4096

// RegionOf returns the 4 KB-aligned region base of a block address.
func RegionOf(block uint64) uint64 { return block &^ uint64(RegionBytes-1) }

const noClass Class = 0xff

// entry is one tracked prefetch in the slab. It lives from Issue until
// the memory system can no longer name it — cancelled in flight, a no-op
// fill, its first demand reference, or its eviction — and then folds
// into the aggregates and returns its slot to the free list, so the slab
// holds only the prefetches still in flight or resident.
type entry struct {
	region       int32 // row of the block's 4 KB region in Ledger.regions
	pc           int32 // row of the triggering PC in Ledger.pcs
	class        Class // noClass until classified
	victimDemand bool  // the fill evicted a valid demand-resident line
	live         bool
}

// Counts carries one tally per taxonomy class. The JSON field names are
// stable: they are serialized into campaign cache entries.
type Counts struct {
	Useful         uint64 `json:"useful"`
	Late           uint64 `json:"late"`
	EvictedUnused  uint64 `json:"evicted_unused"`
	Pollution      uint64 `json:"pollution"`
	Redundant      uint64 `json:"redundant"`
	Cancelled      uint64 `json:"cancelled"`
	ResidentUnused uint64 `json:"resident_unused"`
}

// Get returns the tally for class c.
func (k Counts) Get(c Class) uint64 {
	switch c {
	case ClassUseful:
		return k.Useful
	case ClassLate:
		return k.Late
	case ClassEvictedUnused:
		return k.EvictedUnused
	case ClassPollution:
		return k.Pollution
	case ClassRedundant:
		return k.Redundant
	case ClassCancelled:
		return k.Cancelled
	case ClassResidentUnused:
		return k.ResidentUnused
	}
	return 0
}

// Total sums every class tally.
func (k Counts) Total() uint64 {
	return k.Useful + k.Late + k.EvictedUnused + k.Pollution +
		k.Redundant + k.Cancelled + k.ResidentUnused
}

// tally is the ledger's own per-class counter, indexed by Class so that
// folding an outcome is one increment; Counts is its exported form.
type tally [NumClasses]uint64

func (t *tally) counts() Counts {
	return Counts{
		Useful:         t[ClassUseful],
		Late:           t[ClassLate],
		EvictedUnused:  t[ClassEvictedUnused],
		Pollution:      t[ClassPollution],
		Redundant:      t[ClassRedundant],
		Cancelled:      t[ClassCancelled],
		ResidentUnused: t[ClassResidentUnused],
	}
}

func (t *tally) total() uint64 {
	var n uint64
	for _, v := range t {
		n += v
	}
	return n
}

// groupStats is the per-region / per-PC accumulator: one 64-byte line.
type groupStats struct {
	issued uint64
	counts tally
}

// groups is one aggregate table (per region or per PC): a row per key,
// in first-use order, found through an open-addressed index.
type groups struct {
	rows  []groupStats
	keys  []uint64
	index *oamap.I32
}

// row returns key's row, appending an empty one for a new key.
func (g *groups) row(key uint64) int32 {
	r, ok := g.index.Get(key)
	if !ok {
		r = int32(len(g.rows))
		g.rows = append(g.rows, groupStats{})
		g.keys = append(g.keys, key)
		g.index.Set(key, r)
	}
	return r
}

// issuing counts the rows with at least one issued prefetch; the others
// belong to a region or PC whose demand misses triggered nothing.
func (g *groups) issuing() int {
	n := 0
	for i := range g.rows {
		if g.rows[i].issued > 0 {
			n++
		}
	}
	return n
}

func (g *groups) reset() {
	g.rows = g.rows[:0]
	g.keys = g.keys[:0]
	g.index.Reset()
}

func newGroups() groups {
	return groups{
		rows:  make([]groupStats, 0, 64),
		keys:  make([]uint64, 0, 64),
		index: oamap.NewI32Sized(64),
	}
}

// Ledger is the event ledger. Attach one per run via the memory system;
// it is not safe for concurrent use (the simulation is single-goroutine,
// like the rest of the telemetry layer).
type Ledger struct {
	// Hot per-event state leads the struct so the fields every Hint/Issue
	// touches share the ledger's first host cache lines.
	issued    uint64
	hintsSeen uint64
	// One-entry caches over the region rows: the last missing region
	// (misses stream through a region before moving on) and the region
	// of the last issued block (a region prefetch issues up to 64 blocks
	// of one region back to back).
	lastRegion  uint64
	issueRegion uint64
	lastRow     int32
	issueRow    int32
	haveLast    bool
	issueOK     bool
	// pcKeys/pcRows cache the rows of the two most recently missing PCs,
	// most recent first (-1: empty); misses in a region often alternate
	// between two loads.
	pcKeys [2]uint64
	pcRows [2]int32
	pc0Row int32 // the row of PC 0 (-1 until a hardware trigger needs it)
	// victims tracks demand-resident blocks displaced by prefetch fills,
	// so later re-misses to them can be counted (VictimReMisses). Every
	// demand miss would probe it once a victim is armed; victimBits, one
	// bit per block-number bucket, is set at each arming and cleared only
	// by Recycle, so a clear bit proves the block unarmed and skips the
	// probe.
	victims    *oamap.U8
	victimBits [victimBuckets / 64]uint64

	entries []entry
	free    []int32 // slab slots of ended entries, reused LIFO

	// regions and pcs are the aggregate rows. A demand miss opens the
	// rows of its region and PC, and regionPC (parallel to the region
	// rows) holds the pcs row of the region's last demand-missing PC —
	// the attribution link from a hardware-triggered region prefetch back
	// to the instruction whose miss (and hint) opened the region; -1 when
	// no demand access ever missed the region, so its prefetches
	// attribute to PC 0 (a pure hardware trigger).
	regions  groups
	pcs      groups
	regionPC []int32

	holdsBusy    uint64
	dropsHeld    uint64
	dropsSW      uint64
	victimRemiss uint64
	crossPoll    uint64
	classTotals  tally
}

// idle holds recycled ledgers: a campaign executes thousands of cells per
// process, and each ledger carries tens of KB of slab and table backing
// that would otherwise be fresh garbage per cell. Unlike a sync.Pool the
// list survives garbage collections, which a busy campaign runs every
// few cells; it keeps at most GOMAXPROCS ledgers.
var idle struct {
	sync.Mutex
	ledgers []*Ledger
}

// NewLedger returns an empty ledger, reusing a recycled one when
// available (see Recycle).
func NewLedger() *Ledger {
	idle.Lock()
	if n := len(idle.ledgers); n > 0 {
		l := idle.ledgers[n-1]
		idle.ledgers = idle.ledgers[:n-1]
		idle.Unlock()
		return l
	}
	idle.Unlock()
	// Pre-size for a typical cell: the slab's high-water mark tracks the
	// simultaneously resident prefetched lines (hundreds to a few
	// thousand).
	return &Ledger{
		entries:  make([]entry, 0, 1024),
		free:     make([]int32, 0, 1024),
		victims:  oamap.NewU8(),
		regions:  newGroups(),
		pcs:      newGroups(),
		regionPC: make([]int32, 0, 64),
		pcRows:   [2]int32{-1, -1},
		pc0Row:   -1,
	}
}

// Recycle resets the ledger and keeps it for a later NewLedger call. The
// caller must drop every reference first; Summarize copies everything it
// exports, so a taken Summary stays valid.
func (l *Ledger) Recycle() {
	if l == nil {
		return
	}
	l.entries = l.entries[:0]
	l.free = l.free[:0]
	l.victims.Reset()
	clear(l.victimBits[:])
	l.regions.reset()
	l.pcs.reset()
	l.regionPC = l.regionPC[:0]
	l.haveLast, l.issueOK = false, false
	l.pcRows = [2]int32{-1, -1}
	l.pc0Row = -1
	l.issued, l.hintsSeen, l.holdsBusy, l.dropsHeld, l.dropsSW = 0, 0, 0, 0, 0
	l.victimRemiss, l.crossPoll = 0, 0
	l.classTotals = tally{}
	idle.Lock()
	if len(idle.ledgers) < runtime.GOMAXPROCS(0) {
		idle.ledgers = append(idle.ledgers, l)
	}
	idle.Unlock()
}

// end stops tracking the live entry at idx: its issue and class (which
// must be set) fold into the class totals and both group rows, and its
// slot returns to the free list. Every incarnation folds exactly once:
// here, or at Finalize for the slab's survivors.
func (l *Ledger) end(idx int32) {
	e := &l.entries[idx]
	e.live = false
	l.fold(e)
	l.free = append(l.free, idx)
}

// fold adds one incarnation's issue and terminal outcome to the class
// totals and both group aggregates.
func (l *Ledger) fold(e *entry) {
	l.classTotals[e.class]++
	g := &l.regions.rows[e.region]
	g.issued++
	g.counts[e.class]++
	p := &l.pcs.rows[e.pc]
	p.issued++
	p.counts[e.class]++
}

// Hint records a demand L2 miss — the event that plants hints into the
// prefetch engine — attributing the missing PC to the block's region. It
// also credits a victim re-miss when the missed block was previously
// displaced by an unused prefetch fill (the demonstrated cost of
// pollution). Nil-safe.
func (l *Ledger) Hint(pc, block uint64) {
	if l == nil {
		return
	}
	l.hintsSeen++
	region := block &^ uint64(RegionBytes-1)
	r := l.lastRow
	if !l.haveLast || region != l.lastRegion {
		r = l.regionRow(region)
		l.lastRegion, l.lastRow, l.haveLast = region, r, true
	}
	l.regionPC[r] = l.pcRow(pc)
	if b := victimBucket(block); l.victimBits[b/64]&(1<<(b%64)) != 0 {
		l.hintVictim(block)
	}
}

// regionRow returns the region's row, opening it (with no PC link yet)
// on first use.
func (l *Ledger) regionRow(region uint64) int32 {
	r := l.regions.row(region)
	if int(r) == len(l.regionPC) {
		l.regionPC = append(l.regionPC, -1)
	}
	return r
}

// pcRow returns the PC's row through the two-entry cache.
func (l *Ledger) pcRow(pc uint64) int32 {
	if l.pcRows[0] >= 0 && l.pcKeys[0] == pc {
		return l.pcRows[0]
	}
	var p int32
	if l.pcRows[1] >= 0 && l.pcKeys[1] == pc {
		p = l.pcRows[1]
	} else {
		p = l.pcs.row(pc)
	}
	l.pcKeys[1], l.pcRows[1] = l.pcKeys[0], l.pcRows[0]
	l.pcKeys[0], l.pcRows[0] = pc, p
	return p
}

// hintVictim credits a re-miss to a displaced victim (Hint's slow path).
func (l *Ledger) hintVictim(block uint64) {
	if _, ok := l.victims.Get(block); ok {
		l.victims.Delete(block)
		l.victimRemiss++
	}
}

// Issue opens a ledger entry for a prefetch submitted to the memory
// controller at cycle now. The triggering PC is the last one that missed
// in the block's region (0 when the region was never demand-missed — a
// pure hardware-internal trigger such as a pointer-chase target). It returns
// the entry's slab index; the memory system stores it on its in-flight
// line and hands it back to Fill, Late, and Cancel, then passes it to the
// L2 as the fill's token, which comes back to DemandHit or
// EvictPrefetched — so no event needs a block lookup at all. Nil-safe
// (returns -1).
func (l *Ledger) Issue(block, now uint64, software bool) int32 {
	if l == nil {
		return -1
	}
	var idx int32
	if n := len(l.free); n > 0 {
		idx = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.entries = append(l.entries, entry{})
		idx = int32(len(l.entries) - 1)
	}
	region := RegionOf(block)
	var r int32
	switch {
	case l.haveLast && region == l.lastRegion:
		r = l.lastRow
	case l.issueOK && region == l.issueRegion:
		r = l.issueRow
	default:
		r = l.regionRow(region)
		l.issueRegion, l.issueRow, l.issueOK = region, r, true
	}
	p := l.regionPC[r]
	if p < 0 {
		if l.pc0Row < 0 {
			l.pc0Row = l.pcs.row(0)
		}
		p = l.pc0Row
	}
	l.entries[idx] = entry{region: r, pc: p, class: noClass, live: true}
	l.issued++
	return idx
}

// HoldBusy records a prioritizer hold: a popped candidate parked because
// no DRAM channel went idle inside the pump window. Nil-safe.
func (l *Ledger) HoldBusy() {
	if l != nil {
		l.holdsBusy++
	}
}

// DropHeldPresent records a held candidate discarded because its block
// became cached (or in flight) while parked. Nil-safe.
func (l *Ledger) DropHeldPresent() {
	if l != nil {
		l.dropsHeld++
	}
}

// DropSoftware records a software PREF dropped pre-issue (block already
// cached or in flight). Nil-safe.
func (l *Ledger) DropSoftware() {
	if l != nil {
		l.dropsSW++
	}
}

// Cancel classifies the in-flight prefetch at slab index idx (from
// Issue) as fault-cancelled and ends it: its data never lands. Nil-safe,
// and a no-op on idx < 0.
func (l *Ledger) Cancel(idx int32) {
	if l == nil || idx < 0 {
		return
	}
	e := &l.entries[idx]
	if !e.live {
		return
	}
	if e.class == noClass {
		e.class = ClassCancelled
	}
	l.end(idx)
}

// Late marks the in-flight prefetch at slab index idx (from Issue) as
// demand-merged: correct but not timely. The entry stays live (its fill
// still lands and the line stays tracked until the cache forgets it) but
// its class is terminal now; later events on it only end it. Nil-safe,
// and a no-op on idx < 0.
func (l *Ledger) Late(idx int32) {
	if l == nil || idx < 0 {
		return
	}
	if e := &l.entries[idx]; e.class == noClass {
		e.class = ClassLate
	}
}

// Fill records the data of the prefetch at slab index idx (from Issue)
// landing in the L2. filled is false when the cache fill was a no-op
// (block already present — the redundant class), which ends the entry.
// When the fill evicted a victim, victimValid/victimPrefetched describe
// it: a valid non-prefetched victim is live demand data, which arms the
// pollution classification and the victim re-miss tracker. Nil-safe, and
// a no-op on idx < 0.
func (l *Ledger) Fill(idx int32, now uint64, filled bool, victim uint64, victimValid, victimPrefetched bool) {
	if l == nil || idx < 0 {
		return
	}
	// An in-flight prefetch's entry is always live (a cancelled one never
	// fills), so the common case — a fill that displaced no demand line —
	// does not touch the slab at all.
	if !filled {
		// A late prefetch keeps its class; the no-op fill ends tracking.
		if e := &l.entries[idx]; e.class == noClass {
			e.class = ClassRedundant
		}
		l.end(idx)
		return
	}
	if victimValid && !victimPrefetched {
		l.entries[idx].victimDemand = true
		l.armVictim(victim)
	}
}

// CrossCoreVictim records that the prefetch at slab index idx (from
// Issue) displaced another core's valid demand-resident line in a shared
// cache — cross-core pollution, charged to the issuing core's ledger.
// The entry is marked victim-demand (so an unused eviction classifies as
// pollution), but the victim itself is tracked in its owner's ledger via
// VictimDisplaced, not here: the two cores' address spaces are disjoint,
// so arming this ledger's re-miss table with a foreign block could only
// ever produce false credits. Nil-safe, and a no-op on idx < 0.
func (l *Ledger) CrossCoreVictim(idx int32) {
	if l == nil || idx < 0 {
		return
	}
	if e := &l.entries[idx]; e.live {
		e.victimDemand = true
	}
	l.crossPoll++
}

// VictimDisplaced arms the victim re-miss tracker for a local block that
// *another* core's prefetch fill displaced from a shared cache, so this
// core's later demand re-miss to it is counted in VictimReMisses — the
// demonstrated cost of suffering cross-core pollution. Nil-safe.
func (l *Ledger) VictimDisplaced(block uint64) {
	if l == nil {
		return
	}
	l.armVictim(block)
}

// armVictim starts tracking a displaced demand block.
func (l *Ledger) armVictim(block uint64) {
	l.victims.Set(block, 1)
	b := victimBucket(block)
	l.victimBits[b/64] |= 1 << (b % 64)
}

// victimBucket is block's bit in the victim filter.
func victimBucket(block uint64) uint64 {
	return (block / 64) % victimBuckets
}

// DemandHit records the first demand reference to a resident prefetched
// line — the useful case, unless the prefetch was already late — and ends
// tracking for it (the cache clears the line's prefetched mark on the
// same access). idx is the token the L2 handed back for the line.
// Nil-safe, and a no-op on idx < 0.
func (l *Ledger) DemandHit(idx int32) {
	if l == nil || idx < 0 {
		return
	}
	e := &l.entries[idx]
	if !e.live {
		return
	}
	if e.class == noClass {
		e.class = ClassUseful
	}
	l.end(idx)
}

// EvictPrefetched records the eviction of a still-prefetch-marked line,
// given the victim's token. An unclassified entry becomes evicted-unused,
// or pollution when its own fill displaced live demand data. Nil-safe,
// and a no-op on idx < 0.
func (l *Ledger) EvictPrefetched(idx int32) {
	if l == nil || idx < 0 {
		return
	}
	e := &l.entries[idx]
	if !e.live {
		return
	}
	if e.class == noClass {
		if e.victimDemand {
			e.class = ClassPollution
		} else {
			e.class = ClassEvictedUnused
		}
	}
	l.end(idx)
}

// Finalize classifies every prefetch still tracked at end of run as
// resident-unused (still in the cache — or in flight — untouched) and
// folds the survivors into the aggregates in one slab pass. Call once,
// after the memory system drains. Nil-safe.
func (l *Ledger) Finalize() {
	if l == nil {
		return
	}
	for i := range l.entries {
		e := &l.entries[i]
		if !e.live {
			continue
		}
		if e.class == noClass {
			e.class = ClassResidentUnused
		}
		e.live = false
		l.fold(e)
	}
}

// Issued returns the running issue count. Nil-safe.
func (l *Ledger) Issued() uint64 {
	if l == nil {
		return 0
	}
	return l.issued
}

// Classified returns the count of prefetches folded into the class
// totals so far (ended entries mid-run, everything after Finalize); it
// can never exceed Issued. Nil-safe.
func (l *Ledger) Classified() uint64 {
	if l == nil {
		return 0
	}
	return l.classTotals.total()
}

// CheckConservation verifies the ledger's core invariant: every issued
// prefetch is accounted in exactly one terminal class. It is meaningful
// after Finalize; before that, still-live entries legitimately make the
// class total fall short.
func (l *Ledger) CheckConservation() error {
	if l == nil {
		return nil
	}
	if got := l.classTotals.total(); got != l.issued {
		return fmt.Errorf("attrib: class totals %d != issued %d (conservation violated)", got, l.issued)
	}
	var region, pc tally
	sumInto := func(dst *tally, g groups) uint64 {
		var issued uint64
		for _, g := range g.rows {
			issued += g.issued
			for c, v := range g.counts {
				dst[c] += v
			}
		}
		return issued
	}
	if got := sumInto(&region, l.regions); got != l.issued || region != l.classTotals {
		return fmt.Errorf("attrib: per-region totals (issued %d, classes %+v) disagree with ledger (issued %d, classes %+v)",
			got, region.counts(), l.issued, l.classTotals.counts())
	}
	if got := sumInto(&pc, l.pcs); got != l.issued || pc != l.classTotals {
		return fmt.Errorf("attrib: per-PC totals (issued %d, classes %+v) disagree with ledger (issued %d, classes %+v)",
			got, pc.counts(), l.issued, l.classTotals.counts())
	}
	return nil
}
