package prefetch

import (
	"fmt"
	"testing"
	"testing/quick"

	"grp/internal/isa"
)

func notPresent(uint64) bool { return false }

func TestRegionQueueLIFO(t *testing.T) {
	var q regionQueue
	q.pushHead(regionEntry{base: 0x1000, bits: 0b1, blocks: 64})
	q.pushHead(regionEntry{base: 0x2000, bits: 0b1, blocks: 64})
	b, _, ok := q.pop(notPresent)
	if !ok || b != 0x2000 {
		t.Errorf("pop = %#x, want newest entry 0x2000", b)
	}
	b, _, ok = q.pop(notPresent)
	if !ok || b != 0x1000 {
		t.Errorf("pop = %#x, want 0x1000", b)
	}
	if _, _, ok = q.pop(notPresent); ok {
		t.Error("queue should be empty")
	}
}

func TestRegionQueueOverflow(t *testing.T) {
	var q regionQueue
	for i := 0; i < QueueSize+5; i++ {
		q.pushHead(regionEntry{base: uint64(i+1) * 0x1000, bits: 1, blocks: 64})
	}
	if q.len() != QueueSize {
		t.Fatalf("queue length %d, want %d", q.len(), QueueSize)
	}
	// Oldest entries fell off: base 0x1000..0x5000 are gone.
	if q.find(0x1000) >= 0 || q.find(0x5000) >= 0 {
		t.Error("old entries should have fallen off the bottom")
	}
	if q.find(uint64(QueueSize+5)*0x1000) != 0 {
		t.Error("newest entry should be at the head")
	}
}

// TestRegionQueueSteadyStateAllocs: once its backing array exists, a
// full queue cycling through pushes, evictions and head pops allocates
// nothing. Popping the head must not reslice past the array's start,
// or the next push reallocates.
func TestRegionQueueSteadyStateAllocs(t *testing.T) {
	var q regionQueue
	next := uint64(0)
	cycle := func() {
		for round := 0; round < 4; round++ {
			for i := 0; i < QueueSize+8; i++ { // fill, then evict off the bottom
				next += 0x1000
				q.pushHead(regionEntry{base: next, bits: 0b11, blocks: 2})
			}
			pops := 0
			for _, _, ok := q.pop(notPresent); ok; _, _, ok = q.pop(notPresent) {
				pops++
			}
			if pops != 2*QueueSize {
				t.Fatalf("drained %d candidates, want %d", pops, 2*QueueSize)
			}
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("region queue allocates %.1f times per push/pop cycle, want 0", a)
	}
}

func TestMakeRegionExcludesMissAndPresent(t *testing.T) {
	present := func(b uint64) bool { return b == 0x1000+2*64 } // block 2 cached
	e := makeRegion(0x1000+5*64+8, 64, present, 0)
	if e.base != 0x1000 {
		t.Errorf("base = %#x", e.base)
	}
	if e.bits&(1<<5) != 0 {
		t.Error("miss block must not be a candidate")
	}
	if e.bits&(1<<2) != 0 {
		t.Error("cached block must not be a candidate")
	}
	if e.idx != 6 {
		t.Errorf("index = %d, want 6 (block after the miss)", e.idx)
	}
	// All other blocks are candidates.
	n := 0
	for i := 0; i < 64; i++ {
		if e.bits&(1<<uint(i)) != 0 {
			n++
		}
	}
	if n != 62 {
		t.Errorf("candidates = %d, want 62", n)
	}
}

func TestRegionPopWrapsFromIndex(t *testing.T) {
	var q regionQueue
	e := makeRegion(0x0+62*64, 64, nil, 0) // miss at block 62; idx = 63
	q.pushHead(e)
	// First pops should come at/after the index, wrapping.
	b, _, _ := q.pop(notPresent)
	if b != 63*64 {
		t.Errorf("first pop = %#x, want block 63", b)
	}
	b, _, _ = q.pop(notPresent)
	if b != 0 {
		t.Errorf("second pop = %#x, want block 0 (wrapped)", b)
	}
}

func TestSRPRegionAllocationAndRecycle(t *testing.T) {
	s := NewSRP()
	s.OnL2DemandMiss(MissEvent{Addr: 0x10000, Present: notPresent})
	if s.Stats().RegionsAllocated != 1 {
		t.Fatal("miss should allocate a region")
	}
	// A second miss in the same region retargets, not reallocates.
	s.OnL2DemandMiss(MissEvent{Addr: 0x10000 + 30*64, Present: notPresent})
	if s.Stats().RegionsAllocated != 1 || s.Stats().RegionsRecycled != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
	// Candidates resume after the new miss block.
	b, ok := s.Pop(notPresent)
	if !ok || b != 0x10000+31*64 {
		t.Errorf("pop = %#x, want block 31", b)
	}
}

func TestSRPMergedIgnored(t *testing.T) {
	s := NewSRP()
	s.OnL2DemandMiss(MissEvent{Addr: 0x10000, Merged: true, Present: notPresent})
	if s.Stats().RegionsAllocated != 0 {
		t.Error("merged events must not allocate regions")
	}
}

func TestSRPFullyCachedRegionNotAllocated(t *testing.T) {
	s := NewSRP()
	s.OnL2DemandMiss(MissEvent{Addr: 0x20000, Present: func(uint64) bool { return true }})
	if s.Stats().RegionsAllocated != 0 {
		t.Error("a fully cached region should not enqueue")
	}
	if _, ok := s.Pop(notPresent); ok {
		t.Error("nothing to pop")
	}
}

// fakeMem implements MemReader over a map.
type fakeMem struct {
	words  map[uint64]uint64
	lo, hi uint64
}

func (f *fakeMem) Read64(a uint64) uint64 { return f.words[a] }
func (f *fakeMem) Read32(a uint64) uint32 { return uint32(f.words[a&^7] >> ((a & 7) * 8)) }
func (f *fakeMem) InHeap(a uint64) bool   { return a >= f.lo && a < f.hi }

func TestGRPSpatialGating(t *testing.T) {
	g := NewGRP(DefaultGRPConfig(), &fakeMem{words: map[uint64]uint64{}})
	// Unhinted miss: nothing.
	g.OnL2DemandMiss(MissEvent{Addr: 0x10000, Hint: isa.HintNone, Coeff: isa.FixedRegion, Present: notPresent})
	if _, ok := g.Pop(notPresent); ok {
		t.Fatal("GRP must not prefetch on unhinted misses")
	}
	// Spatial miss: full region.
	g.OnL2DemandMiss(MissEvent{Addr: 0x10000, Hint: isa.HintSpatial, Coeff: isa.FixedRegion, Present: notPresent})
	if _, ok := g.Pop(notPresent); !ok {
		t.Fatal("spatial miss should produce candidates")
	}
	if g.Stats().RegionSizeDist[64] != 1 {
		t.Errorf("expected one 64-block region: %v", g.Stats().RegionSizeDist)
	}
}

func TestGRPVariableRegionSizes(t *testing.T) {
	g := NewGRP(DefaultGRPConfig(), &fakeMem{words: map[uint64]uint64{}})
	g.SetBound(16) // trip count 16
	// Coeff 3 (8-byte stride): 16<<3 = 128 bytes → 2 blocks.
	g.OnL2DemandMiss(MissEvent{Addr: 0x40000, Hint: isa.HintSpatial, Coeff: 3, Present: notPresent})
	if g.Stats().RegionSizeDist[2] != 1 {
		t.Errorf("16<<3 should give a 2-block region: %v", g.Stats().RegionSizeDist)
	}
	// Large bound: clamped to the fixed 64-block region.
	g.SetBound(4096)
	g.OnL2DemandMiss(MissEvent{Addr: 0x80000, Hint: isa.HintSpatial, Coeff: 3, Present: notPresent})
	if g.Stats().RegionSizeDist[64] != 1 {
		t.Errorf("4096<<3 should clamp to 64 blocks: %v", g.Stats().RegionSizeDist)
	}
	// Coefficient 0: reserved minimum region regardless of bound.
	g.OnL2DemandMiss(MissEvent{Addr: 0xc0000, Hint: isa.HintSpatial, Coeff: 0, Present: notPresent})
	if g.Stats().RegionSizeDist[2] != 2 {
		t.Errorf("coeff 0 should give minimum regions: %v", g.Stats().RegionSizeDist)
	}
	// FixedRegion coefficient: 64 blocks.
	g.OnL2DemandMiss(MissEvent{Addr: 0x100000, Hint: isa.HintSpatial, Coeff: isa.FixedRegion, Present: notPresent})
	if g.Stats().RegionSizeDist[64] != 2 {
		t.Errorf("fixed coeff should give 64 blocks: %v", g.Stats().RegionSizeDist)
	}
}

func TestGRPFixIgnoresCoeff(t *testing.T) {
	cfg := DefaultGRPConfig()
	cfg.Variable = false
	g := NewGRP(cfg, &fakeMem{words: map[uint64]uint64{}})
	g.SetBound(16)
	g.OnL2DemandMiss(MissEvent{Addr: 0x40000, Hint: isa.HintSpatial, Coeff: 3, Present: notPresent})
	if g.Stats().RegionSizeDist[64] != 1 {
		t.Errorf("GRP/Fix should use fixed regions: %v", g.Stats().RegionSizeDist)
	}
}

func TestGRPPointerScan(t *testing.T) {
	fm := &fakeMem{words: map[uint64]uint64{}, lo: 0x100000, hi: 0x200000}
	// Block at 0x100000 contains two heap pointers and six non-pointers.
	fm.words[0x100000] = 0x150000
	fm.words[0x100008] = 12345 // not a pointer
	fm.words[0x100010] = 0x160000
	g := NewGRP(DefaultGRPConfig(), fm)

	g.OnL2DemandMiss(MissEvent{Addr: 0x100000, Hint: isa.HintPointer, Coeff: isa.FixedRegion, Present: notPresent})
	g.OnArrival(0x100000)
	if g.Stats().PointersFound != 2 {
		t.Fatalf("PointersFound = %d, want 2", g.Stats().PointersFound)
	}
	// Two blocks per pointer; newest (0x160000) first (LIFO).
	want := []uint64{0x160000, 0x160040, 0x150000, 0x150040}
	for _, w := range want {
		b, ok := g.Pop(notPresent)
		if !ok || b != w {
			t.Fatalf("pop = %#x ok=%v, want %#x", b, ok, w)
		}
	}
	// Pointer hint depth is 1: arrived targets are not scanned further.
	fm.words[0x150000] = 0x170000
	g.OnArrival(0x150000)
	if _, ok := g.Pop(notPresent); ok {
		t.Error("pointer (non-recursive) chase should stop after one level")
	}
}

func TestGRPRecursiveChase(t *testing.T) {
	fm := &fakeMem{words: map[uint64]uint64{}, lo: 0x100000, hi: 0x900000}
	// A chain: each block points to the next, 0x40000 apart.
	for i := uint64(0); i < 8; i++ {
		fm.words[0x100000+i*0x40000] = 0x100000 + (i+1)*0x40000
	}
	cfg := DefaultGRPConfig()
	cfg.RecursionDepth = 3
	g := NewGRP(cfg, fm)
	g.OnL2DemandMiss(MissEvent{Addr: 0x100000, Hint: isa.HintRecursive, Coeff: isa.FixedRegion, Present: notPresent})
	levels := 0
	block := uint64(0x100000)
	for {
		g.OnArrival(block)
		b, ok := g.Pop(notPresent)
		if !ok {
			break
		}
		levels++
		// Drain the +1 successor block.
		if b2, ok2 := g.Pop(notPresent); ok2 && b2 != b+64 {
			t.Fatalf("expected successor block, got %#x", b2)
		}
		block = b
	}
	if levels != 3 {
		t.Errorf("recursive chase depth = %d, want 3", levels)
	}
}

func TestGRPMergedUpgradesCounter(t *testing.T) {
	fm := &fakeMem{words: map[uint64]uint64{0x100000: 0x150000}, lo: 0x100000, hi: 0x200000}
	g := NewGRP(DefaultGRPConfig(), fm)
	// Unhinted primary miss, then a merged recursive-hinted access.
	g.OnL2DemandMiss(MissEvent{Addr: 0x100000, Hint: isa.HintNone, Coeff: isa.FixedRegion, Present: notPresent})
	g.OnL2DemandMiss(MissEvent{Addr: 0x100008, Hint: isa.HintRecursive, Coeff: isa.FixedRegion, Merged: true, Present: notPresent})
	g.OnArrival(0x100000)
	if g.Stats().PointerScans != 1 {
		t.Errorf("merged recursive hint should arm the scanner: %+v", g.Stats())
	}
}

func TestGRPIndirect(t *testing.T) {
	fm := &fakeMem{words: map[uint64]uint64{}, lo: 0x100000, hi: 0x200000}
	// The index block holds 16 uint32 values 0..15 scaled by 8 → targets
	// base+0..base+120: all in one region.
	for i := uint64(0); i < 8; i++ {
		lo := uint64(i * 2)
		hi := uint64(i*2 + 1)
		fm.words[0x50000+i*8] = lo | hi<<32
	}
	g := NewGRP(DefaultGRPConfig(), fm)
	g.Indirect(0x50000, 0x100000, 3)
	st := g.Stats()
	if st.IndirectInstrs != 1 || st.IndirectPrefetches != 16 {
		t.Errorf("stats = %+v", st)
	}
	seen := map[uint64]bool{}
	for {
		b, ok := g.Pop(notPresent)
		if !ok {
			break
		}
		seen[b] = true
	}
	// Targets 0x100000+idx*8 for idx 0..15 fall in blocks 0x100000 and
	// 0x100040.
	if !seen[0x100000] || !seen[0x100040] {
		t.Errorf("indirect candidates missing: %v", seen)
	}
}

func TestStrideTrainingAndStream(t *testing.T) {
	s := NewStride(DefaultStrideConfig())
	pc := uint64(0x40)
	// Train with stride 256: conf reaches threshold after repeats.
	for i := 0; i < 5; i++ {
		s.OnL2DemandMiss(MissEvent{PC: pc, Addr: uint64(0x10000 + i*256), Present: notPresent})
	}
	b, ok := s.Pop(notPresent)
	if !ok {
		t.Fatal("trained stride should produce candidates")
	}
	// The stream allocates when confidence saturates (at the 4th miss,
	// address 0x10300), so its first candidate is the next stride step;
	// the demand stream catches the first candidate, which the present
	// filter would drop in the full system.
	if b != 0x10000+4*256 {
		t.Errorf("first candidate = %#x, want %#x", b, 0x10000+4*256)
	}
	// The stream advances on prefetched-line hits.
	before := countPending(s)
	s.OnDemandHitPrefetched(b)
	if countPending(s) <= before-1 {
		t.Error("hit should extend the stream")
	}
}

func countPending(s *Stride) int {
	n := 0
	for i := range s.buffers {
		n += len(s.buffers[i].pending)
	}
	return n
}

func TestStrideIgnoresIrregular(t *testing.T) {
	s := NewStride(DefaultStrideConfig())
	addrs := []uint64{0x1000, 0x9940, 0x2300, 0xff000, 0x5aa0}
	for _, a := range addrs {
		s.OnL2DemandMiss(MissEvent{PC: 0x40, Addr: a, Present: notPresent})
	}
	if _, ok := s.Pop(notPresent); ok {
		t.Error("irregular misses must not allocate streams")
	}
}

func TestStrideSubBlockDedupe(t *testing.T) {
	s := NewStride(DefaultStrideConfig())
	// Stride 8 within blocks: candidates must be distinct blocks.
	for i := 0; i < 6; i++ {
		s.OnL2DemandMiss(MissEvent{PC: 0x80, Addr: uint64(0x20000 + i*8), Present: notPresent})
	}
	seen := map[uint64]bool{}
	for {
		b, ok := s.Pop(notPresent)
		if !ok {
			break
		}
		if seen[b] {
			t.Fatalf("duplicate block candidate %#x", b)
		}
		seen[b] = true
	}
}

func TestPointerOnlyChase(t *testing.T) {
	fm := &fakeMem{words: map[uint64]uint64{}, lo: 0x100000, hi: 0x900000}
	fm.words[0x100000] = 0x300000
	p := NewPointerOnly(fm, 2)
	p.OnL2DemandMiss(MissEvent{Addr: 0x100000, Present: notPresent})
	p.OnArrival(0x100000)
	b, ok := p.Pop(notPresent)
	if !ok || b != 0x300000 {
		t.Fatalf("pop = %#x, want 0x300000", b)
	}
	if p.Stats().PointerScans != 1 || p.Stats().PointersFound != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

// TestSRPAblations: the FIFO ablation issues from the oldest region and a
// recycled region keeps its place; the region-size ablation builds
// aligned regions of the requested size.
func TestSRPAblations(t *testing.T) {
	s := NewSRPAblation(0, true)
	s.OnL2DemandMiss(MissEvent{Addr: 0x10000, Present: notPresent})
	s.OnL2DemandMiss(MissEvent{Addr: 0x20000, Present: notPresent})
	s.OnL2DemandMiss(MissEvent{Addr: 0x20000 + 5*64, Present: notPresent})
	if st := s.Stats(); st.RegionsAllocated != 2 || st.RegionsRecycled != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if b, ok := s.Pop(notPresent); !ok || b != 0x10000+64 {
		t.Errorf("FIFO pop = %#x, want the oldest region's block 1", b)
	}

	s = NewSRPAblation(16, false)
	s.OnL2DemandMiss(MissEvent{Addr: 0x10000 + 20*64, Present: notPresent})
	if s.Stats().RegionSizeDist[16] != 1 {
		t.Fatalf("want one 16-block region: %v", s.Stats().RegionSizeDist)
	}
	n := 0
	for b, ok := s.Pop(notPresent); ok; b, ok = s.Pop(notPresent) {
		if b < 0x10000+16*64 || b >= 0x10000+32*64 {
			t.Fatalf("candidate %#x outside the aligned 1 KB region", b)
		}
		n++
	}
	if n != 15 {
		t.Errorf("popped %d candidates, want 15", n)
	}
}

// TestHardwareOnlyRowsIgnoreCompilerInfo: srp and ptr see no PREFI, and
// ptr pops in index order even under open-page-first issue.
func TestHardwareOnlyRowsIgnoreCompilerInfo(t *testing.T) {
	fm := &fakeMem{words: map[uint64]uint64{0x100000: 0x300000}, lo: 0x100000, hi: 0x900000}
	for _, e := range []*Region{NewSRP(), NewPointerOnly(fm, 2)} {
		e.Indirect(0x100000, 0x200000, 3)
		if st := e.Stats(); st.IndirectInstrs != 0 || e.QueueLen() != 0 {
			t.Errorf("%s: PREFI counted or queued: %+v", e.Name(), st)
		}
	}
	p := NewPointerOnly(fm, 2)
	p.OnL2DemandMiss(MissEvent{Addr: 0x100000, Present: notPresent})
	p.OnArrival(0x100000)
	rowOpen := func(b uint64) bool { return b == 0x300040 }
	if b, ok := p.PopOpenFirst(notPresent, rowOpen); !ok || b != 0x300000 {
		t.Errorf("ptr PopOpenFirst = %#x, want index-order 0x300000", b)
	}
}

func TestNullEngine(t *testing.T) {
	n := NewNull()
	n.OnL2DemandMiss(MissEvent{Addr: 1})
	n.OnArrival(1)
	n.OnDemandHitPrefetched(1)
	n.SetBound(5)
	n.Indirect(1, 2, 3)
	if _, ok := n.Pop(notPresent); ok {
		t.Error("null engine never prefetches")
	}
	if n.Name() != "none" {
		t.Error("name")
	}
}

// TestQuickRegionPopNeverYieldsPresent: the queue never emits a candidate
// the present predicate rejects, and never emits the same block twice from
// one entry.
func TestQuickRegionPopNeverYieldsPresent(t *testing.T) {
	f := func(missBlock uint8, presentMask uint64) bool {
		base := uint64(0x100000)
		addr := base + uint64(missBlock%64)*64
		present := func(b uint64) bool {
			i := (b - base) / 64
			return i < 64 && presentMask&(1<<i) != 0
		}
		var q regionQueue
		e := makeRegion(addr, 64, present, 0)
		if e.bits == 0 {
			return true
		}
		q.pushHead(e)
		seen := map[uint64]bool{}
		for {
			b, _, ok := q.pop(present)
			if !ok {
				break
			}
			if present(b) || seen[b] || b == addr&^63 {
				return false
			}
			seen[b] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPopOpenFirstPrefersOpenRow(t *testing.T) {
	s := NewSRP()
	s.OnL2DemandMiss(MissEvent{Addr: 0x100000, Present: notPresent})
	// Pretend the row holding block 40 of the region is open.
	openBlock := uint64(0x100000 + 40*64)
	rowOpen := func(b uint64) bool { return b == openBlock }
	b, ok := s.PopOpenFirst(notPresent, rowOpen)
	if !ok || b != openBlock {
		t.Errorf("PopOpenFirst = %#x, want open-row block %#x", b, openBlock)
	}
	// With no open row, index order resumes after the popped block.
	b, ok = s.PopOpenFirst(notPresent, func(uint64) bool { return false })
	if !ok || b != 0x100000+41*64 {
		t.Errorf("fallback pop = %#x, want block 41", b)
	}
	// Nil rowOpen degrades to plain pop.
	if _, ok := s.PopOpenFirst(notPresent, nil); !ok {
		t.Error("nil rowOpen should still pop")
	}
}

func TestPopOpenFirstGRPCarriesCounter(t *testing.T) {
	fm := &fakeMem{words: map[uint64]uint64{0x200000: 0x300000}, lo: 0x200000, hi: 0x400000}
	g := NewGRP(DefaultGRPConfig(), fm)
	g.OnL2DemandMiss(MissEvent{Addr: 0x200000, Hint: isa.HintRecursive, Coeff: isa.FixedRegion, Present: notPresent})
	g.OnArrival(0x200000)
	b, ok := g.PopOpenFirst(notPresent, func(uint64) bool { return false })
	if !ok {
		t.Fatal("expected a candidate")
	}
	if _, armed := g.scanCtr.Get(b); !armed {
		t.Error("popped pointer target should be armed for scanning")
	}
}

// TestRegionPopScanOrder pins the order in which pop yields a head
// entry's candidates when some of them are already present. This is a
// known deviation from the index-order scan of Sec. 3.1: after clearing
// a present block, pop moves the entry's index past it and then also
// advances its own loop counter from the new index, so the scan skips
// k+1 positions. A candidate can therefore come out of order, or never:
// in the last case block 3 is dropped with the entry. Fixing it changes
// the srp, grp/fix, grp/var, ptr and grp-adaptive results.
func TestRegionPopScanOrder(t *testing.T) {
	const base = 0x40000
	cases := []struct {
		name    string
		blocks  uint8
		idx     uint8
		bits    uint64
		present []int // block positions the L2 already holds
		want    []int // block positions in pop order
	}{
		{"8 blocks, block 0 present", 8, 0, 0xff, []int{0}, []int{2, 3, 4, 5, 6, 7, 1}},
		{"8 blocks, even blocks present", 8, 0, 0xff, []int{0, 2, 4, 6}, []int{5, 1, 3, 7}},
		{"4 blocks {0,2,3}, 0 and 2 present", 4, 0, 0b1101, []int{0, 2}, nil},
		{"8 blocks, none present", 8, 0, 0xff, nil, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"8 blocks from index 6, block 7 present", 8, 6, 0xff, []int{7}, []int{6, 1, 2, 3, 4, 5, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			held := map[uint64]bool{}
			for _, p := range tc.present {
				held[base+uint64(p)*BlockBytes] = true
			}
			present := func(b uint64) bool { return held[b] }
			var q regionQueue
			q.pushHead(regionEntry{base: base, bits: tc.bits, idx: tc.idx, blocks: tc.blocks})
			var got []int
			for {
				b, _, ok := q.pop(present)
				if !ok {
					break
				}
				got = append(got, int((b-base)/BlockBytes))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("pop order %v, want %v", got, tc.want)
			}
			if q.len() != 0 {
				t.Errorf("%d entries left after the scan, want 0", q.len())
			}
		})
	}
}
