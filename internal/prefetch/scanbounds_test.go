package prefetch

import (
	"sort"
	"testing"

	"grp/internal/isa"
)

// boundsMem is a MemReader with explicit heap bounds that records every word
// address the scanner reads.
type boundsMem struct {
	words     map[uint64]uint64
	base, lim uint64
	reads     []uint64
}

func (f *boundsMem) Read64(addr uint64) uint64 {
	f.reads = append(f.reads, addr)
	return f.words[addr]
}
func (f *boundsMem) Read32(addr uint64) uint32 { return uint32(f.Read64(addr)) }
func (f *boundsMem) InHeap(addr uint64) bool   { return addr >= f.base && addr < f.lim }

const (
	heapBase = uint64(0x10000)
	heapLim  = uint64(0x20000)
	scanLine = uint64(0x40000) // the block whose contents get scanned
)

// scanRow is one scanning operating point of the region engine.
type scanRow struct {
	name string
	// build returns the engine, its scanner armed one level deep.
	build func(MemReader) *Region
	// ptrBlocks is how many blocks the row queues per discovered pointer.
	ptrBlocks int
	// hintGated rows arm the scanner only on pointer-hinted misses.
	hintGated bool
}

// scanRows are the rows with a pointer scanner: grp/var, ptr, and
// grp-adaptive at its starting (middle) rung and at its very-aggressive
// rung, whose 4-block pointer regions must clamp at 2^64 too.
func scanRows() []scanRow {
	return []scanRow{
		{"grp-var", func(m MemReader) *Region {
			return NewGRP(GRPConfig{Variable: true, PtrBlocks: 2, RecursionDepth: 1}, m)
		}, 2, true},
		{"ptr", func(m MemReader) *Region { return NewPointerOnly(m, 1) }, 2, false},
		{"grp-adaptive", func(m MemReader) *Region {
			return NewAdaptiveGRP(GRPConfig{RecursionDepth: 1}, m)
		}, 2, true},
		{"grp-adaptive-very-aggressive", func(m MemReader) *Region {
			e := NewAdaptiveGRP(GRPConfig{RecursionDepth: 1}, m)
			e.ladder.state = VeryAggressive
			return e
		}, 4, true},
	}
}

// forEachScanRow runs fn as one subtest per scanning row.
func forEachScanRow(t *testing.T, fn func(t *testing.T, row scanRow)) {
	for _, row := range scanRows() {
		row := row
		t.Run(row.name, func(t *testing.T) { fn(t, row) })
	}
}

// lineCached reports every block of scanLine's 4 KB region as cached, so
// a miss there opens no spatial or fallback region and every candidate
// comes from the pointer scan.
func lineCached(b uint64) bool {
	const size = uint64(RegionBlocks) * BlockBytes
	return b&^(size-1) == scanLine&^(size-1)
}

// scanOnce arms the pointer scanner on scanLine, delivers its data, and
// returns the prefetch candidates the scan produced.
func scanOnce(t *testing.T, row scanRow, f *boundsMem) (*Region, []uint64) {
	t.Helper()
	g := row.build(f)
	g.OnL2DemandMiss(MissEvent{Addr: scanLine + 8, Hint: isa.HintPointer, Present: blockMask(lineCached)})
	g.OnArrival(scanLine)
	var got []uint64
	for {
		b, ok := g.Pop(func(uint64) bool { return false })
		if !ok {
			break
		}
		got = append(got, b)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return g, got
}

// ptrCands returns the ptrBlocks consecutive candidate blocks a pointer
// to target queues, from the block holding target.
func ptrCands(ptrBlocks int, target uint64) []uint64 {
	out := make([]uint64, ptrBlocks)
	for i := range out {
		out[i] = target&^uint64(BlockBytes-1) + uint64(i)*BlockBytes
	}
	return out
}

// sameBlocks fails the test unless got equals want.
func sameBlocks(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("candidates = %#x, want %#x", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("candidates = %#x, want %#x", got, want)
		}
	}
}

// TestScanBounds pins the base-and-bounds pointer test of Section 3.2 at
// the heap-range edges: values at exactly the heap base and at limit-1 are
// pointers, the limit itself and base-1 are not, and word position within
// the line (first word, last word) does not matter.
func TestScanBounds(t *testing.T) {
	cases := []struct {
		name   string
		words  map[uint64]uint64 // line contents; unset words read as 0
		target uint64            // the one pointer found; 0 = none
	}{
		{
			name:   "pointer in first word of line",
			words:  map[uint64]uint64{scanLine: heapBase + 0x800},
			target: heapBase + 0x800,
		},
		{
			name:   "pointer in last word of line",
			words:  map[uint64]uint64{scanLine + uint64(BlockBytes) - 8: heapBase + 0x800},
			target: heapBase + 0x800,
		},
		{
			name:   "value exactly at heap base is a pointer",
			words:  map[uint64]uint64{scanLine + 16: heapBase},
			target: heapBase,
		},
		{
			name:   "value at limit-1 is a pointer",
			words:  map[uint64]uint64{scanLine + 16: heapLim - 1},
			target: heapLim - 1,
		},
		{
			name:  "value exactly at heap limit is not a pointer",
			words: map[uint64]uint64{scanLine + 16: heapLim},
		},
		{
			name:  "value just below heap base is not a pointer",
			words: map[uint64]uint64{scanLine + 16: heapBase - 1},
		},
		{
			name: "small integers and zero are not pointers",
			words: map[uint64]uint64{
				scanLine:      0,
				scanLine + 8:  1,
				scanLine + 16: 42,
				scanLine + 24: uint64(BlockBytes),
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			forEachScanRow(t, func(t *testing.T, row scanRow) {
				f := &boundsMem{words: tc.words, base: heapBase, lim: heapLim}
				g, got := scanOnce(t, row, f)
				st := g.Stats()
				if st.PointerScans != 1 {
					t.Fatalf("PointerScans = %d, want 1", st.PointerScans)
				}
				var found uint64
				var want []uint64
				if tc.target != 0 {
					found, want = 1, ptrCands(row.ptrBlocks, tc.target)
				}
				if st.PointersFound != found {
					t.Fatalf("PointersFound = %d, want %d", st.PointersFound, found)
				}
				sameBlocks(t, got, want)
			})
		})
	}
}

// TestScanStaysInLine checks the scanner reads exactly the eight 8-byte
// words of the arriving line — never a byte before its base or past its
// end (Sec. 3.3.1: the hardware inspects the returned cache line only).
func TestScanStaysInLine(t *testing.T) {
	forEachScanRow(t, func(t *testing.T, row scanRow) {
		f := &boundsMem{words: map[uint64]uint64{}, base: heapBase, lim: heapLim}
		scanOnce(t, row, f)
		if len(f.reads) != BlockBytes/8 {
			t.Fatalf("scan performed %d reads, want %d", len(f.reads), BlockBytes/8)
		}
		seen := map[uint64]bool{}
		for _, a := range f.reads {
			if a < scanLine || a+8 > scanLine+uint64(BlockBytes) {
				t.Fatalf("scan read %#x, outside line [%#x,%#x)", a, scanLine, scanLine+uint64(BlockBytes))
			}
			if a%8 != 0 {
				t.Fatalf("scan read %#x is not 8-byte aligned", a)
			}
			if seen[a] {
				t.Fatalf("scan read %#x twice", a)
			}
			seen[a] = true
		}
	})
}

// TestScanZeroLengthHeap checks the degenerate bounds base == lim: the
// heap is empty, so no value — not even the base itself — passes the
// pointer test, and a hinted scan completes without queuing anything.
func TestScanZeroLengthHeap(t *testing.T) {
	forEachScanRow(t, func(t *testing.T, row scanRow) {
		f := &boundsMem{
			words: map[uint64]uint64{scanLine: heapBase, scanLine + 8: heapBase + 8},
			base:  heapBase, lim: heapBase,
		}
		g, got := scanOnce(t, row, f)
		st := g.Stats()
		if st.PointerScans != 1 {
			t.Fatalf("PointerScans = %d, want 1", st.PointerScans)
		}
		if st.PointersFound != 0 {
			t.Fatalf("PointersFound = %d, want 0 for a zero-length heap", st.PointersFound)
		}
		if len(got) != 0 {
			t.Fatalf("zero-length heap produced candidates %#x", got)
		}
	})
}

// TestRegionEndsAtAddressSpaceTop checks a spatial region in the topmost
// naturally-aligned slot of the address space: the region ends exactly at
// 2^64 and every candidate stays inside it — size alignment means no
// candidate can wrap to low memory.
func TestRegionEndsAtAddressSpaceTop(t *testing.T) {
	size := uint64(RegionBlocks) * BlockBytes
	base := -size // == 2^64 - size
	e := makeRegion(base+8, RegionBlocks, nonePresent, 0)
	if e.base != base {
		t.Fatalf("region base %#x, want %#x", e.base, base)
	}
	var q regionQueue
	q.pushHead(e)
	n := 0
	for {
		b, _, ok := q.pop(nil)
		if !ok {
			break
		}
		n++
		if b < base {
			t.Fatalf("candidate %#x wrapped below region base %#x", b, base)
		}
	}
	// All blocks except the miss block itself.
	if n != RegionBlocks-1 {
		t.Fatalf("popped %d candidates, want %d", n, RegionBlocks-1)
	}
}

// TestPtrTargetInTopBlock checks a pointer target in the last block of the
// address space: the pointer region is clamped at the boundary instead of
// wrapping its further candidates around to address zero.
func TestPtrTargetInTopBlock(t *testing.T) {
	forEachScanRow(t, func(t *testing.T, row scanRow) {
		topBlk := ^uint64(0) &^ uint64(BlockBytes-1)
		f := &boundsMem{
			words: map[uint64]uint64{scanLine: topBlk + 8},
			base:  topBlk, lim: ^uint64(0),
		}
		g, got := scanOnce(t, row, f)
		if st := g.Stats(); st.PointersFound != 1 {
			t.Fatalf("PointersFound = %d, want 1", st.PointersFound)
		}
		sameBlocks(t, got, []uint64{topBlk})
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("clamped top-of-memory region violates invariants: %v", err)
		}
	})
}

// TestPtrTargetNearTopKeepsBothBlocks checks the clamp is exact: a target
// in the second-to-last block keeps both blocks below 2^64, which is the
// whole two-block region and the clamped four-block one.
func TestPtrTargetNearTopKeepsBothBlocks(t *testing.T) {
	forEachScanRow(t, func(t *testing.T, row scanRow) {
		topBlk := ^uint64(0) &^ uint64(BlockBytes-1)
		f := &boundsMem{
			words: map[uint64]uint64{scanLine: topBlk - uint64(BlockBytes) + 8},
			base:  topBlk - uint64(BlockBytes), lim: ^uint64(0),
		}
		g, got := scanOnce(t, row, f)
		sameBlocks(t, got, []uint64{topBlk - uint64(BlockBytes), topBlk})
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScanNotArmedWithoutHint checks an unhinted miss never arms the
// scanner on the hint-gated rows: GRP's pointer machinery is strictly
// compiler-guided (ptr, which scans every miss, is exempt).
func TestScanNotArmedWithoutHint(t *testing.T) {
	for _, row := range scanRows() {
		if !row.hintGated {
			continue
		}
		row := row
		t.Run(row.name, func(t *testing.T) {
			f := &boundsMem{words: map[uint64]uint64{scanLine: heapBase + 0x800}, base: heapBase, lim: heapLim}
			g := row.build(f)
			g.OnL2DemandMiss(MissEvent{Addr: scanLine, Present: nonePresent})
			g.OnArrival(scanLine)
			if st := g.Stats(); st.PointerScans != 0 {
				t.Fatalf("PointerScans = %d, want 0 for unhinted miss", st.PointerScans)
			}
			if len(f.reads) != 0 {
				t.Fatalf("scanner read %d words on unhinted miss", len(f.reads))
			}
		})
	}
}
