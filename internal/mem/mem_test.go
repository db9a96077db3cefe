package mem

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestReadWriteSizes(t *testing.T) {
	m := New()
	m.Write(100, 8, 0x1122334455667788)
	if got := m.Read(100, 8); got != 0x1122334455667788 {
		t.Errorf("Read64 = %#x", got)
	}
	// Little-endian sub-reads.
	if got := m.Read(100, 1); got != 0x88 {
		t.Errorf("Read1 = %#x, want 0x88", got)
	}
	if got := m.Read(100, 4); got != 0x55667788 {
		t.Errorf("Read4 = %#x, want 0x55667788", got)
	}
	m.Write(104, 4, 0xdeadbeef)
	if got := m.Read(100, 8); got != 0xdeadbeef55667788 {
		t.Errorf("mixed = %#x", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	m.Write(addr, 8, 0xa1b2c3d4e5f60718)
	if got := m.Read(addr, 8); got != 0xa1b2c3d4e5f60718 {
		t.Errorf("straddling read = %#x", got)
	}
	addr4 := uint64(2*PageSize - 2)
	m.Write(addr4, 4, 0xcafef00d)
	if got := m.Read(addr4, 4); got != 0xcafef00d {
		t.Errorf("straddling 4-byte read = %#x", got)
	}
}

func TestReadWriteBytes(t *testing.T) {
	m := New()
	src := make([]byte, 3*PageSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	m.WriteBytes(500, src)
	dst := make([]byte, len(src))
	m.ReadBytes(500, dst)
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("byte %d: got %d want %d", i, dst[i], src[i])
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	m := New()
	a := m.Alloc(10, 64)
	if a%64 != 0 {
		t.Errorf("Alloc not 64-aligned: %#x", a)
	}
	b := m.Alloc(1, 8)
	if b < a+10 {
		t.Errorf("allocations overlap: %#x after %#x+10", b, a)
	}
	c := m.Alloc(8, 4096)
	if c%4096 != 0 {
		t.Errorf("Alloc not page-aligned: %#x", c)
	}
}

func TestAllocBadAlign(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Alloc with non-power-of-two alignment should panic")
		}
	}()
	New().Alloc(8, 3)
}

func TestHeapRange(t *testing.T) {
	m := New()
	if m.InHeap(HeapBase) {
		t.Error("empty heap should contain nothing")
	}
	a := m.Alloc(100, 8)
	start, end := m.HeapRange()
	if start != HeapBase {
		t.Errorf("heap start = %#x", start)
	}
	if end != a+100 {
		t.Errorf("heap end = %#x, want %#x", end, a+100)
	}
	if !m.InHeap(a) || !m.InHeap(a+99) {
		t.Error("allocated bytes should be in heap")
	}
	if m.InHeap(a + 100) {
		t.Error("past-the-end should be outside heap")
	}
	if m.InHeap(GlobalBase) {
		t.Error("globals are not heap")
	}
	if m.HeapBytes() == 0 {
		t.Error("HeapBytes should be nonzero after Alloc")
	}
}

func TestSparseness(t *testing.T) {
	m := New()
	m.Write64(0, 1)
	m.Write64(1<<40, 2)
	if n := m.PagesTouched(); n != 2 {
		t.Errorf("PagesTouched = %d, want 2", n)
	}
	if m.Read64(1<<40) != 2 {
		t.Error("high-address value lost")
	}
	if m.Read64(1<<20) != 0 {
		t.Error("untouched memory should read zero")
	}
}

// TestQuickReadAfterWrite checks the fundamental memory property across
// random addresses and sizes, including page boundaries.
func TestQuickReadAfterWrite(t *testing.T) {
	m := New()
	sizes := []int{1, 4, 8}
	f := func(addrSeed uint32, val uint64, sizeIdx uint8) bool {
		// Bias addresses toward page boundaries.
		addr := uint64(addrSeed) % (8 * PageSize)
		if addrSeed%3 == 0 {
			addr = uint64(addrSeed%16) + PageSize - 8
		}
		size := sizes[int(sizeIdx)%len(sizes)]
		m.Write(addr, size, val)
		got := m.Read(addr, size)
		want := val
		switch size {
		case 1:
			want &= 0xff
		case 4:
			want &= 0xffffffff
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHelpers32And64(t *testing.T) {
	m := New()
	m.Write32(64, 0x01020304)
	if m.Read32(64) != 0x01020304 {
		t.Error("Write32/Read32 mismatch")
	}
	m.Write64(128, 0xfeedfacecafebeef)
	if m.Read64(128) != 0xfeedfacecafebeef {
		t.Error("Write64/Read64 mismatch")
	}
}

// pageModel is the reference the differential test runs Memory against:
// a map of pages that exist once written, read byte by byte.
type pageModel map[uint64]*[PageSize]byte

func (pm pageModel) write(addr uint64, size int, val uint64) {
	for k := 0; k < size; k++ {
		a := addr + uint64(k)
		p := pm[a/PageSize]
		if p == nil {
			p = new([PageSize]byte)
			pm[a/PageSize] = p
		}
		p[a%PageSize] = byte(val >> (8 * k))
	}
}

func (pm pageModel) read(addr uint64, size int) uint64 {
	var v uint64
	for k := 0; k < size; k++ {
		a := addr + uint64(k)
		if p := pm[a/PageSize]; p != nil {
			v |= uint64(p[a%PageSize]) << (8 * k)
		}
	}
	return v
}

// digest is Digest's definition: FNV-1a over the heap bounds, then the
// number and 512 little-endian words of each non-zero page, in page order.
func (pm pageModel) digest(heapStart, heapBrk uint64) uint64 {
	var pns []uint64
	for pn, p := range pm {
		if *p != ([PageSize]byte{}) {
			pns = append(pns, pn)
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(heapStart)
	mix(heapBrk)
	for _, pn := range pns {
		mix(pn)
		for off := 0; off < PageSize; off += 8 {
			mix(binary.LittleEndian.Uint64(pm[pn][off:]))
		}
	}
	return h
}

// TestMemoryMatchesPageModel runs seeded mixes of 1-, 4- and 8-byte
// writes and reads against the page model, over the globals segment, the
// heap, page straddles, both edges of each page directory and addresses
// outside both (near 0 and 1<<40). Every read, the page count and the
// final Digest must agree; then reads of untouched pages must return zero
// and leave the page count and the Digest as they were.
func TestMemoryMatchesPageModel(t *testing.T) {
	heapEnd := HeapBase + heapDirPages*PageSize
	bases := []uint64{
		GlobalBase, GlobalBase + 40*PageSize, // globals
		HeapBase + 3*PageSize, HeapBase + 200*PageSize, // heap
		GlobalBase, HeapBase, heapEnd, // directory edges
		0, 1 << 40, // outside both
	}
	sizes := []int{1, 4, 8}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, pm := New(), pageModel{}
		for k := 0; k < 20000; k++ {
			base := bases[rng.Intn(len(bases))]
			var addr uint64
			switch rng.Intn(3) {
			case 0: // anywhere in the next few pages
				addr = base + uint64(rng.Intn(4*PageSize))
			case 1: // straddling the page boundary at or after base
				addr = base&^(PageSize-1) + uint64(rng.Intn(3))*PageSize + PageSize - uint64(1+rng.Intn(7))
			default: // just below base, which crosses a directory edge
				addr = base - uint64(1+rng.Intn(16))
			}
			size := sizes[rng.Intn(len(sizes))]
			if rng.Intn(5) < 3 {
				val := rng.Uint64()
				if rng.Intn(8) == 0 {
					val = 0 // zero pages must not reach the digest
				}
				m.Write(addr, size, val)
				pm.write(addr, size, val)
			} else if got, want := m.Read(addr, size), pm.read(addr, size); got != want {
				t.Fatalf("seed %d op %d: Read(%#x, %d) = %#x, model %#x", seed, k, addr, size, got, want)
			}
			if rng.Intn(500) == 0 {
				m.Alloc(uint64(rng.Intn(3*PageSize)), 8)
			}
		}
		if m.PagesTouched() != len(pm) {
			t.Errorf("seed %d: %d pages, model %d", seed, m.PagesTouched(), len(pm))
		}
		start, brk := m.HeapRange()
		d := m.Digest()
		if want := pm.digest(start, brk); d != want {
			t.Errorf("seed %d: Digest %#x, model %#x", seed, d, want)
		}

		pages := m.PagesTouched()
		buf := make([]byte, 3*PageSize)
		for _, base := range bases {
			for off := uint64(8 * PageSize); off < 12*PageSize; off += 8 {
				addr := base + off
				if pm.read(addr, 8) != 0 {
					continue // written above; only untouched pages count here
				}
				if v := m.Read(addr, 8); v != 0 {
					t.Fatalf("seed %d: untouched %#x reads %#x", seed, addr, v)
				}
			}
			m.ReadBytes(base+20*PageSize-5, buf)
		}
		if m.PagesTouched() != pages || m.Digest() != d {
			t.Errorf("seed %d: reads of untouched pages changed memory: %d pages → %d, digest %#x → %#x",
				seed, pages, m.PagesTouched(), d, m.Digest())
		}
	}
}
