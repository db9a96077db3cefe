// Package mem provides the simulated flat physical memory backing the
// cache hierarchy, together with the heap range bookkeeping that the GRP
// pointer scanner's base-and-bounds test relies on (paper Section 3.2).
//
// Memory is sparse: a page exists once something is written to it, so
// multi-gigabyte address spaces cost only what the workload writes, and a
// read of a page that does not exist returns zero without creating it.
// All values are little-endian.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageSize is the allocation granularity of the sparse backing store. It is
// also the paper's region size (4 KB), though the two are independent.
const PageSize = 4096

// Layout constants for the simulated address space. The heap begins well
// above the globals segment so the base-and-bounds pointer test never
// confuses small integers or global addresses with heap pointers.
const (
	// GlobalBase is where statically sized workload data (if any) begins.
	GlobalBase uint64 = 0x0001_0000
	// HeapBase is the bottom of the simulated heap.
	HeapBase uint64 = 0x1000_0000
)

// Page directories. Pages of the globals segment and of the heap are found
// by indexing a slice with the page number; only pages outside both (below
// GlobalBase, or heapDirPages or more above HeapBase) live in a map. A
// directory grows to the highest page written to it.
const (
	globalFirstPN = GlobalBase / PageSize
	heapFirstPN   = HeapBase / PageSize
	// globalDirPages covers the globals segment up to the heap.
	globalDirPages = heapFirstPN - globalFirstPN
	// heapDirPages covers 4 GB of heap; a full directory is 8 MB.
	heapDirPages = 1 << 20
)

// page is one PageSize block of memory.
type page = [PageSize]byte

// Memory is a sparse, page-granular byte-addressable store with a bump
// allocator and heap range tracking.
type Memory struct {
	globals []*page // page globalFirstPN+i, nil until written
	heap    []*page // page heapFirstPN+i, nil until written
	other   map[uint64]*page
	npages  int // pages that exist, in all three

	heapStart uint64
	heapBrk   uint64 // next free heap byte (bump pointer)
}

// New returns an empty memory whose heap begins at HeapBase.
func New() *Memory {
	return &Memory{heapStart: HeapBase, heapBrk: HeapBase}
}

// Alloc carves size bytes from the heap, aligned to align (a power of two,
// at least 1), and returns the base address. It is the simulated malloc:
// allocations are contiguous in allocation order, which reproduces the
// "regular layout ... and memory allocation patterns for pointer data
// structures" the paper observes make spatial prefetching effective even on
// pointer codes (Section 3.1).
func (m *Memory) Alloc(size uint64, align uint64) uint64 {
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: Alloc align %d not a power of two", align))
	}
	base := (m.heapBrk + align - 1) &^ (align - 1)
	m.heapBrk = base + size
	return base
}

// HeapRange returns the [start, end) range of allocated heap bytes. The GRP
// pointer scanner treats any 8-byte value within this range as a candidate
// pointer.
func (m *Memory) HeapRange() (start, end uint64) { return m.heapStart, m.heapBrk }

// InHeap reports whether addr falls within the allocated heap, i.e. whether
// the hardware's base-and-bounds check would accept it as a pointer.
func (m *Memory) InHeap(addr uint64) bool { return addr >= m.heapStart && addr < m.heapBrk }

// HeapBytes returns the number of bytes allocated so far.
func (m *Memory) HeapBytes() uint64 { return m.heapBrk - m.heapStart }

// lookup returns the page holding addr, or nil when it does not exist.
func (m *Memory) lookup(addr uint64) *page {
	pn := addr / PageSize
	if i := pn - heapFirstPN; i < uint64(len(m.heap)) {
		return m.heap[i]
	}
	if i := pn - globalFirstPN; i < uint64(len(m.globals)) {
		return m.globals[i]
	}
	if len(m.other) == 0 {
		return nil
	}
	return m.other[pn]
}

// writePage returns the page holding addr, creating it if it does not exist.
func (m *Memory) writePage(addr uint64) *page {
	if p := m.lookup(addr); p != nil {
		return p
	}
	pn := addr / PageSize
	p := new(page)
	m.npages++
	switch {
	case pn-heapFirstPN < heapDirPages:
		m.heap = place(m.heap, pn-heapFirstPN, p)
	case pn-globalFirstPN < globalDirPages:
		m.globals = place(m.globals, pn-globalFirstPN, p)
	default:
		if m.other == nil {
			m.other = make(map[uint64]*page)
		}
		m.other[pn] = p
	}
	return p
}

// place stores p at index i of dir, growing dir to cover i.
func place(dir []*page, i uint64, p *page) []*page {
	if n := uint64(len(dir)); i >= n {
		dir = append(dir, make([]*page, i+1-n)...)
	}
	dir[i] = p
	return dir
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr % PageSize
		var n int
		if p := m.lookup(addr); p != nil {
			n = copy(dst, p[off:])
		} else {
			n = copy(dst, zeroPage[off:])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// zeroPage is what a page that does not exist reads as.
var zeroPage page

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		p := m.writePage(addr)
		off := addr % PageSize
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Read returns the size-byte little-endian value at addr. Size must be 1, 4
// or 8. Accesses may straddle page boundaries.
func (m *Memory) Read(addr uint64, size int) uint64 {
	var buf [8]byte
	switch size {
	case 1:
		if p := m.lookup(addr); p != nil {
			return uint64(p[addr%PageSize])
		}
		return 0
	case 4:
		if addr%PageSize <= PageSize-4 {
			if p := m.lookup(addr); p != nil {
				return uint64(binary.LittleEndian.Uint32(p[addr%PageSize:]))
			}
			return 0
		}
		m.ReadBytes(addr, buf[:4])
		return uint64(binary.LittleEndian.Uint32(buf[:4]))
	case 8:
		if addr%PageSize <= PageSize-8 {
			if p := m.lookup(addr); p != nil {
				return binary.LittleEndian.Uint64(p[addr%PageSize:])
			}
			return 0
		}
		m.ReadBytes(addr, buf[:8])
		return binary.LittleEndian.Uint64(buf[:8])
	default:
		panic(fmt.Sprintf("mem: Read size %d", size))
	}
}

// Write stores the low size bytes of val at addr, little-endian.
func (m *Memory) Write(addr uint64, size int, val uint64) {
	var buf [8]byte
	switch size {
	case 1:
		m.writePage(addr)[addr%PageSize] = byte(val)
	case 4:
		if addr%PageSize <= PageSize-4 {
			p := m.writePage(addr)
			binary.LittleEndian.PutUint32(p[addr%PageSize:], uint32(val))
			return
		}
		binary.LittleEndian.PutUint32(buf[:4], uint32(val))
		m.WriteBytes(addr, buf[:4])
	case 8:
		if addr%PageSize <= PageSize-8 {
			p := m.writePage(addr)
			binary.LittleEndian.PutUint64(p[addr%PageSize:], val)
			return
		}
		binary.LittleEndian.PutUint64(buf[:8], val)
		m.WriteBytes(addr, buf[:8])
	default:
		panic(fmt.Sprintf("mem: Write size %d", size))
	}
}

// Read64 is shorthand for Read(addr, 8).
func (m *Memory) Read64(addr uint64) uint64 { return m.Read(addr, 8) }

// Write64 is shorthand for Write(addr, 8, val).
func (m *Memory) Write64(addr uint64, val uint64) { m.Write(addr, 8, val) }

// Read32 is shorthand for Read(addr, 4).
func (m *Memory) Read32(addr uint64) uint32 { return uint32(m.Read(addr, 4)) }

// Write32 is shorthand for Write(addr, 4, val).
func (m *Memory) Write32(addr uint64, val uint32) { m.Write(addr, 4, uint64(val)) }

// PagesTouched returns how many distinct pages have been written; useful
// in tests asserting sparseness.
func (m *Memory) PagesTouched() int { return m.npages }

// Digest returns an FNV-1a-style hash of memory contents plus the heap
// bounds, folded a 64-bit word at a time (page contents are hashed as 512
// little-endian words, not 4096 bytes: the byte-serial multiply chain was
// a fixed per-cell cost visible in profiles). It hashes the non-zero
// pages in page-number order. Pages exist only where something was
// written, but a write of zeros creates one too, and an all-zero page is
// the same architectural state as no page; skipping them keeps the digest
// a function of memory contents alone, making it the memory half of the
// metamorphic fault-injection check.
func (m *Memory) Digest() uint64 {
	// The map holds pages below the globals directory and above the heap
	// directory; hash them on either side of the directories.
	other := make([]uint64, 0, len(m.other))
	for pn := range m.other {
		other = append(other, pn)
	}
	sort.Slice(other, func(i, j int) bool { return other[i] < other[j] })
	high := sort.Search(len(other), func(i int) bool { return other[i] >= heapFirstPN })
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h1 := func(v uint64) {
		h ^= v
		h *= prime64
	}
	hashPage := func(pn uint64, p *page) {
		if p == nil || *p == zeroPage {
			return
		}
		h1(pn)
		for off := 0; off < PageSize; off += 8 {
			h1(binary.LittleEndian.Uint64(p[off:]))
		}
	}
	h1(m.heapStart)
	h1(m.heapBrk)
	for _, pn := range other[:high] {
		hashPage(pn, m.other[pn])
	}
	for i, p := range m.globals {
		hashPage(globalFirstPN+uint64(i), p)
	}
	for i, p := range m.heap {
		hashPage(heapFirstPN+uint64(i), p)
	}
	for _, pn := range other[high:] {
		hashPage(pn, m.other[pn])
	}
	return h
}
