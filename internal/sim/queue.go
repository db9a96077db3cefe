package sim

// This file holds the arrival machinery: a slab pool of in-flight lines
// addressed by index, and the arrival queue, a sorted array ordered by
// (doneAt, seq). Both are allocation-free in steady state — the pool
// recycles slots and the array keeps its capacity — and the queue orders
// arrivals by the explicit (doneAt, seq) key, so drain order is a
// container/heap's on the same key by construction (arrival_order_test.go
// keeps that heap as the reference).

// linePool is a slab allocator for inflightLine records. Lines are
// referred to by index rather than pointer: indices stay valid across the
// backing array's growth, and a freed slot is recycled before the slab
// grows again, so a cell's steady state allocates nothing.
type linePool struct {
	lines []inflightLine
	free  []int32
}

// alloc returns a zeroed line slot. The returned index is stable; the
// *inflightLine from at() is invalidated by the next alloc (growth may
// move the slab).
func (p *linePool) alloc() int32 {
	if n := len(p.free); n > 0 {
		idx := p.free[n-1]
		p.free = p.free[:n-1]
		p.lines[idx] = inflightLine{}
		return idx
	}
	p.lines = append(p.lines, inflightLine{})
	return int32(len(p.lines) - 1)
}

// release returns a slot to the free list.
func (p *linePool) release(idx int32) { p.free = append(p.free, idx) }

// at returns the line at idx; the pointer is valid only until the next
// alloc.
func (p *linePool) at(idx int32) *inflightLine { return &p.lines[idx] }

// live returns the number of slots currently allocated.
func (p *linePool) live() int { return len(p.lines) - len(p.free) }

// arrival is one queued line: its (doneAt, seq) key and its pool index.
type arrival struct {
	doneAt, seq uint64
	idx         int32
}

// arrivalQueue is a priority queue of pooled lines keyed by (doneAt, seq),
// kept as a sorted array: q[head:] holds the queue, soonest first. It
// holds what the L2's MSHRs and the prefetch budget keep in flight, a few
// dozen lines at most (DESIGN.md §10 has the histogram). A new line
// carries the highest seq and is usually among the latest to arrive, so
// insertion scans back from the tail, and a drain compares only the
// head. Larger queues stay correct, at the cost of longer insertion
// scans.
type arrivalQueue struct {
	q    []arrival
	head int
}

func (a *arrivalQueue) len() int { return len(a.q) - a.head }

// insert queues the pooled line idx under its (doneAt, seq) key.
func (a *arrivalQueue) insert(doneAt, seq uint64, idx int32) {
	if len(a.q) == cap(a.q) && 2*a.head >= len(a.q) {
		// Slide the live entries down over the popped ones rather than
		// grow; with half or more popped, a slide moves no more entries
		// than it frees.
		a.q = a.q[:copy(a.q, a.q[a.head:])]
		a.head = 0
	}
	a.q = append(a.q, arrival{})
	i := len(a.q) - 1
	for ; i > a.head; i-- {
		if p := a.q[i-1]; p.doneAt < doneAt || (p.doneAt == doneAt && p.seq < seq) {
			break
		}
		a.q[i] = a.q[i-1]
	}
	a.q[i] = arrival{doneAt: doneAt, seq: seq, idx: idx}
}

// peek returns the soonest entry, or false when the queue is empty.
func (a *arrivalQueue) peek() (arrival, bool) {
	if a.head == len(a.q) {
		return arrival{}, false
	}
	return a.q[a.head], true
}

// popDue removes and returns the soonest line's index if it arrives by
// cycle t, or -1.
func (a *arrivalQueue) popDue(t uint64) int32 {
	if a.head == len(a.q) || a.q[a.head].doneAt > t {
		return -1
	}
	idx := a.q[a.head].idx
	if a.head++; a.head == len(a.q) {
		a.q, a.head = a.q[:0], 0
	}
	return idx
}

// forEach visits every queued entry in drain order (diagnostics,
// invariant audits, and fault victim selection, which orders by seq
// itself).
func (a *arrivalQueue) forEach(f func(idx int32)) {
	for _, e := range a.q[a.head:] {
		f(e.idx)
	}
}
