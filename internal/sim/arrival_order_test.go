package sim

import (
	"container/heap"
	"math/rand"
	"testing"

	"grp/internal/prefetch"
)

// orderEngine records the order in which arrivals drain.
type orderEngine struct {
	prefetch.Null
	order []uint64
}

func (o *orderEngine) OnArrival(block uint64) { o.order = append(o.order, block) }

// arrivalCase is one tie-breaking scenario: lines inserted in `insert`
// order must drain in `want` order.
type arrivalCase struct {
	name   string
	insert []struct {
		block  uint64
		doneAt uint64
	}
	want []uint64
}

func arrivalCases() []arrivalCase {
	mk := func(pairs ...uint64) []struct{ block, doneAt uint64 } {
		out := make([]struct{ block, doneAt uint64 }, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			out = append(out, struct{ block, doneAt uint64 }{pairs[i], pairs[i+1]})
		}
		return out
	}
	return []arrivalCase{
		{
			name:   "distinct cycles drain by time",
			insert: mk(0x3000, 30, 0x1000, 10, 0x2000, 20),
			want:   []uint64{0x1000, 0x2000, 0x3000},
		},
		{
			name:   "same-cycle fills drain FIFO by issue order",
			insert: mk(0x1000, 50, 0x2000, 50, 0x3000, 50),
			want:   []uint64{0x1000, 0x2000, 0x3000},
		},
		{
			name:   "tie after an earlier arrival stays FIFO",
			insert: mk(0x5000, 40, 0x1000, 90, 0x2000, 90, 0x3000, 90, 0x4000, 90),
			want:   []uint64{0x5000, 0x1000, 0x2000, 0x3000, 0x4000},
		},
		{
			name:   "interleaved ties break by issue seq not insertion cycle",
			insert: mk(0x1000, 70, 0x9000, 60, 0x2000, 70, 0x8000, 60),
			want:   []uint64{0x9000, 0x8000, 0x1000, 0x2000},
		},
		{
			name:   "many ties across two cycles",
			insert: mk(0xa000, 100, 0xb000, 101, 0xc000, 100, 0xd000, 101, 0xe000, 100),
			want:   []uint64{0xa000, 0xc000, 0xe000, 0xb000, 0xd000},
		},
	}
}

// insertLine registers a hand-built in-flight line, bypassing DRAM
// timing, so ordering tests can force exact doneAt ties.
func (ms *MemSystem) insertLine(block, doneAt uint64, pf bool) {
	ms.addInflight(block, doneAt, pf)
	if pf {
		ms.inflightPF++
	}
}

// TestArrivalFIFOTieBreak drives the live MemSystem arrival queue with
// hand-built in-flight lines and asserts same-cycle fills drain in issue
// order (observed through Engine.OnArrival). Table-driven so the
// heap→calendar-queue refactor cannot silently reorder same-cycle fills.
func TestArrivalFIFOTieBreak(t *testing.T) {
	for _, tc := range arrivalCases() {
		t.Run(tc.name, func(t *testing.T) {
			eng := &orderEngine{}
			ms := newSys(eng)
			for _, in := range tc.insert {
				ms.insertLine(in.block, in.doneAt, false)
			}
			ms.Drain()
			if len(eng.order) != len(tc.want) {
				t.Fatalf("drained %d lines, want %d: %#x", len(eng.order), len(tc.want), eng.order)
			}
			for i := range tc.want {
				if eng.order[i] != tc.want[i] {
					t.Fatalf("drain order %#x, want %#x", eng.order, tc.want)
				}
			}
		})
	}
}

// TestArrivalHeapTieBreak pins the legacy heap ordering itself: Less must
// order equal doneAt entries by sequence number.
func TestArrivalHeapTieBreak(t *testing.T) {
	var h arrivalHeap
	lines := []*inflightLine{
		{block: 1, doneAt: 20, seq: 3},
		{block: 2, doneAt: 10, seq: 4},
		{block: 3, doneAt: 10, seq: 1},
		{block: 4, doneAt: 10, seq: 2},
		{block: 5, doneAt: 5, seq: 5},
	}
	for _, ln := range lines {
		heap.Push(&h, ln)
	}
	want := []uint64{5, 3, 4, 2, 1}
	for i, w := range want {
		ln := heap.Pop(&h).(*inflightLine)
		if ln.block != w {
			t.Fatalf("pop %d: block %d, want %d", i, ln.block, w)
		}
	}
}

// TestArrivalQueueMatchesHeap drives the sorted arrival array and the
// legacy arrivalHeap through the same seeded insert/drain sequences, with
// the monotone seq addInflight assigns, arrival times drawn from a few
// cycles so that many lines tie, and bursts of up to 512 queued lines
// between stretches near the few dozen that real cells hold. Both must
// drain the same lines in the same order.
func TestArrivalQueueMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q arrivalQueue
		var h arrivalHeap
		var now, seq uint64
		peak := 0
		for round := 0; round < 200; round++ {
			want := 1 + rng.Intn(26) // queued lines to build up to
			if rng.Intn(10) == 0 {
				want = 64 + rng.Intn(512-64+1)
			}
			spread := uint64(1 + rng.Intn(8)) // few distinct arrival cycles: ties
			if rng.Intn(4) == 0 {
				spread = 400
			}
			for q.len() < want {
				ln := &inflightLine{block: seq, doneAt: now + 1 + uint64(rng.Int63n(int64(spread))), seq: seq}
				seq++
				q.insert(ln.doneAt, ln.seq, int32(ln.block))
				heap.Push(&h, ln)
			}
			peak = max(peak, q.len())
			// Drain up to a cycle that leaves some lines queued, sometimes
			// everything.
			now += uint64(rng.Int63n(int64(spread) + 1))
			if rng.Intn(8) == 0 {
				now += 1000
			}
			for {
				idx := q.popDue(now)
				var w *inflightLine
				if len(h) > 0 && h[0].doneAt <= now {
					w = heap.Pop(&h).(*inflightLine)
				}
				if idx < 0 || w == nil {
					if idx >= 0 || w != nil {
						t.Fatalf("seed %d round %d cycle %d: queue popped %d, heap popped %v", seed, round, now, idx, w)
					}
					break
				}
				if uint64(idx) != w.block {
					t.Fatalf("seed %d round %d cycle %d: queue drained line %d, heap line %d (doneAt %d)",
						seed, round, now, idx, w.block, w.doneAt)
				}
			}
			if q.len() != len(h) {
				t.Fatalf("seed %d round %d: queue holds %d lines, heap %d", seed, round, q.len(), len(h))
			}
		}
		if peak < 64 {
			t.Fatalf("seed %d: the queue never held more than %d lines", seed, peak)
		}
	}
}
