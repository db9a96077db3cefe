package cpu

import (
	"fmt"
	"strings"
	"testing"

	"grp/internal/isa"
	"grp/internal/mem"
)

// Store-to-load forwarding never fires on the paper grid or in the
// co-run pairs, so no golden pins it; these tests do. The granule filter
// in front of the ring scan must change no load's outcome.

// forwarder is what a thread asks of its store buffer.
type forwarder interface {
	push(st pendStore)
	forward(addr uint64, size int, issueAt uint64) (uint64, bool)
}

// refForward is the unfiltered scan the filter must agree with: the
// newest of the last window stores that is still buffered at issueAt and
// overlaps the load forwards to it.
func refForward(stores []pendStore, window int, addr uint64, size int, issueAt uint64) (uint64, bool) {
	for k := len(stores) - 1; k >= 0 && k >= len(stores)-window; k-- {
		st := stores[k]
		if st.commit > issueAt && st.addr < addr+uint64(size) && addr < st.addr+uint64(st.size) {
			return max(st.ready, issueAt) + 1, true
		}
	}
	return 0, false
}

// fwdOp is one step of a forwarding case: a store when load is false.
type fwdOp struct {
	load    bool
	addr    uint64
	size    int
	at      uint64 // a store's data-ready cycle, a load's issue cycle
	commit  uint64 // a store's buffer-exit cycle; 0 means at+2
	repeats int    // the op runs 1+repeats times
}

func store(addr uint64, size int, ready uint64) fwdOp {
	return fwdOp{addr: addr, size: size, at: ready}
}

func load(addr uint64, size int, issueAt uint64) fwdOp {
	return fwdOp{load: true, addr: addr, size: size, at: issueAt}
}

type fwdCase struct {
	name   string
	window int // ROB size, the ring's length
	ops    []fwdOp
}

func fwdCases() []fwdCase {
	// Each store has left the buffer before the next one's loads issue.
	var sizes []fwdOp
	at := uint64(10)
	for _, ss := range []int{1, 4, 8} {
		for _, ls := range []int{1, 4, 8} {
			for _, off := range []uint64{0, 1, 3, 4, 7, 8} {
				sizes = append(sizes, store(0x1000, ss, at), load(0x1000+off, ls, at+1), load(0x1000-off, ls, at+1))
				at += 10
			}
		}
	}
	wrap := []fwdOp{}
	for k := uint64(0); k < 6; k++ {
		wrap = append(wrap, store(0x3000+k*8, 8, 50))
	}
	for k := uint64(0); k < 6; k++ {
		wrap = append(wrap, load(0x3000+k*8, 8, 51), load(0x3004+k*8, 8, 51))
	}
	return []fwdCase{
		{"sizes-1-4-8", 64, sizes},
		{"unaligned", 64, []fwdOp{
			store(0x1003, 8, 20), load(0x100a, 1, 21), load(0x100b, 4, 21), load(0x0ffc, 8, 21),
			store(0x1021, 4, 22), load(0x1024, 1, 23), load(0x1025, 4, 23), load(0x101e, 4, 23),
		}},
		{"straddle", 64, []fwdOp{
			store(0x100e, 4, 30), load(0x1010, 8, 31), load(0x1008, 8, 31), load(0x1012, 1, 31),
			store(0x1040, 8, 32), load(0x103c, 8, 33), load(0x1044, 8, 33), load(0x1048, 4, 33),
			store(0x1086, 1, 34), load(0x1080, 8, 35), load(0x1087, 1, 35),
		}},
		{"shared-bucket-2KiB", 64, []fwdOp{
			store(0x2000, 8, 40), load(0x2800, 8, 41), load(0x2000, 8, 41), load(0x3000, 4, 41),
			store(0x2804, 4, 42), load(0x2000, 8, 43), load(0x2800, 8, 43), load(0x1804, 1, 43),
		}},
		{"ring-wraps-past-ROB", 4, wrap},
		{"store-left-buffer", 64, []fwdOp{
			{addr: 0x4000, size: 8, at: 60, commit: 62},
			load(0x4000, 8, 61), load(0x4000, 8, 62), load(0x4000, 8, 70),
			{addr: 0x4000, size: 4, at: 63, commit: 65},
			load(0x4000, 8, 64), load(0x4000, 8, 65), load(0x4004, 4, 65),
		}},
		{"rob-4096-one-granule", maxROBSize, []fwdOp{
			{addr: 0x5000, size: 8, at: 80, repeats: maxROBSize - 1},
			load(0x5000, 8, 81), load(0x5004, 4, 81), load(0x5008, 8, 81),
			{addr: 0x5002, size: 4, at: 82, repeats: 300},
			load(0x5000, 1, 83), load(0x5003, 1, 83),
		}},
	}
}

// memLatency is the flat latency a load that reaches memory pays in the
// table cases.
const memLatency = 100

// forwardMismatches runs every case through the buffers newBuf builds
// and returns each load whose completion cycle, or whether the memory
// system saw it, differs from the unfiltered scan.
func forwardMismatches(newBuf func(window int) forwarder) []string {
	var out []string
	for _, c := range fwdCases() {
		b := newBuf(c.window)
		var stores []pendStore
		for i, op := range c.ops {
			for r := 0; r <= op.repeats; r++ {
				if !op.load {
					commit := op.commit
					if commit == 0 {
						commit = op.at + 2
					}
					st := pendStore{addr: op.addr, size: op.size, ready: op.at, commit: commit}
					stores = append(stores, st)
					b.push(st)
					continue
				}
				done, fwd := b.forward(op.addr, op.size, op.at)
				want, wantFwd := refForward(stores, c.window, op.addr, op.size, op.at)
				if !fwd {
					done = op.at + memLatency
				}
				if !wantFwd {
					want = op.at + memLatency
				}
				if done != want || fwd != wantFwd {
					out = append(out, fmt.Sprintf("%s op %d: load %d bytes at %#x issued at %d completes at %d (memory saw it: %v), unfiltered scan says %d (%v)",
						c.name, i, op.size, op.addr, op.at, done, !fwd, want, !wantFwd))
				}
			}
		}
	}
	return out
}

// TestStoreForwardFilterMatchesScan: with the granule filter in front, a
// load completes when the unfiltered scan says and reaches memory iff
// the scan finds no store, for every access size, unaligned and
// straddling accesses, buckets shared by granules 2 KiB apart, a ring
// that wraps, stores that have left the buffer, and a 4,096-entry ROB
// whose stores all count in one bucket.
func TestStoreForwardFilterMatchesScan(t *testing.T) {
	for _, m := range forwardMismatches(func(w int) forwarder { b := newStoreBuffer(w); return &b }) {
		t.Error(m)
	}
}

// firstGranuleOnly is a known-bad filter: it consults only the bucket of
// the load's first granule.
type firstGranuleOnly struct{ *storeBuffer }

func (b firstGranuleOnly) forward(addr uint64, size int, issueAt uint64) (uint64, bool) {
	if b.granules[(addr>>3)&(granuleBuckets-1)] == 0 {
		return 0, false
	}
	return b.scan(addr, size, issueAt)
}

// uint8Counts is a known-bad filter whose counts are 8 bits wide.
type uint8Counts struct {
	*storeBuffer
	counts [granuleBuckets]uint8
}

func (b *uint8Counts) add(addr uint64, size int, d uint8) {
	g0, g1 := granuleSpan(addr, size)
	b.counts[g0&(granuleBuckets-1)] += d
	if g1 != g0 {
		b.counts[g1&(granuleBuckets-1)] += d
	}
}

func (b *uint8Counts) push(st pendStore) {
	if int(b.n) == len(b.ring) {
		old := b.ring[b.next]
		b.add(old.addr, old.size, ^uint8(0))
	}
	b.add(st.addr, st.size, 1)
	b.storeBuffer.push(st)
}

func (b *uint8Counts) forward(addr uint64, size int, issueAt uint64) (uint64, bool) {
	g0, g1 := granuleSpan(addr, size)
	if b.counts[g0&(granuleBuckets-1)] == 0 && b.counts[g1&(granuleBuckets-1)] == 0 {
		return 0, false
	}
	return b.scan(addr, size, issueAt)
}

// TestStoreForwardFilterKnownBadCaught: the table catches a filter that
// checks only the load's first granule (a load straddling into a stored
// granule skips its scan) and one that counts in uint8 (4,096 stores to
// one granule wrap its bucket to zero).
func TestStoreForwardFilterKnownBadCaught(t *testing.T) {
	for _, bad := range []struct {
		name, wantCase string
		newBuf         func(int) forwarder
	}{
		{"first-granule-only", "straddle", func(w int) forwarder { b := newStoreBuffer(w); return firstGranuleOnly{&b} }},
		{"uint8-counts", "rob-4096-one-granule", func(w int) forwarder { b := newStoreBuffer(w); return &uint8Counts{storeBuffer: &b} }},
	} {
		caught := false
		for _, m := range forwardMismatches(bad.newBuf) {
			caught = caught || strings.HasPrefix(m, bad.wantCase+" ")
		}
		if !caught {
			t.Errorf("%s filter passed the %s case", bad.name, bad.wantCase)
		}
	}
}

// loadLog is a flat-latency memory that records every load it sees.
type loadLog struct {
	flatMem
	loads int
}

func (l *loadLog) Load(pc, addr uint64, h isa.Hint, coeff uint8, now uint64) uint64 {
	l.loads++
	return l.flatMem.Load(pc, addr, h, coeff, now)
}

// TestThreadForwardingMatchesUnfiltered runs store-heavy loops whose
// loads forward from unaligned, straddling and bucket-sharing stores,
// once as is and once with every granule bucket pinned nonzero, which
// makes each load scan the ring: every load must complete in the same
// cycle, and reach memory or not, in both runs, at the paper's ROB and
// at the largest.
func TestThreadForwardingMatchesUnfiltered(t *testing.T) {
	p, err := isa.Assemble("fwd", `
	li r1, 8192
	li r2, 0
	li r4, 400
loop:
	st1 r2, 41(r1)
	ld r10, 36(r1)
	st r2, 3(r1)
	st4 r2, 14(r1)
	st1 r2, 2056(r1)
	ld r3, 8(r1)
	ld4 r5, 16(r1)
	ld1 r6, 8(r1)
	ld r7, 2048(r1)
	ld1 r8, 2056(r1)
	ld r9, 4096(r1)
	addi r1, r1, 24
	addi r2, r2, 1
	blt r2, r4, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	type loadOutcome struct {
		done uint64
		mem  bool
	}
	trace := func(cfg Config, pinOpen bool) ([]loadOutcome, Result) {
		lg := &loadLog{flatMem: flatMem{lat: 3}}
		th, err := mustNew(t, cfg, mem.New(), lg).Start(p)
		if err != nil {
			t.Fatal(err)
		}
		if pinOpen {
			for i := range th.stores.granules {
				// Live counts ride on the pin, so no bucket reads zero.
				th.stores.granules[i] = 1 << 14
			}
		}
		var out []loadOutcome
		for !th.Done() {
			in, seen := th.code[th.pc], lg.loads
			if err := th.Step(); err != nil {
				t.Fatal(err)
			}
			if in.kind == kindLoad {
				out = append(out, loadOutcome{th.regReady[in.dst], lg.loads > seen})
			}
		}
		return out, th.Result()
	}
	for _, rob := range []int{Default().ROBSize, maxROBSize} {
		cfg := Default()
		cfg.ROBSize = rob
		got, gotRes := trace(cfg, false)
		want, wantRes := trace(cfg, true)
		if gotRes != wantRes {
			t.Fatalf("ROB %d: result %+v, unfiltered %+v", rob, gotRes, wantRes)
		}
		forwarded := 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ROB %d, load %d: completes at %d (memory saw it: %v), unfiltered at %d (%v)",
					rob, i, got[i].done, got[i].mem, want[i].done, want[i].mem)
			}
			if !want[i].mem {
				forwarded++
			}
		}
		if forwarded == 0 {
			t.Fatalf("ROB %d: no load forwarded; the program does not exercise the filter", rob)
		}
	}
}
