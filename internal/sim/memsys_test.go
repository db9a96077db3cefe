package sim

import (
	"testing"

	"grp/internal/attrib"
	"grp/internal/isa"
	"grp/internal/prefetch"
)

func newSys(engine prefetch.Engine) *MemSystem {
	ms, err := NewMemSystem(DefaultMemConfig(), engine)
	if err != nil {
		panic(err) // the default config is always valid
	}
	return ms
}

func TestL1HitFast(t *testing.T) {
	ms := newSys(prefetch.NewNull())
	d1 := ms.Load(0, 0x1000, isa.HintNone, isa.FixedRegion, 100)
	if d1 <= 100+3 {
		t.Fatalf("cold miss should be slow, done=%d", d1)
	}
	// After the data lands, the same block is an L1 hit.
	d2 := ms.Load(0, 0x1008, isa.HintNone, isa.FixedRegion, d1+10)
	if d2 != d1+10+3 {
		t.Errorf("L1 hit latency = %d, want 3", d2-(d1+10))
	}
}

func TestInflightMerge(t *testing.T) {
	ms := newSys(prefetch.NewNull())
	d1 := ms.Load(0, 0x2000, isa.HintNone, isa.FixedRegion, 100)
	// A second access to the same block while the miss is outstanding
	// merges: it completes when the first does (plus lookup floor).
	d2 := ms.Load(0, 0x2010, isa.HintNone, isa.FixedRegion, 110)
	if d2 != d1 {
		t.Errorf("merged access done=%d, want %d", d2, d1)
	}
	if ms.Stats().InflightMerges != 1 {
		t.Errorf("merges = %d", ms.Stats().InflightMerges)
	}
}

func TestMergeLatencyFloor(t *testing.T) {
	ms := newSys(prefetch.NewNull())
	d1 := ms.Load(0, 0x3000, isa.HintNone, isa.FixedRegion, 100)
	// Merge just before completion: must still pay L1+L2 lookup.
	d2 := ms.Load(0, 0x3008, isa.HintNone, isa.FixedRegion, d1-2)
	if d2 < d1-2+3+12 {
		t.Errorf("merge beat the lookup floor: %d < %d", d2, d1-2+15)
	}
}

func TestL2HitAfterArrival(t *testing.T) {
	ms := newSys(prefetch.NewNull())
	d1 := ms.Load(0, 0x4000, isa.HintNone, isa.FixedRegion, 100)
	// L1 evicts nothing here; force an L1 miss by thrashing the set with
	// enough distinct blocks mapping to it (L1: 64 KB 2-way = 32 KB/way).
	way := uint64(32 << 10)
	ms.Load(0, 0x4000+way, isa.HintNone, isa.FixedRegion, d1+10)
	ms.Load(0, 0x4000+2*way, isa.HintNone, isa.FixedRegion, d1+500)
	ms.Advance(d1 + 3000)
	// 0x4000 is now out of L1 but in L2.
	d := ms.Load(0, 0x4000, isa.HintNone, isa.FixedRegion, d1+4000)
	if got := d - (d1 + 4000); got != 15 {
		t.Errorf("L2 hit latency = %d, want 15", got)
	}
}

func TestPrefetchFillsL2NotL1(t *testing.T) {
	ms := newSys(prefetch.NewSRP())
	// Trigger an SRP region around 0x10000.
	d1 := ms.Load(0, 0x10000, isa.HintNone, isa.FixedRegion, 100)
	ms.Advance(d1 + 20000) // let prefetches land
	if ms.Stats().PrefetchesIssued == 0 {
		t.Fatal("SRP should have issued prefetches")
	}
	// A neighboring block is an L2 hit (prefetched), not an L1 hit.
	d := ms.Load(0, 0x10040, isa.HintNone, isa.FixedRegion, d1+30000)
	if got := d - (d1 + 30000); got != 15 {
		t.Errorf("prefetched block latency = %d, want 15 (L2 hit)", got)
	}
}

func TestPrefetchLateMerge(t *testing.T) {
	ms := newSys(prefetch.NewSRP())
	d1 := ms.Load(0, 0x20000, isa.HintNone, isa.FixedRegion, 100)
	ms.Advance(d1 + 50) // prefetches issued, still in flight
	if ms.Stats().PrefetchesIssued == 0 {
		t.Skip("no prefetch issued in window")
	}
	before := ms.Stats().PrefetchLates
	// Demand the next block immediately: merges with in-flight prefetch.
	ms.Load(0, 0x20040, isa.HintNone, isa.FixedRegion, d1+60)
	if ms.Stats().PrefetchLates <= before && ms.L2.Stats().UsefulPrefetches == 0 {
		t.Error("expected a late-prefetch merge or a useful prefetch")
	}
}

func TestPerfectL2NeverBeaten(t *testing.T) {
	// The same access sequence under SRP must never finish a demand access
	// earlier than the perfect L2 would.
	cfg := DefaultMemConfig()
	cfg.L2.Perfect = true
	perfect, _ := NewMemSystem(cfg, prefetch.NewNull())
	srp := newSys(prefetch.NewSRP())

	addrs := []uint64{0x1000, 0x1040, 0x1080, 0x2000, 0x1000, 0x3000, 0x1040}
	now := uint64(100)
	for _, a := range addrs {
		dp := perfect.Load(0, a, isa.HintSpatial, isa.FixedRegion, now)
		ds := srp.Load(0, a, isa.HintSpatial, isa.FixedRegion, now)
		if ds < dp {
			t.Errorf("addr %#x: srp done %d before perfect %d", a, ds, dp)
		}
		now += 500
	}
}

func TestStoreWriteAllocate(t *testing.T) {
	ms := newSys(prefetch.NewNull())
	d := ms.Store(0, 0x5000, 100)
	if d <= 103 {
		t.Fatal("store miss should go to memory")
	}
	ms.Advance(d + 100)
	// Dirty data eventually written back when evicted from L1 and L2.
	if ms.Stats().Stores != 1 {
		t.Errorf("stores = %d", ms.Stats().Stores)
	}
}

func TestDrainLandsEverything(t *testing.T) {
	ms := newSys(prefetch.NewSRP())
	ms.Load(0, 0x30000, isa.HintNone, isa.FixedRegion, 100)
	ms.Drain()
	if ms.arrivals.len() != 0 || ms.inflight.Len() != 0 {
		t.Errorf("drain left %d arrivals, %d inflight", ms.arrivals.len(), ms.inflight.Len())
	}
}

func TestPrioritizerHoldsWhenBusy(t *testing.T) {
	// With the prioritizer on, traffic is throttled by channel idleness;
	// with it off the same engine issues at least as many prefetches.
	run := func(on bool) uint64 {
		ms := newSys(prefetch.NewSRP())
		ms.SetPrioritizer(on)
		now := uint64(100)
		for i := 0; i < 64; i++ {
			d := ms.Load(0, uint64(0x40000+i*4096), isa.HintNone, isa.FixedRegion, now)
			now = d + 1
		}
		ms.Drain()
		return ms.Stats().PrefetchesIssued
	}
	onCount, offCount := run(true), run(false)
	if onCount == 0 || offCount == 0 {
		t.Fatalf("prefetches: on=%d off=%d", onCount, offCount)
	}
	if offCount < onCount {
		t.Errorf("disabling the prioritizer should not reduce issue: on=%d off=%d", onCount, offCount)
	}
}

func TestSetBoundAndIndirectForwarded(t *testing.T) {
	eng := &recordingEngine{}
	ms, _ := NewMemSystem(DefaultMemConfig(), eng)
	ms.SetBound(42)
	ms.Indirect(0x100, 0x200, 3)
	if eng.bound != 42 || eng.indirect != 1 {
		t.Errorf("engine saw bound=%d indirect=%d", eng.bound, eng.indirect)
	}
}

type recordingEngine struct {
	prefetch.Null
	bound    uint64
	indirect int
}

func (r *recordingEngine) SetBound(v uint64)            { r.bound = v }
func (r *recordingEngine) Indirect(_, _ uint64, _ uint) { r.indirect++ }

func TestMonotonicClamp(t *testing.T) {
	ms := newSys(prefetch.NewNull())
	ms.Load(0, 0x6000, isa.HintNone, isa.FixedRegion, 1000)
	// An out-of-order earlier submission is clamped, not time-traveled.
	d := ms.Load(0, 0x7000, isa.HintNone, isa.FixedRegion, 500)
	if d < 1000 {
		t.Errorf("clamped access done=%d, should not precede clamp point", d)
	}
}

func TestOpenPageFirstConfig(t *testing.T) {
	cfg := DefaultMemConfig()
	cfg.OpenPageFirst = true
	ms, _ := NewMemSystem(cfg, prefetch.NewSRP())
	d := ms.Load(0, 0x50000, isa.HintNone, isa.FixedRegion, 100)
	ms.Advance(d + 50000)
	ms.Drain()
	if ms.Stats().PrefetchesIssued == 0 {
		t.Error("open-page-first path should still issue prefetches")
	}
}

func TestSoftwarePrefetchPath(t *testing.T) {
	ms := newSys(prefetch.NewNull())
	ms.SoftwarePrefetch(0x9000, 100)
	if ms.Stats().SWPrefetches != 1 {
		t.Fatalf("SWPrefetches = %d", ms.Stats().SWPrefetches)
	}
	// Duplicate while in flight: dropped.
	ms.SoftwarePrefetch(0x9000, 110)
	if ms.Stats().SWPrefetchDrops != 1 {
		t.Errorf("SWPrefetchDrops = %d", ms.Stats().SWPrefetchDrops)
	}
	ms.Drain()
	// Now cached: dropped again.
	ms.SoftwarePrefetch(0x9010, 1e6)
	if ms.Stats().SWPrefetchDrops != 2 {
		t.Errorf("SWPrefetchDrops = %d", ms.Stats().SWPrefetchDrops)
	}
	// And a demand access hits the prefetched line in the L2.
	d := ms.Load(0, 0x9000, isa.HintNone, isa.FixedRegion, 2e6)
	if d != 2e6+15 {
		t.Errorf("prefetched block latency = %d, want 15", d-2e6)
	}
	if ms.L2.Stats().UsefulPrefetches != 1 {
		t.Errorf("software prefetch should count as useful: %+v", ms.L2.Stats())
	}
}

// TestHotPathSteadyStateAllocs is the allocation gate, timing-independent
// so it runs in every tier. It drives a warmed memory system through a
// fixed working set (demand misses, L2 hits, prefetch traffic, arrival
// drain), detached and with the attribution ledger attached, and wants
// zero heap allocations per pass: the pool recycles in-flight lines, the
// arrival array keeps its capacity, and the open-addressed tables and the
// ledger's slab stop growing once the working set is resident.
func TestHotPathSteadyStateAllocs(t *testing.T) {
	for _, ledger := range []string{"detached", "attached"} {
		t.Run(ledger, func(t *testing.T) {
			ms := newSys(prefetch.NewSRP())
			if ledger == "attached" {
				ms.AttachLedger(attrib.NewLedger())
			}
			now := uint64(1000)
			drive := func() {
				for i := 0; i < 256; i++ {
					addr := uint64(0x40000000 + (i%1024)*512)
					if done := ms.Load(uint64(i), addr, isa.HintNone, 0, now); done > now {
						now = done
					}
					now++
				}
				ms.Drain()
			}
			drive() // warm: grow the pool, tables, queue capacity and slab
			drive()
			if allocs := testing.AllocsPerRun(100, drive); allocs != 0 {
				t.Fatalf("steady-state hot path allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}
