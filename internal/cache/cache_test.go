package cache

import (
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{
		Name: "t", SizeBytes: 4096, Assoc: 4, BlockBytes: 64,
		HitLatency: 3, MSHRs: 4,
	} // 16 sets
}

func TestValidateConfig(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "nonpow2block", SizeBytes: 4096, Assoc: 4, BlockBytes: 48},
		{Name: "nonpow2sets", SizeBytes: 3 * 64 * 4, Assoc: 4, BlockBytes: 64},
		{Name: "negmshr", SizeBytes: 4096, Assoc: 4, BlockBytes: 64, MSHRs: -1},
		{Name: "huge", SizeBytes: 64 << 30, Assoc: 8, BlockBytes: 64},
		{Name: "double", SizeBytes: maxSizeBytes * 2, Assoc: 8, BlockBytes: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.Name)
		}
	}
	for _, c := range []Config{testConfig(), {Name: "max", SizeBytes: maxSizeBytes, Assoc: 8, BlockBytes: 64}} {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %s rejected: %v", c.Name, err)
		}
	}
}

func TestHitMissFill(t *testing.T) {
	c := mustNew(t, testConfig())
	if hit, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold cache should miss")
	}
	c.Fill(0x1000, false, false)
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Fatal("filled block should hit")
	}
	if hit, _ := c.Access(0x1038, false); !hit {
		t.Fatal("same block different offset should hit")
	}
	if hit, _ := c.Access(0x1040, false); hit {
		t.Fatal("next block should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 || s.DemandFills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// addrForSet builds the i-th distinct block address mapping to the same set.
func addrForSet(c *Cache, set, i int) uint64 {
	return uint64(set)*64 + uint64(i)*uint64(c.NumSets())*64
}

func TestLRUReplacement(t *testing.T) {
	c := mustNew(t, testConfig()) // 4-way
	// Fill 4 ways of set 0.
	for i := 0; i < 4; i++ {
		c.Fill(addrForSet(c, 0, i), false, false)
	}
	// Touch block 0 so block 1 becomes LRU.
	c.Access(addrForSet(c, 0, 0), false)
	// Fill a 5th block: should evict block 1.
	v, evicted := c.Fill(addrForSet(c, 0, 4), false, false)
	if !evicted || v.Addr != addrForSet(c, 0, 1) {
		t.Errorf("evicted %+v (%v), want block 1", v, evicted)
	}
	if hit, _ := c.Access(addrForSet(c, 0, 1), false); hit {
		t.Error("evicted block should miss")
	}
	if hit, _ := c.Access(addrForSet(c, 0, 0), false); !hit {
		t.Error("MRU block should still hit")
	}
}

func TestPrefetchInsertsAtLRU(t *testing.T) {
	c := mustNew(t, testConfig())
	// Fill 4 demand blocks.
	for i := 0; i < 4; i++ {
		c.Fill(addrForSet(c, 0, i), false, false)
	}
	// A prefetch fill replaces the LRU (block 0) and sits at LRU itself.
	v, ev := c.Fill(addrForSet(c, 0, 10), true, false)
	if !ev || v.Addr != addrForSet(c, 0, 0) {
		t.Fatalf("prefetch should evict current LRU, got %+v", v)
	}
	// A second prefetch replaces the first prefetch, not another demand
	// block: useless prefetches displace at most one way (Sec. 3.1).
	v, ev = c.Fill(addrForSet(c, 0, 11), true, false)
	if !ev || v.Addr != addrForSet(c, 0, 10) {
		t.Fatalf("second prefetch should evict first, got %+v", v)
	}
	if c.Stats().UselessPrefetches != 1 {
		t.Errorf("UselessPrefetches = %d, want 1", c.Stats().UselessPrefetches)
	}
	// Demand blocks 1..3 all survive.
	for i := 1; i < 4; i++ {
		if hit, _ := c.Access(addrForSet(c, 0, i), false); !hit {
			t.Errorf("demand block %d was displaced by prefetches", i)
		}
	}
}

func TestPrefetchPromotionOnDemandHit(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Fill(0x2000, true, false)
	hit, wasPF := c.Access(0x2000, false)
	if !hit || !wasPF {
		t.Fatalf("demand hit on prefetched line: hit=%v wasPF=%v", hit, wasPF)
	}
	if c.Stats().UsefulPrefetches != 1 {
		t.Errorf("UsefulPrefetches = %d, want 1", c.Stats().UsefulPrefetches)
	}
	// The second hit is an ordinary hit.
	if _, wasPF := c.Access(0x2000, false); wasPF {
		t.Error("promotion should clear the prefetched mark")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Fill(addrForSet(c, 3, 0), false, true) // dirty fill
	for i := 1; i <= 4; i++ {
		c.Fill(addrForSet(c, 3, i), false, false)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteSetsDirty(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Fill(addrForSet(c, 2, 0), false, false)
	c.Access(addrForSet(c, 2, 0), true) // write hit dirties the line
	for i := 1; i <= 4; i++ {
		c.Fill(addrForSet(c, 2, i), false, false)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestMarkDirty(t *testing.T) {
	c := mustNew(t, testConfig())
	if c.MarkDirty(0x3000) {
		t.Error("MarkDirty on absent block should report false")
	}
	c.Fill(0x3000, false, false)
	if !c.MarkDirty(0x3000) {
		t.Error("MarkDirty on present block should report true")
	}
	// Eviction must now write back.
	for i := 1; i <= 4; i++ {
		c.Fill(0x3000+uint64(i)*uint64(c.NumSets())*64, false, false)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, testConfig())
	c.Fill(0x4000, false, true)
	dirty, present := c.Invalidate(0x4000)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want dirty present", dirty, present)
	}
	if hit, _ := c.Access(0x4000, false); hit {
		t.Error("invalidated block should miss")
	}
	if _, present := c.Invalidate(0x9999000); present {
		t.Error("invalidate of absent block should report absent")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := mustNew(t, testConfig())
	for i := 0; i < 4; i++ {
		c.Fill(addrForSet(c, 1, i), false, false)
	}
	before := c.Stats()
	if !c.Contains(addrForSet(c, 1, 0)) || c.Contains(addrForSet(c, 1, 9)) {
		t.Error("Contains wrong")
	}
	if c.Stats() != before {
		t.Error("Contains must not touch statistics")
	}
	// LRU order unchanged: fill evicts block 0 (still LRU).
	v, _ := c.Fill(addrForSet(c, 1, 5), false, false)
	if v.Addr != addrForSet(c, 1, 0) {
		t.Errorf("Contains perturbed LRU: evicted %#x", v.Addr)
	}
}

func TestPerfectCache(t *testing.T) {
	cfg := testConfig()
	cfg.Perfect = true
	c := mustNew(t, cfg)
	if hit, _ := c.Access(0xabcdef, false); !hit {
		t.Error("perfect cache must always hit")
	}
	if !c.Contains(0x123456) {
		t.Error("perfect cache contains everything")
	}
	if _, ev := c.Fill(0x1, false, false); ev {
		t.Error("perfect cache fills are no-ops")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty miss rate should be 0")
	}
	s.Accesses, s.Misses = 200, 50
	if got := s.MissRate(); got != 25 {
		t.Errorf("MissRate = %v, want 25", got)
	}
}

// TestQuickFillThenContains: any filled block is Contains-visible until
// evicted; eviction victims are reconstructed correctly.
func TestQuickFillThenContains(t *testing.T) {
	c := mustNew(t, testConfig())
	live := map[uint64]bool{}
	f := func(blockSeed uint16, prefetch bool) bool {
		addr := uint64(blockSeed) * 64
		v, ev := c.Fill(addr, prefetch, false)
		live[addr&^63] = true
		if ev {
			delete(live, v.Addr)
		}
		if !c.Contains(addr) {
			return false
		}
		if ev && c.Contains(v.Addr) && v.Addr != addr&^63 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	// Everything the model says is live must be present.
	for a := range live {
		if !c.Contains(a) {
			t.Errorf("block %#x should be cached", a)
		}
	}
}

func TestMSHRFile(t *testing.T) {
	m := NewMSHRFile(2)
	s1, i1 := m.Reserve(100)
	if s1 != 100 {
		t.Errorf("first reserve at %d, want 100", s1)
	}
	m.Complete(i1, 300)
	s2, i2 := m.Reserve(110)
	if s2 != 110 {
		t.Errorf("second reserve at %d, want 110", s2)
	}
	m.Complete(i2, 400)
	// Both slots busy: next reserve waits for the earliest completion.
	s3, i3 := m.Reserve(120)
	if s3 != 300 {
		t.Errorf("third reserve at %d, want 300", s3)
	}
	m.Complete(i3, 500)
	if m.Peak() != 2 {
		t.Errorf("Peak = %d, want 2", m.Peak())
	}
}

func TestMSHRFileUnlimited(t *testing.T) {
	m := NewMSHRFile(0)
	s, idx := m.Reserve(42)
	if s != 42 || idx != -1 {
		t.Errorf("unlimited MSHR reserve = (%d,%d)", s, idx)
	}
	m.Complete(idx, 100) // no-op, must not panic
}

func TestPrefetchInsertMRUAblation(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchInsertMRU = true
	c := mustNew(t, cfg)
	for i := 0; i < 4; i++ {
		c.Fill(addrForSet(c, 0, i), false, false)
	}
	// With MRU insertion, a second prefetch no longer replaces the first:
	// it evicts another demand block instead (the pollution the paper's
	// LRU insertion avoids).
	c.Fill(addrForSet(c, 0, 10), true, false)
	v, ev := c.Fill(addrForSet(c, 0, 11), true, false)
	if !ev || v.Addr == addrForSet(c, 0, 10) {
		t.Errorf("MRU-inserted prefetches should displace demand data, evicted %#x", v.Addr)
	}
}

// mustNew builds a cache from a config the test knows is valid.
func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFillTracked pins the no-op detection and the victim's prefetched
// mark, the two signals the attribution ledger consumes.
func TestFillTracked(t *testing.T) {
	c, _ := New(testConfig())

	if _, _, filled := c.FillTracked(0x1000, true, false, -1); !filled {
		t.Fatal("first fill reported as no-op")
	}
	if _, _, filled := c.FillTracked(0x1000, true, false, -1); filled {
		t.Fatal("refill of a present block not reported as no-op")
	}

	// The prefetch sits in the LRU slot, so the next fill to the same set
	// (16 sets: +0x400 aliases) victimizes it while still marked.
	v, evicted, filled := c.FillTracked(0x1400, false, false, -1)
	if !filled {
		t.Fatal("demand fill reported as no-op")
	}
	if !evicted || v.Addr != 0x1000 {
		t.Fatalf("evicted=%v victim=%#x, want the LRU prefetch 0x1000", evicted, v.Addr)
	}
	if !v.Prefetched {
		t.Fatal("untouched prefetched victim lost its mark")
	}

	// A demand-referenced prefetch loses the mark before eviction.
	c2, _ := New(testConfig())
	c2.Fill(0x2000, true, false)
	c2.Access(0x2000, false)
	for i := 1; i <= 4; i++ {
		if v, evicted, _ := c2.FillTracked(uint64(0x2000+i*0x400), false, false, -1); evicted {
			if v.Addr == 0x2000 && v.Prefetched {
				t.Fatal("demand-referenced prefetch victim still marked prefetched")
			}
		}
	}
}

// TestPrefetchToken: a prefetch fill's token comes back exactly once, at
// the first demand reference or in the victim when evicted untouched.
func TestPrefetchToken(t *testing.T) {
	c, _ := New(testConfig())
	c.FillTracked(0x1040, true, false, 7)
	c.FillTracked(0x2000, true, false, 9)
	if hit, wasPF, tok := c.AccessTracked(0x1040, false); !hit || !wasPF || tok != 7 {
		t.Fatalf("first reference = (%v, %v, %d), want (true, true, 7)", hit, wasPF, tok)
	}
	if hit, wasPF, tok := c.AccessTracked(0x1040, false); !hit || wasPF || tok != -1 {
		t.Fatalf("second reference = (%v, %v, %d), want (true, false, -1)", hit, wasPF, tok)
	}
	// 16 sets: +0x400 aliases 0x2000's set; the prefetch sits at LRU.
	v, evicted, _ := c.FillTracked(0x2400, false, false, -1)
	if !evicted || v.Addr != 0x2000 || !v.Prefetched || v.Token != 9 {
		t.Fatalf("victim = %+v (evicted %v), want the untouched prefetch 0x2000 with token 9", v, evicted)
	}
}

// TestPerfectFillTracked: a perfect cache never fills.
func TestPerfectFillTracked(t *testing.T) {
	cfg := testConfig()
	cfg.Perfect = true
	c, _ := New(cfg)
	if _, evicted, filled := c.FillTracked(0x1000, true, false, -1); evicted || filled {
		t.Fatal("perfect cache filled")
	}
}
