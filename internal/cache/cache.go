// Package cache implements the set-associative cache model used for both
// levels of the simulated hierarchy, including the two SRP/GRP-specific
// mechanisms from the paper: prefetched lines are inserted at the LRU
// position of their set (so useless prefetches can displace at most 1/n of
// the useful data in an n-way cache, Section 3.1), and a line is promoted
// to MRU only when the CPU references it explicitly.
package cache

import (
	"fmt"
	"strings"

	"grp/internal/metrics"
)

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	BlockBytes int
	HitLatency uint64 // cycles
	MSHRs      int    // outstanding misses supported

	// Perfect makes every access hit; used for the perfect-L1/L2 bars of
	// the paper's Figure 1.
	Perfect bool

	// PrefetchInsertMRU places prefetch fills at the MRU position instead
	// of the paper's LRU insertion — an ablation knob quantifying how much
	// the low-priority replacement policy protects demand data.
	PrefetchInsertMRU bool
}

// maxSizeBytes bounds a cache's capacity at 64 times the paper's 1 MB L2.
// New allocates a line record per block up front, so an unbounded size
// from a sweep axis could exhaust the host before the cell starts.
const maxSizeBytes = 64 << 20

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 {
		return fmt.Errorf("cache %s: nonpositive geometry", c.Name)
	}
	if c.SizeBytes > maxSizeBytes {
		return fmt.Errorf("cache %s: size %d above %d bytes", c.Name, c.SizeBytes, maxSizeBytes)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	sets := c.SizeBytes / (c.Assoc * c.BlockBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a positive power of two", c.Name, sets)
	}
	if c.MSHRs < 0 {
		return fmt.Errorf("cache %s: negative MSHR count", c.Name)
	}
	return nil
}

// Stats accumulates cache event counts.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64

	DemandFills   uint64
	PrefetchFills uint64

	// UsefulPrefetches counts prefetched lines later referenced by a
	// demand access; UselessPrefetches counts prefetched lines evicted
	// untouched. Accuracy (paper Table 5) = useful / issued prefetches.
	UsefulPrefetches  uint64
	UselessPrefetches uint64

	Writebacks uint64
}

// MissRate returns misses/accesses in percent.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return 100 * float64(s.Misses) / float64(s.Accesses)
}

// line is 16 bytes: the tag leads so the flags pack behind the token
// instead of padding the struct out to 24, and LRU promotion copies less.
type line struct {
	tag        uint64
	token      int32 // the caller's token for a prefetched line (see FillTracked)
	valid      bool
	dirty      bool
	prefetched bool // filled by a prefetch and not yet demand-referenced
}

// Cache is a set-associative write-back, write-allocate cache with true-LRU
// replacement. Each set is an ordered window of the flat line array,
// index 0 = MRU, index assoc-1 = LRU. Storing every set contiguously in
// one backing array (instead of a slice-of-slices) drops a pointer chase
// from every probe on the simulator's hot path and keeps neighbouring
// sets on shared cache lines of the host.
type Cache struct {
	cfg      Config
	lines    []line
	nsets    int
	setMask  uint64
	blkShift uint
	stats    Stats
}

// ways returns set's MRU→LRU window of the flat line array.
func (c *Cache) ways(set uint64) []line {
	lo := int(set) * c.cfg.Assoc
	return c.lines[lo : lo+c.cfg.Assoc : lo+c.cfg.Assoc]
}

// New builds a cache from cfg, or reports why the configuration is
// invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.Assoc * cfg.BlockBytes)
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, nsets*cfg.Assoc),
		nsets:   nsets,
		setMask: uint64(nsets - 1),
	}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.blkShift++
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// RegisterMetrics registers this cache's event counts as probe-backed
// gauges under "<name>." (the lowercased config name), so a registry
// snapshot taken at any point reports live cumulative state. It costs
// nothing on the access path: the probes read the stats struct only when
// sampled or snapshotted.
func (c *Cache) RegisterMetrics(reg *metrics.Registry) {
	p := strings.ToLower(c.cfg.Name) + "."
	reg.MustGauge(p+"accesses", func() float64 { return float64(c.stats.Accesses) })
	reg.MustGauge(p+"misses", func() float64 { return float64(c.stats.Misses) })
	reg.MustGauge(p+"miss_rate", func() float64 { return c.stats.MissRate() })
	reg.MustGauge(p+"demand_fills", func() float64 { return float64(c.stats.DemandFills) })
	reg.MustGauge(p+"prefetch_fills", func() float64 { return float64(c.stats.PrefetchFills) })
	reg.MustGauge(p+"useful_prefetches", func() float64 { return float64(c.stats.UsefulPrefetches) })
	reg.MustGauge(p+"useless_prefetches", func() float64 { return float64(c.stats.UselessPrefetches) })
	reg.MustGauge(p+"writebacks", func() float64 { return float64(c.stats.Writebacks) })
}

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// BlockAddr returns addr rounded down to its block base.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.BlockBytes-1)
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	b := addr >> c.blkShift
	// The tag keeps the set bits: it is the full block number. That wastes
	// a few simulated-tag bits but makes reconstructing victim addresses
	// trivial and cannot alias.
	return b & c.setMask, b
}

// Contains reports whether the block holding addr is present, without
// touching LRU state or statistics. The SRP engine uses it to initialize
// region bit vectors to "blocks not already present in the L2" (Sec. 3.1).
func (c *Cache) Contains(addr uint64) bool {
	if c.cfg.Perfect {
		return true
	}
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return true
		}
	}
	return false
}

// Access performs a demand access. On a hit the line moves to MRU (and a
// prefetched line is counted useful and loses its prefetched mark;
// wasPrefetched reports that case so stream-based prefetchers can advance).
// On a miss nothing is filled: the caller is responsible for calling Fill
// when the data returns, which lets fill timing be modeled.
func (c *Cache) Access(addr uint64, write bool) (hit, wasPrefetched bool) {
	hit, wasPrefetched, _ = c.AccessTracked(addr, write)
	return hit, wasPrefetched
}

// AccessTracked is Access that also returns, when wasPrefetched, the
// token the line's prefetch fill carried (see FillTracked).
func (c *Cache) AccessTracked(addr uint64, write bool) (hit, wasPrefetched bool, token int32) {
	c.stats.Accesses++
	if c.cfg.Perfect {
		c.stats.Hits++
		return true, false, -1
	}
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.stats.Hits++
			ln := ways[i]
			token = -1
			if ln.prefetched {
				c.stats.UsefulPrefetches++
				ln.prefetched = false
				wasPrefetched = true
				token = ln.token
			}
			if write {
				ln.dirty = true
			}
			// Promote to MRU.
			copy(ways[1:i+1], ways[:i])
			ways[0] = ln
			return true, wasPrefetched, token
		}
	}
	c.stats.Misses++
	return false, false, -1
}

// MarkDirty sets the dirty bit on the block containing addr if present,
// without touching LRU order or hit/miss statistics. It models a writeback
// from the level above landing in this cache. It reports whether the block
// was present.
func (c *Cache) MarkDirty(addr uint64) bool {
	if c.cfg.Perfect {
		return true
	}
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].dirty = true
			return true
		}
	}
	return false
}

// Victim describes a block evicted by Fill. Prefetched reports that the
// victim still carried its prefetched mark — it was filled by a prefetch
// and evicted without ever being demand-referenced — and Token is then
// the token that fill carried (see FillTracked).
type Victim struct {
	Addr       uint64
	Token      int32
	Dirty      bool
	Prefetched bool
}

// Fill inserts the block containing addr. Demand fills insert at MRU;
// prefetch fills insert at the LRU position. It returns the evicted block,
// if any. Filling a block already present is a no-op (it can happen when a
// demand fill races a prefetch fill; the line keeps its current state).
func (c *Cache) Fill(addr uint64, prefetch, dirty bool) (v Victim, evicted bool) {
	v, evicted, _ = c.FillTracked(addr, prefetch, dirty, -1)
	return v, evicted
}

// FillTracked is Fill with the no-op case made visible: filled is false
// when the block was already present and nothing changed. A prefetch fill
// also stores token on its line, and the cache hands the token back when
// the line loses its prefetched mark: from AccessTracked on the first
// demand reference, or in Victim.Token on eviction untouched. The
// attribution ledger uses both (a no-op prefetch fill is the redundant
// class, and the token is the prefetch's slot in the ledger); callers
// that need neither can keep using Fill.
func (c *Cache) FillTracked(addr uint64, prefetch, dirty bool, token int32) (v Victim, evicted, filled bool) {
	if c.cfg.Perfect {
		return Victim{}, false, false
	}
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			if dirty {
				ways[i].dirty = true
			}
			return Victim{}, false, false
		}
	}
	if prefetch {
		c.stats.PrefetchFills++
	} else {
		c.stats.DemandFills++
	}
	// The victim is always the current LRU line.
	lru := len(ways) - 1
	old := ways[lru]
	if old.valid {
		evicted = true
		v = Victim{Addr: c.reconstruct(set, old.tag), Token: old.token, Dirty: old.dirty, Prefetched: old.prefetched}
		if old.dirty {
			c.stats.Writebacks++
		}
		if old.prefetched {
			c.stats.UselessPrefetches++
		}
	}
	nl := line{tag: tag, token: token, valid: true, dirty: dirty, prefetched: prefetch}
	if prefetch && !c.cfg.PrefetchInsertMRU {
		// Insert at LRU: the new line replaces the old LRU in place, and
		// will itself be the next victim unless the CPU references it.
		ways[lru] = nl
	} else {
		copy(ways[1:], ways[:lru])
		ways[0] = nl
	}
	return v, evicted, true
}

// Invalidate drops the block containing addr if present, returning whether
// it was dirty. Used by tests and by writeback handling.
func (c *Cache) Invalidate(addr uint64) (wasDirty, wasPresent bool) {
	set, tag := c.index(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			wasDirty = ways[i].dirty
			if ways[i].prefetched {
				c.stats.UselessPrefetches++
			}
			// Compact toward MRU, leaving the hole at LRU.
			copy(ways[i:], ways[i+1:])
			ways[len(ways)-1] = line{}
			return wasDirty, true
		}
	}
	return false, false
}

func (c *Cache) reconstruct(_, tag uint64) uint64 {
	// index() keeps the set bits inside the tag (the tag is the full block
	// number), so the tag alone reconstructs the block address.
	return tag << c.blkShift
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.nsets }

// WaysOf returns the block addresses currently valid in addr's set, MRU
// first. Intended for tests and debugging.
func (c *Cache) WaysOf(addr uint64) []uint64 {
	set, _ := c.index(addr)
	var out []uint64
	for _, w := range c.ways(set) {
		if w.valid {
			out = append(out, c.reconstruct(set, w.tag))
		}
	}
	return out
}
