// Package sim wires the simulated system together: out-of-order cores
// drive a two-level cache hierarchy whose L2 misses go to a multi-channel
// DRAM controller through the SRP/GRP access prioritizer, with a pluggable
// prefetch engine filling the L2 behind demand traffic (paper Figure 2).
//
// The hierarchy has one timing engine, CoRunSystem: N cores, each with a
// private L1, prefetch engine and L2 MSHR partition behind its CorePort,
// over one shared L2 and DRAM controller. A single-core run is the
// one-core case, and MemSystem is that system seen through its only port.
//
// No second engine referees its timing. Relations do, each with a
// known-bad self-test: under a perfect L2 a core must take the cycles it
// takes over an ideal port (a private L1 with fixed hit latencies), a
// core beside an idle co-runner must match its solo run, and a prefetch
// engine that observes everything but never issues must match none (see
// internal/conformance and internal/core). The golden and whole-Result
// snapshots pin the rest.
package sim

import (
	"grp/internal/cache"
	"grp/internal/dram"
	"grp/internal/prefetch"
)

// MemConfig describes the memory hierarchy.
type MemConfig struct {
	L1   cache.Config
	L2   cache.Config
	DRAM dram.Config

	// MaxInflightPrefetches bounds prefetch requests concurrently issued
	// to the memory controller.
	MaxInflightPrefetches int

	// OpenPageFirst lets the prefetch queue issue candidates whose DRAM
	// row is already open ahead of index order (the paper's final SRP
	// optimization), when the engine supports it.
	OpenPageFirst bool
}

// DefaultMemConfig returns the paper's Section 5.1 configuration: 64 KB
// 2-way L1 (3 cycles), 1 MB 4-way unified L2 (12 cycles), 64-byte blocks,
// 8 MSHRs per cache, 4-channel DRAM.
func DefaultMemConfig() MemConfig {
	return MemConfig{
		L1: cache.Config{
			Name: "L1D", SizeBytes: 64 << 10, Assoc: 2, BlockBytes: 64,
			HitLatency: 3, MSHRs: 8,
		},
		L2: cache.Config{
			Name: "L2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64,
			HitLatency: 12, MSHRs: 8,
		},
		DRAM:                  dram.Default(),
		MaxInflightPrefetches: 8,
	}
}

// MemStats aggregates hierarchy-level events beyond the per-cache stats.
type MemStats struct {
	Loads  uint64
	Stores uint64
	// InflightMerges counts demand accesses that merged with an
	// outstanding miss (partial hits on in-flight prefetches included).
	InflightMerges uint64
	// PrefetchLates counts demand merges with an in-flight *prefetch*:
	// the prefetch was correct but not timely.
	PrefetchLates uint64
	// PrefetchesIssued counts prefetch blocks sent to the controller.
	PrefetchesIssued uint64
	// SWPrefetches counts software PREF instructions that reached memory
	// (misses; hits and duplicates are dropped, as real PREFs are).
	SWPrefetches uint64
	// SWPrefetchDrops counts PREFs dropped because the block was already
	// cached or in flight.
	SWPrefetchDrops uint64
	// PrioritizerHolds counts prefetch candidates parked in the access
	// prioritizer's holding register because no channel went idle inside
	// the pump window.
	PrioritizerHolds uint64
	// PrefetchesCancelled counts in-flight prefetches cancelled by fault
	// injection before their data landed.
	PrefetchesCancelled uint64
}

type inflightLine struct {
	block  uint64
	doneAt uint64
	// seq is the issue sequence number: arrivals sharing a doneAt drain in
	// FIFO issue order. The tie-break is explicit so the arrival queue's
	// data structure can change without silently reordering same-cycle
	// fills (fill order decides L2 LRU state and OnArrival scan order).
	seq      uint64
	prefetch bool
	// merged marks a prefetch a demand access has since merged with: the
	// demand's completion depends on doneAt, so the line is no longer
	// cancellable.
	merged bool
	// cancelled marks a fault-cancelled prefetch: it has already been
	// removed from the inflight table and the pump skips its arrival.
	cancelled bool
	// attribIdx is the attribution ledger's slab index for this prefetch
	// (-1 when no ledger is attached or the line is a demand fetch); it
	// keys the ledger's in-flight events without a block lookup, and the
	// fill hands it to the L2 as the line's token for the resident phase.
	attribIdx int32
}

// MemSystem is the memory hierarchy of a single core: a one-core
// CoRunSystem together with its only port. It owns no timing state; the
// two embedded types share no field or method name, so it offers both
// method sets — cpu.MemoryTiming, the watchdog hooks, Stats and the
// ledger from the port; the instruments, Advance, Drain, CheckInvariants
// and DiagnosticDump from the system — and the L1, L2, Dram and Engine
// fields.
type MemSystem struct {
	*CorePort
	*CoRunSystem
}

// NewMemSystem builds the single-core hierarchy with the given prefetch
// engine, or reports why a cache or DRAM configuration is invalid.
func NewMemSystem(cfg MemConfig, engine prefetch.Engine) (*MemSystem, error) {
	cs, err := NewCoRunSystem(cfg, []prefetch.Engine{engine})
	if err != nil {
		return nil, err
	}
	return &MemSystem{CorePort: cs.ports[0], CoRunSystem: cs}, nil
}
