// Package sim wires the simulated system together: the out-of-order core
// drives a two-level cache hierarchy whose L2 misses go to a multi-channel
// DRAM controller through the SRP/GRP access prioritizer, with a pluggable
// prefetch engine filling the L2 behind demand traffic (paper Figure 2).
package sim

import (
	"fmt"
	"strings"

	"grp/internal/attrib"
	"grp/internal/cache"
	"grp/internal/dram"
	"grp/internal/faults"
	"grp/internal/isa"
	"grp/internal/metrics"
	"grp/internal/oamap"
	"grp/internal/prefetch"
	"grp/internal/trace"
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
	// removed from the inflight map and the pump skips its arrival.
	cancelled bool
	// attribIdx is the attribution ledger's slab index for this prefetch
	// (-1 when no ledger is attached or the line is a demand fetch); it
	// keys the ledger's in-flight events without a block lookup, and the
	// fill hands it to the L2 as the line's token for the resident phase.
	attribIdx int32
}

type arrivalHeap []*inflightLine

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].doneAt != h[j].doneAt {
		return h[i].doneAt < h[j].doneAt
	}
	return h[i].seq < h[j].seq
}
func (h arrivalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x interface{}) { *h = append(*h, x.(*inflightLine)) }
func (h *arrivalHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// MemSystem is the full memory hierarchy with prefetching.
type MemSystem struct {
	cfg    MemConfig
	L1     *cache.Cache
	L2     *cache.Cache
	Dram   *dram.Controller
	Engine prefetch.Engine

	l2MSHR *cache.MSHRFile

	// In-flight lines live in a slab pool and are addressed by index; the
	// block → index table is open-addressed and the arrival queue is a
	// bucketed calendar queue (see queue.go). Together they replace the
	// legacy map + container/heap pair with allocation-free structures.
	pool     linePool
	inflight *oamap.I32
	arrivals calendarQueue

	// presentFn/rowOpenFn are ms.present and ms.Dram.RowOpen bound once:
	// passing the method values inline would allocate a closure on every
	// prefetch-pump iteration.
	presentFn func(uint64) bool
	rowOpenFn func(uint64) bool

	cursor      uint64 // prefetch pump has run up to this cycle
	inflightPF  int
	lastSubmit  uint64 // monotonic clamp for request submission times
	nextSeq     uint64 // issue sequence numbers for arrival tie-breaking
	stats       MemStats
	prioritizer bool // issue prefetches only into idle channels

	// held is a popped prefetch candidate waiting for an idle channel (the
	// prioritizer's holding register); heldValid marks it live.
	held      uint64
	heldValid bool

	// Telemetry sinks; all nil when no telemetry is attached, so the hot
	// path pays one predictable branch per sink and nothing else.
	sampler    *metrics.Sampler
	timeline   *trace.Timeline
	ledger     *attrib.Ledger     // prefetch lifecycle attribution
	histDemand *metrics.Histogram // demand L2-miss service latency
	histPF     *metrics.Histogram // prefetch issue→fill latency

	// Robustness layer; all optional and nil/false by default.
	faults    *faults.Injector
	watchdog  *Watchdog
	checkInv  bool
	checkGap  uint64 // accesses between periodic invariant checks
	sinceInv  uint64
	cancelled int // cancelled entries still parked in the arrivals heap

	// fillTamper, when non-nil, is invoked with the block address of every
	// prefetch fill the moment it lands in the L2. It exists solely for the
	// conformance harness's known-bad self-test: a tamperer that corrupts
	// the block's backing data models a broken prefetch data path, which the
	// differential harness must catch. Never set outside tests.
	fillTamper func(block uint64)
}

// Histogram and series names the hierarchy registers; exported so drivers
// and tests can look them up in a metrics snapshot.
const (
	HistDemandMissLatency = "mem.demand_miss_latency"
	HistPrefetchLatency   = "mem.prefetch_latency"
	SeriesL2MissRate      = "l2.miss_rate"
	SeriesPFQueueOcc      = "pf.queue_occupancy"
	SeriesMSHROcc         = "mshr.l2.occupancy"
	SeriesDramUtil        = "dram.utilization"
	SeriesInflightPF      = "mem.inflight_prefetches"
)

// AttachTelemetry connects the hierarchy to the telemetry layer. Any of
// the sinks may be nil: a registry alone gives end-of-run counters and
// latency histograms, a sampler adds the cycle-driven time series, and a
// timeline records per-event spans for Perfetto export. Call it once,
// before simulation starts.
func (ms *MemSystem) AttachTelemetry(reg *metrics.Registry, smp *metrics.Sampler, tl *trace.Timeline) {
	ms.sampler = smp
	ms.timeline = tl
	clock := func() uint64 { return ms.cursor }

	if reg != nil {
		ms.L1.RegisterMetrics(reg)
		ms.L2.RegisterMetrics(reg)
		ms.Dram.RegisterMetrics(reg, clock)
		reg.MustGauge("mem.loads", func() float64 { return float64(ms.stats.Loads) })
		reg.MustGauge("mem.stores", func() float64 { return float64(ms.stats.Stores) })
		reg.MustGauge("mem.inflight_merges", func() float64 { return float64(ms.stats.InflightMerges) })
		reg.MustGauge("mem.prefetch_lates", func() float64 { return float64(ms.stats.PrefetchLates) })
		reg.MustGauge("mem.prefetches_issued", func() float64 { return float64(ms.stats.PrefetchesIssued) })
		reg.MustGauge("mem.sw_prefetches", func() float64 { return float64(ms.stats.SWPrefetches) })
		reg.MustGauge("mem.prioritizer_holds", func() float64 { return float64(ms.stats.PrioritizerHolds) })
		reg.MustGauge(SeriesInflightPF, func() float64 { return float64(ms.inflightPF) })
		reg.MustGauge(SeriesMSHROcc, func() float64 { return float64(ms.l2MSHR.BusyAt(ms.cursor)) })
		if ql, ok := ms.Engine.(prefetch.QueueLenner); ok {
			reg.MustGauge(SeriesPFQueueOcc, func() float64 { return float64(ql.QueueLen()) })
		}
		// Latency buckets: 16 cycles up to ~170k, covering an L2 hit floor
		// through heavy queueing; the memory round trip is ~160-220.
		bounds := metrics.ExponentialBuckets(16, 1.5, 24)
		ms.histDemand = reg.MustHistogram(HistDemandMissLatency, bounds)
		ms.histPF = reg.MustHistogram(HistPrefetchLatency, bounds)
	}

	if smp != nil {
		smp.Watch(SeriesL2MissRate, func() float64 { return ms.L2.Stats().MissRate() })
		if ql, ok := ms.Engine.(prefetch.QueueLenner); ok {
			smp.Watch(SeriesPFQueueOcc, func() float64 { return float64(ql.QueueLen()) })
		}
		smp.Watch(SeriesMSHROcc, func() float64 { return float64(ms.l2MSHR.BusyAt(ms.cursor)) })
		smp.Watch(SeriesDramUtil, func() float64 {
			now := clock()
			var sum float64
			for ch := 0; ch < ms.cfg.DRAM.Channels; ch++ {
				sum += ms.Dram.Utilization(ch, now)
			}
			return sum / float64(ms.cfg.DRAM.Channels)
		})
		for ch := 0; ch < ms.cfg.DRAM.Channels; ch++ {
			ch := ch
			smp.Watch(fmt.Sprintf("dram.chan%d.utilization", ch), func() float64 {
				return ms.Dram.Utilization(ch, clock())
			})
		}
		smp.Watch(SeriesInflightPF, func() float64 { return float64(ms.inflightPF) })
	}

	if tl != nil {
		ms.Dram.SetSubmitHook(func(ch, bk int, kind dram.Kind, start, busyUntil uint64, rowHit bool) {
			tl.BankBusy(ch, bk, start, busyUntil, rowHit, kind.String())
		})
	}
}

// AttachLedger connects a prefetch lifecycle attribution ledger. Like the
// other telemetry sinks it is optional: a nil (or never-attached) ledger
// costs the hot path one predictable branch per event, nothing else. Call
// it once, before simulation starts.
func (ms *MemSystem) AttachLedger(l *attrib.Ledger) { ms.ledger = l }

// Ledger returns the attached attribution ledger (nil when detached).
func (ms *MemSystem) Ledger() *attrib.Ledger { return ms.ledger }

// NewMemSystem builds the hierarchy with the given prefetch engine, or
// reports why a cache or DRAM configuration is invalid.
func NewMemSystem(cfg MemConfig, engine prefetch.Engine) (*MemSystem, error) {
	if cfg.MaxInflightPrefetches <= 0 {
		cfg.MaxInflightPrefetches = 8
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	dc, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	ms := &MemSystem{
		cfg:         cfg,
		L1:          l1,
		L2:          l2,
		Dram:        dc,
		Engine:      engine,
		l2MSHR:      cache.NewMSHRFile(cfg.L2.MSHRs),
		inflight:    oamap.NewI32(),
		prioritizer: true,
	}
	ms.arrivals.pool = &ms.pool
	ms.presentFn = ms.present
	ms.rowOpenFn = ms.Dram.RowOpen
	return ms, nil
}

// SetFaults arms fault injection on every hook point of the hierarchy:
// the DRAM controller (channel degradation, stuck banks), the L2 MSHR
// file (slot pressure), the prefetch engine (dropped issues, corrupted
// hints, truncated regions — ms.Engine is wrapped in place), and the pump
// itself (cancelled in-flight prefetches, delayed fills). Call it once,
// right after NewMemSystem and before AttachTelemetry, so telemetry
// observes the wrapped engine. A nil injector is a no-op.
func (ms *MemSystem) SetFaults(inj *faults.Injector) {
	if inj == nil {
		return
	}
	ms.faults = inj
	ms.Engine = prefetch.WithFaults(ms.Engine, inj)
	ms.Dram.SetFaultHook(func(dram.Kind) (uint64, uint64) { return inj.DramFault() })
	ms.l2MSHR.SetPressure(inj.StolenSlots(ms.l2MSHR.Size()))
}

// FaultCounts reports the faults injected so far (zero when no fault plan
// is armed). The cancelled count lives in MemStats.PrefetchesCancelled.
func (ms *MemSystem) FaultCounts() faults.Counts {
	if ms.faults == nil {
		return faults.Counts{}
	}
	return ms.faults.Counts()
}

// SetWatchdog arms the forward-progress watchdog. Zero config fields take
// the package defaults. The watchdog aborts the run via a *LivelockError
// panic (see RecoverAbort). Arm it before the core starts its run: the
// core asks for the stall window once, at start.
func (ms *MemSystem) SetWatchdog(cfg WatchdogConfig) *Watchdog {
	ms.watchdog = newWatchdog(cfg)
	return ms.watchdog
}

// EnableInvariantChecks turns on the periodic invariant checker: every
// `every` demand accesses (default 4096 when 0) and once at Drain, the
// hierarchy audits itself and aborts via an *InvariantError panic on any
// violation.
func (ms *MemSystem) EnableInvariantChecks(every uint64) {
	ms.checkInv = true
	if every == 0 {
		every = 4096
	}
	ms.checkGap = every
}

// SetPrioritizer enables or disables the access prioritizer; disabling it
// lets prefetches contend with demand misses (an ablation, not a paper
// configuration).
func (ms *MemSystem) SetPrioritizer(on bool) { ms.prioritizer = on }

// SetFillTamper installs a test-only hook called with every prefetch
// fill's block address as it lands in the L2 (see the fillTamper field).
func (ms *MemSystem) SetFillTamper(fn func(block uint64)) { ms.fillTamper = fn }

// Stats returns hierarchy-level statistics.
func (ms *MemSystem) Stats() MemStats { return ms.stats }

// Hierarchy exposes the caches and DRAM controller so drivers can collect
// stats through the engine-generation-neutral interface in core.
func (ms *MemSystem) Hierarchy() (l1, l2 *cache.Cache, dc *dram.Controller) {
	return ms.L1, ms.L2, ms.Dram
}

// present reports whether a block is in the L2 or already on its way.
func (ms *MemSystem) present(block uint64) bool {
	if ms.L2.Contains(block) {
		return true
	}
	_, inf := ms.inflight.Get(block)
	return inf
}

// nextArrival returns the earliest queued arrival's completion cycle.
func (ms *MemSystem) nextArrival() (uint64, bool) {
	idx := ms.arrivals.peek()
	if idx < 0 {
		return 0, false
	}
	return ms.pool.at(idx).doneAt, true
}

// addInflight registers a new in-flight line. The returned pointer is
// valid only until the pool's next alloc.
func (ms *MemSystem) addInflight(block, doneAt uint64, pf bool) *inflightLine {
	idx := ms.pool.alloc()
	ln := ms.pool.at(idx)
	*ln = inflightLine{block: block, doneAt: doneAt, seq: ms.nextSeq, prefetch: pf, attribIdx: -1}
	ms.nextSeq++
	ms.inflight.Set(block, idx)
	ms.arrivals.insert(idx)
	return ln
}

// processArrivals applies all fills whose data has arrived by cycle t.
func (ms *MemSystem) processArrivals(t uint64) {
	for {
		idx := ms.arrivals.peek()
		if idx < 0 {
			return
		}
		ln := ms.pool.at(idx)
		if ln.doneAt > t {
			return
		}
		ms.arrivals.pop()
		block, doneAt, pf, cancelled, attribIdx := ln.block, ln.doneAt, ln.prefetch, ln.cancelled, ln.attribIdx
		ms.pool.release(idx)
		if cancelled {
			// A fault-cancelled prefetch: its map entry and inflightPF slot
			// were released at cancellation time, and its block may since
			// have been re-fetched under a fresh line — touch nothing.
			ms.cancelled--
			continue
		}
		ms.inflight.Delete(block)
		if pf {
			ms.inflightPF--
		}
		if ms.watchdog != nil {
			ms.watchdog.NoteMem(doneAt)
		}
		v, evicted, filled := ms.L2.FillTracked(block, pf, false, attribIdx)
		if evicted {
			if v.Dirty {
				ms.Dram.Submit(v.Addr, dram.Writeback, doneAt)
			}
			if v.Prefetched && ms.ledger != nil {
				// Any fill — demand or prefetch — can evict an untouched
				// prefetched line; the ledger settles its class here.
				ms.ledger.EvictPrefetched(v.Token)
			}
		}
		if pf && ms.ledger != nil {
			ms.ledger.Fill(attribIdx, doneAt, filled, v.Addr, evicted, v.Prefetched)
		}
		if pf && ms.fillTamper != nil {
			ms.fillTamper(block)
		}
		// Pointer-scanning engines inspect every arriving line.
		ms.Engine.OnArrival(block)
	}
}

// cancelOnePrefetch cancels the oldest-issued cancellable in-flight
// prefetch (a prefetch line no demand has merged with): the line leaves
// the inflight map and releases its pump slot immediately, and its queue
// entry is marked to be skipped on arrival. The victim choice is by issue
// sequence number — explicit and independent of the arrival queue's
// internal layout, so the queue implementation can change without moving
// which prefetch a fault cancels. Cancelling is always architecturally
// safe — the block simply is not filled, exactly as if the prioritizer
// had starved the issue.
func (ms *MemSystem) cancelOnePrefetch() {
	victim := int32(-1)
	var vseq uint64
	ms.arrivals.forEach(func(idx int32) {
		ln := ms.pool.at(idx)
		if !ln.prefetch || ln.merged || ln.cancelled {
			return
		}
		if victim < 0 || ln.seq < vseq {
			victim, vseq = idx, ln.seq
		}
	})
	if victim >= 0 {
		ln := ms.pool.at(victim)
		ln.cancelled = true
		ms.inflight.Delete(ln.block)
		ms.inflightPF--
		ms.cancelled++
		ms.stats.PrefetchesCancelled++
		if ms.timeline != nil {
			ms.timeline.PrefetchOutcomeAt(ln.block, "cancelled", ms.cursor)
		}
		if ms.ledger != nil {
			ms.ledger.Cancel(ln.attribIdx)
		}
		return
	}
}

// Advance runs the prefetch pump and arrival processing up to cycle now.
//
// The access prioritizer (paper Figure 2) admits a prefetch to the memory
// controller only when its target channel is idle at that instant, so a
// prefetch never delays a demand miss that has already been submitted;
// demand misses "encounter contention only from prefetches the memory
// controller has already issued, and not from prefetch candidates buffered
// in the prefetch queue" (Section 3.1). With the prioritizer disabled
// (ablation), prefetches are submitted unconditionally and contend with
// demands inside the controller.
func (ms *MemSystem) Advance(now uint64) {
	if now <= ms.cursor {
		ms.processArrivals(ms.cursor)
		return
	}
	if ms.faults != nil && ms.faults.CancelInflight() {
		ms.cancelOnePrefetch()
	}
	t := ms.cursor
	for t < now {
		if ms.watchdog != nil && ms.watchdog.noteSpin(t) {
			panic(ms.watchdog.livelock(t, true, ms.DiagnosticDump(t)))
		}
		ms.processArrivals(t)
		if ms.inflightPF >= ms.cfg.MaxInflightPrefetches {
			// Wait for a prefetch slot to free.
			next, ok := ms.nextArrival()
			if !ok || next >= now {
				break
			}
			t = next
			continue
		}
		var cand uint64
		if ms.heldValid {
			cand = ms.held
			ms.heldValid = false
			if ms.present(cand) {
				if ms.ledger != nil {
					ms.ledger.DropHeldPresent()
				}
				continue // became cached while held
			}
		} else {
			var ok bool
			if opa, isOPA := ms.Engine.(prefetch.OpenPageAware); ms.cfg.OpenPageFirst && isOPA {
				cand, ok = opa.PopOpenFirst(ms.presentFn, ms.rowOpenFn)
			} else {
				cand, ok = ms.Engine.Pop(ms.presentFn)
			}
			if !ok {
				break
			}
		}
		start := t
		if ms.prioritizer {
			ch, _, _ := ms.Dram.Map(cand)
			if free := ms.Dram.ChannelFreeAt(ch); free > start {
				start = free
			}
			if start >= now {
				// The channel never goes idle inside this window: hold the
				// candidate at the prioritizer rather than delay demands.
				ms.held = cand
				ms.heldValid = true
				ms.stats.PrioritizerHolds++
				if ms.ledger != nil {
					ms.ledger.HoldBusy()
				}
				break
			}
		}
		done := ms.Dram.Submit(cand, dram.Prefetch, start)
		if ms.faults != nil {
			done += ms.faults.FillDelay()
		}
		ms.histPF.Observe(float64(done - start))
		if ms.timeline != nil {
			ms.timeline.PrefetchIssue(cand, start, done, false)
		}
		ln := ms.addInflight(cand, done, true)
		ms.inflightPF++
		ms.stats.PrefetchesIssued++
		if ms.ledger != nil {
			ln.attribIdx = ms.ledger.Issue(cand, start, false)
		}
		t = start + ms.cfg.DRAM.TransferCycles // issue bandwidth pacing
	}
	ms.cursor = now
	ms.processArrivals(now)
}

// Load performs a demand load issued at cycle now and returns its
// completion cycle. pc identifies the load instruction (for the stride
// table); hint and coeff are its compiler hints.
func (ms *MemSystem) Load(pc, addr uint64, hint isa.Hint, coeff uint8, now uint64) (done uint64) {
	ms.stats.Loads++
	return ms.access(pc, addr, false, hint, coeff, now)
}

// Store performs a demand store issued at cycle now. Stores carry no hints.
func (ms *MemSystem) Store(pc, addr uint64, now uint64) (done uint64) {
	ms.stats.Stores++
	return ms.access(pc, addr, true, isa.HintNone, isa.FixedRegion, now)
}

func (ms *MemSystem) access(pc, addr uint64, write bool, hint isa.Hint, coeff uint8, now uint64) uint64 {
	// Submission times must be nondecreasing for the pump bookkeeping;
	// out-of-order issue jitter from the core is clamped (see DESIGN.md).
	if now < ms.lastSubmit {
		now = ms.lastSubmit
	}
	ms.lastSubmit = now
	ms.Advance(now)
	if ms.sampler != nil {
		ms.sampler.Tick(now)
	}
	if ms.checkInv {
		ms.sinceInv++
		if ms.sinceInv >= ms.checkGap {
			ms.sinceInv = 0
			ms.mustHoldInvariants(now)
		}
	}

	l1lat := uint64(ms.cfg.L1.HitLatency)
	l2lat := uint64(ms.cfg.L2.HitLatency)
	block := ms.L2.BlockAddr(addr)

	// Merge with an outstanding miss or in-flight prefetch before probing
	// the L1: demand misses fill the L1 eagerly (so L1 contents do not
	// depend on the prefetch scheme), and the in-flight table is what
	// keeps accesses from hitting that fill before the data arrives. The
	// merged access still pays at least the L1-miss + L2-lookup time;
	// without this floor a timely prefetch could beat a perfect L2.
	if li, ok := ms.inflight.Get(block); ok {
		ln := ms.pool.at(li)
		ms.stats.InflightMerges++
		// The demand now depends on this line's arrival; fault injection
		// must no longer cancel it.
		ln.merged = true
		if ln.prefetch {
			ms.stats.PrefetchLates++
			ms.Engine.OnDemandHitPrefetched(block)
			if ms.timeline != nil {
				ms.timeline.PrefetchOutcomeAt(block, "late", now)
			}
			if ms.ledger != nil {
				ms.ledger.Late(ln.attribIdx)
			}
		}
		if ms.ledger != nil {
			// A merged access is still a demand L2 miss carrying hint bits.
			ms.ledger.Hint(pc, block)
		}
		// The merged request's hint bits reach the MSHR (paper Sec. 3.3.1:
		// the pointer counters live in the L2 MSHRs).
		ms.Engine.OnL2DemandMiss(prefetch.MissEvent{
			PC: pc, Addr: addr, Hint: hint, Coeff: coeff, Merged: true,
			Present: ms.presentFn,
		})
		d := ln.doneAt
		if m := now + l1lat + l2lat; m > d {
			d = m
		}
		return d
	}

	if hit, _ := ms.L1.Access(addr, write); hit {
		return now + l1lat
	}

	if hit, wasPF, token := ms.L2.AccessTracked(addr, write); hit {
		if wasPF {
			ms.Engine.OnDemandHitPrefetched(block)
			if ms.timeline != nil {
				ms.timeline.PrefetchOutcomeAt(block, "useful", now)
			}
			if ms.ledger != nil {
				ms.ledger.DemandHit(token)
			}
		}
		ms.fillL1(addr, write, now+l1lat+l2lat)
		return now + l1lat + l2lat
	}

	// Demand L2 miss: notify the prefetch engine, then go to DRAM through
	// the L2 MSHRs.
	ms.Engine.OnL2DemandMiss(prefetch.MissEvent{
		PC: pc, Addr: addr, Hint: hint, Coeff: coeff, Present: ms.presentFn,
	})
	if ms.ledger != nil {
		ms.ledger.Hint(pc, block)
	}

	lookupDone := now + l1lat + l2lat
	start, slot := ms.l2MSHR.Reserve(lookupDone)
	dramDone := ms.Dram.Submit(block, dram.Demand, start)
	if ms.faults != nil {
		dramDone += ms.faults.FillDelay()
	}
	ms.l2MSHR.Complete(slot, dramDone)
	if ms.watchdog != nil {
		// Progress is the submission itself; the arrival is noted when it
		// drains. Crediting dramDone here would let an absurdly delayed
		// fill mask the very stall it causes.
		ms.watchdog.NoteMem(now)
	}
	ms.histDemand.Observe(float64(dramDone - now))
	if ms.timeline != nil {
		ms.timeline.DemandMiss(pc, block, now, dramDone)
		ms.timeline.HintEmit(pc, block, now)
	}

	ms.addInflight(block, dramDone, false)
	// Fill the L1 now; the in-flight entry (checked before the L1 probe)
	// prevents later accesses from using the fill before the data lands.
	ms.fillL1(addr, write, dramDone)
	return dramDone
}

// fillL1 inserts the block into the L1 (fills are applied eagerly; see
// DESIGN.md simplifications) and handles the dirty victim.
func (ms *MemSystem) fillL1(addr uint64, write bool, when uint64) {
	v, evicted := ms.L1.Fill(ms.L1.BlockAddr(addr), false, write)
	if evicted && v.Dirty {
		// Write back into the L2; if the L2 no longer holds the block the
		// writeback goes to memory.
		if !ms.L2.MarkDirty(v.Addr) {
			ms.Dram.Submit(v.Addr, dram.Writeback, when)
		}
	}
}

// SoftwarePrefetch performs a non-binding PREF: if the block is not cached
// or in flight, it is fetched at demand priority (a PREF allocates an MSHR
// and contends like a load — the paper's Section 2 overhead) and fills the
// L2 marked as a prefetch, so accuracy accounting sees it.
func (ms *MemSystem) SoftwarePrefetch(addr, now uint64) {
	if now < ms.lastSubmit {
		now = ms.lastSubmit
	}
	ms.lastSubmit = now
	ms.Advance(now)

	block := ms.L2.BlockAddr(addr)
	if _, inf := ms.inflight.Get(block); inf || ms.L1.Contains(addr) || ms.L2.Contains(addr) {
		ms.stats.SWPrefetchDrops++
		if ms.ledger != nil {
			ms.ledger.DropSoftware()
		}
		return
	}
	ms.stats.SWPrefetches++
	ms.stats.PrefetchesIssued++
	lookupDone := now + uint64(ms.cfg.L1.HitLatency) + uint64(ms.cfg.L2.HitLatency)
	start, slot := ms.l2MSHR.Reserve(lookupDone)
	done := ms.Dram.Submit(block, dram.Prefetch, start)
	if ms.faults != nil {
		done += ms.faults.FillDelay()
	}
	ms.l2MSHR.Complete(slot, done)
	ms.histPF.Observe(float64(done - start))
	if ms.timeline != nil {
		ms.timeline.PrefetchIssue(block, start, done, true)
	}
	ln := ms.addInflight(block, done, true)
	ms.inflightPF++
	if ms.ledger != nil {
		ln.attribIdx = ms.ledger.Issue(block, start, true)
	}
}

// SetBound forwards a SETBOUND instruction to the engine.
func (ms *MemSystem) SetBound(v uint64) { ms.Engine.SetBound(v) }

// Indirect forwards a PREFI instruction to the engine.
func (ms *MemSystem) Indirect(indexAddr, base uint64, shift uint) {
	ms.Engine.Indirect(indexAddr, base, shift)
}

// Drain lets all outstanding traffic land; call at end of simulation.
func (ms *MemSystem) Drain() {
	for {
		next, ok := ms.nextArrival()
		if !ok {
			break
		}
		ms.Advance(next)
	}
	if ms.checkInv {
		ms.mustHoldInvariants(ms.cursor)
	}
}

// WatchRetire implements cpu.RetireWatcher: the watchdog reads the
// thread's retire clock itself, so the core calls NoteRetire and
// CheckProgress only at commits more than the returned stall window
// after the previous one. Without a watchdog it returns the largest
// window, and the core never calls.
func (ms *MemSystem) WatchRetire(clock *uint64) uint64 {
	if ms.watchdog == nil {
		return ^uint64(0)
	}
	return ms.watchdog.watch(clock)
}

// NoteRetire records an instruction retirement for the forward-progress
// watchdog; the core calls it after CheckProgress. A no-op without a
// watchdog.
func (ms *MemSystem) NoteRetire(now uint64) {
	if ms.watchdog != nil {
		ms.watchdog.NoteRetire(now)
	}
}

// CheckProgress aborts with a *LivelockError panic if neither an
// instruction retirement nor a drained memory event has been seen for the
// watchdog's stall threshold. The core calls it at a commit, before
// NoteRetire, so a pathological jump in completion cycles is caught. A
// no-op without a watchdog.
func (ms *MemSystem) CheckProgress(now uint64) {
	if ms.watchdog == nil || !ms.watchdog.stalled(now) {
		return
	}
	panic(ms.watchdog.livelock(now, false, ms.DiagnosticDump(now)))
}

// CheckInvariants audits the hierarchy's internal consistency and returns
// a descriptive error for the first violation found: bounded MSHR
// occupancy, agreement between the inflight map, the arrivals heap, and
// the prefetch slot count, engine queue sanity, and stats identities
// (every counted prefetch outcome traces back to an issued prefetch).
func (ms *MemSystem) CheckInvariants() error {
	if n, size := ms.l2MSHR.BusyAt(ms.cursor), ms.l2MSHR.Size(); size > 0 {
		if n > size {
			return fmt.Errorf("L2 MSHR occupancy %d exceeds capacity %d", n, size)
		}
		if p := ms.l2MSHR.Peak(); p > size {
			return fmt.Errorf("L2 MSHR peak %d exceeds capacity %d", p, size)
		}
	}

	// Queue / table / pool / slot-count agreement.
	livePF, cancelled, entries := 0, 0, 0
	var qerr error
	ms.arrivals.forEach(func(idx int32) {
		entries++
		ln := ms.pool.at(idx)
		if ln.cancelled {
			cancelled++
			return
		}
		got, ok := ms.inflight.Get(ln.block)
		if !ok && qerr == nil {
			qerr = fmt.Errorf("arrival queue entry %#x missing from inflight table", ln.block)
		}
		if ok && got != idx && qerr == nil {
			qerr = fmt.Errorf("inflight table entry %#x does not match its queue entry", ln.block)
		}
		if ln.prefetch {
			livePF++
		}
	})
	if qerr != nil {
		return qerr
	}
	if entries != ms.arrivals.len() {
		return fmt.Errorf("arrival queue size %d does not match bucket contents %d",
			ms.arrivals.len(), entries)
	}
	if ms.pool.live() != entries {
		return fmt.Errorf("line pool holds %d live slots, arrival queue %d entries",
			ms.pool.live(), entries)
	}
	if live := entries - cancelled; ms.inflight.Len() != live {
		return fmt.Errorf("inflight table holds %d lines, arrival queue %d live entries",
			ms.inflight.Len(), live)
	}
	if cancelled != ms.cancelled {
		return fmt.Errorf("cancelled-entry count %d does not match queue contents %d",
			ms.cancelled, cancelled)
	}
	if livePF != ms.inflightPF {
		return fmt.Errorf("inflight prefetch count %d does not match queue contents %d",
			ms.inflightPF, livePF)
	}
	// No hard cap check on inflightPF: software PREFs are demand-priority
	// and legitimately overshoot the pump's MaxInflightPrefetches limit.

	// Engine self-audit (region queues within heap bounds, etc.).
	if ch, ok := ms.Engine.(prefetch.Checker); ok {
		if err := ch.CheckInvariants(); err != nil {
			return fmt.Errorf("engine %s: %w", ms.Engine.Name(), err)
		}
	}

	// Stats identities. Late prefetches merged a demand with an issued
	// prefetch, and every useful/useless-counted line entered the L2 as a
	// prefetch fill; fills never exceed issues.
	issued := ms.stats.PrefetchesIssued
	if l2 := ms.L2.Stats(); !ms.cfg.L2.Perfect {
		if l2.PrefetchFills > issued {
			return fmt.Errorf("L2 prefetch fills %d exceed prefetches issued %d",
				l2.PrefetchFills, issued)
		}
		if l2.UsefulPrefetches+l2.UselessPrefetches > l2.PrefetchFills {
			return fmt.Errorf("prefetch outcomes useful=%d + useless=%d exceed fills %d",
				l2.UsefulPrefetches, l2.UselessPrefetches, l2.PrefetchFills)
		}
		if l2.Hits+l2.Misses != l2.Accesses {
			return fmt.Errorf("L2 hits %d + misses %d != accesses %d",
				l2.Hits, l2.Misses, l2.Accesses)
		}
	}
	if l1 := ms.L1.Stats(); !ms.cfg.L1.Perfect && l1.Hits+l1.Misses != l1.Accesses {
		return fmt.Errorf("L1 hits %d + misses %d != accesses %d",
			l1.Hits, l1.Misses, l1.Accesses)
	}
	if ms.stats.PrefetchLates > ms.stats.InflightMerges {
		return fmt.Errorf("late prefetches %d exceed inflight merges %d",
			ms.stats.PrefetchLates, ms.stats.InflightMerges)
	}
	if ms.stats.PrefetchesCancelled > issued {
		return fmt.Errorf("cancelled prefetches %d exceed issued %d",
			ms.stats.PrefetchesCancelled, issued)
	}

	// Attribution ledger identities (full conservation is checked by the
	// driver after Finalize; mid-run, only the running bounds hold).
	if ms.ledger != nil {
		if got := ms.ledger.Issued(); got != issued {
			return fmt.Errorf("ledger issued %d does not match stats %d", got, issued)
		}
		if c := ms.ledger.Classified(); c > issued {
			return fmt.Errorf("ledger classified %d exceeds issued %d", c, issued)
		}
	}
	return nil
}

// mustHoldInvariants aborts via an *InvariantError panic on a violation.
func (ms *MemSystem) mustHoldInvariants(now uint64) {
	if err := ms.CheckInvariants(); err != nil {
		panic(&InvariantError{Cycle: now, Violation: err.Error(), Dump: ms.DiagnosticDump(now)})
	}
}

// DiagnosticDump renders the memory system's live state — the pump
// cursor, in-flight table, MSHR file, prioritizer holding register, and
// prefetch engine — for watchdog and invariant abort reports.
func (ms *MemSystem) DiagnosticDump(now uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "memsys state at cycle %d:\n", now)
	fmt.Fprintf(&b, "  pump: cursor=%d lastSubmit=%d\n", ms.cursor, ms.lastSubmit)
	fmt.Fprintf(&b, "  inflight: %d lines (%d prefetch slots of %d), %d cancelled in queue, %d queue entries\n",
		ms.inflight.Len(), ms.inflightPF, ms.cfg.MaxInflightPrefetches, ms.cancelled, ms.arrivals.len())
	if idx := ms.arrivals.peek(); idx >= 0 {
		ln := ms.pool.at(idx)
		fmt.Fprintf(&b, "  next arrival: block %#x at cycle %d\n", ln.block, ln.doneAt)
	}
	fmt.Fprintf(&b, "  l2 mshr: %d/%d busy at cursor, peak %d, fault pressure %d\n",
		ms.l2MSHR.BusyAt(ms.cursor), ms.l2MSHR.Size(), ms.l2MSHR.Peak(), ms.l2MSHR.Pressure())
	fmt.Fprintf(&b, "  prioritizer: enabled=%v heldValid=%v", ms.prioritizer, ms.heldValid)
	if ms.heldValid {
		fmt.Fprintf(&b, " held=%#x", ms.held)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  engine: %s", ms.Engine.Name())
	if ql, ok := ms.Engine.(prefetch.QueueLenner); ok {
		fmt.Fprintf(&b, " queue=%d", ql.QueueLen())
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  stats: loads=%d stores=%d merges=%d pf_issued=%d pf_cancelled=%d holds=%d\n",
		ms.stats.Loads, ms.stats.Stores, ms.stats.InflightMerges,
		ms.stats.PrefetchesIssued, ms.stats.PrefetchesCancelled, ms.stats.PrioritizerHolds)
	if ms.faults != nil {
		fmt.Fprintf(&b, "  faults: %v\n", ms.faults.Counts())
	}
	return b.String()
}
