package sim

import (
	"fmt"
	"strings"
	"unsafe"

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

// coRunASIDShift positions the core id (address-space id) in the high
// bits of every address a core port forwards to the shared L2 and DRAM:
// global = (local & coRunASIDMask) | core << coRunASIDShift. Each core
// therefore owns a disjoint 2^44-byte timing address space — big enough
// that no real workload wraps — while the DRAM channel/bank mapping,
// which reads only low address bits, is untouched: two cores' streams
// interleave over the same channels and banks, which is exactly the
// contention being modeled. The owner of any global address is
// recoverable from its high bits, which is what routes arrivals back to
// the issuing core's engine and charges cross-core pollution.
const (
	coRunASIDShift = 44
	coRunASIDMask  = (uint64(1) << coRunASIDShift) - 1
)

// CoRunSystem is the memory system's timing engine: N core-private L1s
// and prefetch engines over one shared L2 and one shared DRAM controller.
// Each core drives its own CorePort (which implements cpu.MemoryTiming);
// the ports share the in-flight table, the arrival queue, and the
// prefetch pump. A single-core run is the one-core case (MemSystem is
// that system seen through its only port). With more cores, the pump's
// issue slot each iteration is assigned by the round-robin cross-core
// Arbiter before the candidate faces the access prioritizer's
// idle-channel test.
//
// Partitioning: every core gets a private L2 MSHR file and a private
// in-flight prefetch budget of MaxInflightPrefetches, so one core's miss
// burst cannot consume another's slots; contention is confined to the
// shared L2 capacity and the DRAM channels/banks, where it belongs.
//
// Instruments: the fault injector, the watchdog and the invariant audit
// serve the whole system. The telemetry sinks (metrics registry, sampler,
// timeline) and the fill tamper describe a single core; callers attach
// them only to one-core systems.
type CoRunSystem struct {
	cfg  MemConfig
	L2   *cache.Cache
	Dram *dram.Controller

	ports []*CorePort
	arb   *Arbiter

	// In-flight lines live in a slab pool and are addressed by index; the
	// block → index table is open-addressed and the arrival queue is a
	// bucketed calendar queue (see queue.go), all allocation-free in
	// steady state.
	pool     linePool
	inflight *oamap.I32
	arrivals calendarQueue

	cursor      uint64 // prefetch pump has run up to this cycle
	lastSubmit  uint64 // monotonic clamp for request submission times
	nextSeq     uint64 // issue sequence numbers for arrival tie-breaking
	prioritizer bool   // issue prefetches only into idle channels

	// asidOn gates address translation: with one core the port is the
	// identity map, so a one-core system sees exactly the addresses its
	// program touches, even above the ASID boundary. localMask is the
	// translation's mask: coRunASIDMask with it, all ones without.
	asidOn    bool
	localMask uint64

	// advanceID distinguishes Advance calls so a candidate parked on a
	// busy channel is probed (and its hold counted) once per call.
	advanceID uint64

	// Telemetry sinks; all nil when no telemetry is attached, so the hot
	// path pays one predictable branch per sink and nothing else.
	sampler    *metrics.Sampler
	timeline   *trace.Timeline
	histDemand *metrics.Histogram // demand L2-miss service latency
	histPF     *metrics.Histogram // prefetch issue→fill latency

	// Robustness layer; all optional and nil/false by default.
	faults    *faults.Injector
	cancelled int // cancelled entries still parked in the arrival queue
	watchdog  *Watchdog
	checkInv  bool
	checkGap  uint64 // accesses between periodic invariant checks
	sinceInv  uint64

	// fillTamper, when non-nil, is invoked with the block address of every
	// prefetch fill the moment it lands in the L2. It exists solely for the
	// conformance harness's known-bad self-test: a tamperer that corrupts
	// the block's backing data models a broken prefetch data path, which the
	// differential harness must catch. Never set outside tests.
	fillTamper func(block uint64)
}

// CorePort is one core's endpoint into a CoRunSystem: a private L1,
// prefetch engine, L2 MSHR partition, and prefetch budget over the
// shared fabric. It implements cpu.MemoryTiming, ProgressMonitor and
// RetireWatcher, so a cpu.Core (or Thread) drives it directly. The pump
// writes it on every access, so the struct is padded to whole host
// cache lines; the padding leads, since a zero-size trailing field would
// itself add a word.
type CorePort struct {
	_ [(lineBytes - unsafe.Sizeof(portState{})%lineBytes) % lineBytes]byte
	portState
}

type portState struct {
	sys *CoRunSystem
	id  int

	L1     *cache.Cache
	Engine prefetch.Engine
	mshr   *cache.MSHRFile

	// global = local&localMask | asid: the ASID translation without a
	// branch (the identity with one core).
	localMask, asid uint64

	inflightPF int
	held       uint64 // prioritizer holding register (local address)
	heldValid  bool
	heldStart  uint64 // the cycle held issues at, set by ready
	parkedID   uint64 // advanceID that parked held on a busy channel

	stats  MemStats
	ledger *attrib.Ledger

	// presentFn/rowOpenFn are p.present and p.rowOpen bound once: passing
	// the method values inline would allocate a closure on every pop.
	presentFn func(uint64) bool
	rowOpenFn func(uint64) bool

	// Cross-core prefetch pollution, both directions: caused counts this
	// core's prefetch fills that evicted another core's valid
	// demand-resident line; suffered counts this core's lines so evicted.
	pollutionCaused   uint64
	pollutionSuffered uint64
}

// Histogram and series names the hierarchy registers; exported so callers
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

// NewCoRunSystem builds an n-core shared hierarchy, one prefetch engine
// per core. Engines are core-private and see only their own core's local
// addresses; len(engines) sets the core count.
func NewCoRunSystem(cfg MemConfig, engines []prefetch.Engine) (*CoRunSystem, error) {
	n := len(engines)
	if n < 1 {
		return nil, fmt.Errorf("sim: co-run needs at least one core, got %d", n)
	}
	if cfg.MaxInflightPrefetches <= 0 {
		cfg.MaxInflightPrefetches = 8
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	dc, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	cs := &CoRunSystem{
		cfg:         cfg,
		L2:          l2,
		Dram:        dc,
		arb:         NewArbiter(n),
		inflight:    oamap.NewI32(),
		prioritizer: true,
		asidOn:      n > 1,
		localMask:   ^uint64(0),
	}
	if cs.asidOn {
		cs.localMask = coRunASIDMask
	}
	cs.arrivals.pool = &cs.pool
	for i := 0; i < n; i++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		p := &CorePort{portState: portState{
			sys:       cs,
			id:        i,
			localMask: cs.localMask,
			asid:      uint64(i) << coRunASIDShift,
			L1:        l1,
			Engine:    engines[i],
			mshr:      cache.NewMSHRFile(cfg.L2.MSHRs),
		}}
		p.presentFn = p.present
		p.rowOpenFn = p.rowOpen
		cs.ports = append(cs.ports, p)
	}
	return cs, nil
}

// Port returns core i's endpoint.
func (cs *CoRunSystem) Port(i int) *CorePort { return cs.ports[i] }

// SetPrioritizer enables or disables the access prioritizer; disabling it
// lets prefetches contend with demand misses (an ablation, not a paper
// configuration).
func (cs *CoRunSystem) SetPrioritizer(on bool) { cs.prioritizer = on }

// SetFaults arms fault injection on every hook point of the hierarchy:
// the shared DRAM controller (channel degradation, stuck banks), every
// core's L2 MSHR partition (slot pressure), every core's prefetch engine
// (dropped issues, corrupted hints, truncated regions — each port's
// Engine is wrapped in place), and the pump itself (cancelled in-flight
// prefetches, delayed fills). One injector serves the whole system, so
// its rolls and counts are shared by all cores. Call it once, right after
// construction and before AttachTelemetry, so telemetry observes the
// wrapped engine. A nil injector is a no-op.
func (cs *CoRunSystem) SetFaults(inj *faults.Injector) {
	if inj == nil {
		return
	}
	cs.faults = inj
	cs.Dram.SetFaultHook(func(dram.Kind) (uint64, uint64) { return inj.DramFault() })
	for _, p := range cs.ports {
		p.Engine = prefetch.WithFaults(p.Engine, inj)
		p.mshr.SetPressure(inj.StolenSlots(p.mshr.Size()))
	}
}

// FaultCounts reports the faults injected so far across the whole system
// (zero when no fault plan is armed). Each core's cancelled prefetches
// are in its MemStats.PrefetchesCancelled.
func (cs *CoRunSystem) FaultCounts() faults.Counts {
	if cs.faults == nil {
		return faults.Counts{}
	}
	return cs.faults.Counts()
}

// SetWatchdog arms the shared forward-progress watchdog: a retirement on
// any core counts as progress (a core legitimately stalls while a
// co-runner hogs a channel; the system as a whole must still move). Zero
// config fields take the package defaults. The watchdog aborts the run
// via a *LivelockError panic (see RecoverAbort). Arm it before the cores
// start their runs: each core asks for the stall window once, at start.
func (cs *CoRunSystem) SetWatchdog(cfg WatchdogConfig) *Watchdog {
	cs.watchdog = newWatchdog(cfg)
	return cs.watchdog
}

// EnableInvariantChecks turns on the periodic invariant checker: every
// `every` demand accesses across all cores (default 4096 when 0) and once
// at Drain, the hierarchy audits itself and aborts via an
// *InvariantError panic on any violation.
func (cs *CoRunSystem) EnableInvariantChecks(every uint64) {
	cs.checkInv = true
	if every == 0 {
		every = 4096
	}
	cs.checkGap = every
}

// SetFillTamper installs a test-only hook called with every prefetch
// fill's block address as it lands in the L2 (see the fillTamper field).
func (cs *CoRunSystem) SetFillTamper(fn func(block uint64)) { cs.fillTamper = fn }

// AttachTelemetry connects core 0 and the shared fabric to the telemetry
// layer: the gauges and series read core 0's L1, statistics, MSHR file
// and engine, so attach it to one-core systems only. Any of the sinks may
// be nil: a registry alone gives end-of-run counters and latency
// histograms, a sampler adds the cycle-driven time series, and a
// timeline records per-event spans for Perfetto export. Call it once,
// before simulation starts.
func (cs *CoRunSystem) AttachTelemetry(reg *metrics.Registry, smp *metrics.Sampler, tl *trace.Timeline) {
	p := cs.ports[0]
	cs.sampler = smp
	cs.timeline = tl
	clock := func() uint64 { return cs.cursor }

	if reg != nil {
		p.L1.RegisterMetrics(reg)
		cs.L2.RegisterMetrics(reg)
		cs.Dram.RegisterMetrics(reg, clock)
		reg.MustGauge("mem.loads", func() float64 { return float64(p.stats.Loads) })
		reg.MustGauge("mem.stores", func() float64 { return float64(p.stats.Stores) })
		reg.MustGauge("mem.inflight_merges", func() float64 { return float64(p.stats.InflightMerges) })
		reg.MustGauge("mem.prefetch_lates", func() float64 { return float64(p.stats.PrefetchLates) })
		reg.MustGauge("mem.prefetches_issued", func() float64 { return float64(p.stats.PrefetchesIssued) })
		reg.MustGauge("mem.sw_prefetches", func() float64 { return float64(p.stats.SWPrefetches) })
		reg.MustGauge("mem.prioritizer_holds", func() float64 { return float64(p.stats.PrioritizerHolds) })
		reg.MustGauge(SeriesInflightPF, func() float64 { return float64(p.inflightPF) })
		reg.MustGauge(SeriesMSHROcc, func() float64 { return float64(p.mshr.BusyAt(cs.cursor)) })
		if ql, ok := p.Engine.(prefetch.QueueLenner); ok {
			reg.MustGauge(SeriesPFQueueOcc, func() float64 { return float64(ql.QueueLen()) })
		}
		// Latency buckets: 16 cycles up to ~170k, covering an L2 hit floor
		// through heavy queueing; the memory round trip is ~160-220.
		bounds := metrics.ExponentialBuckets(16, 1.5, 24)
		cs.histDemand = reg.MustHistogram(HistDemandMissLatency, bounds)
		cs.histPF = reg.MustHistogram(HistPrefetchLatency, bounds)
	}

	if smp != nil {
		smp.Watch(SeriesL2MissRate, func() float64 { return cs.L2.Stats().MissRate() })
		if ql, ok := p.Engine.(prefetch.QueueLenner); ok {
			smp.Watch(SeriesPFQueueOcc, func() float64 { return float64(ql.QueueLen()) })
		}
		smp.Watch(SeriesMSHROcc, func() float64 { return float64(p.mshr.BusyAt(cs.cursor)) })
		smp.Watch(SeriesDramUtil, func() float64 {
			now := clock()
			var sum float64
			for ch := 0; ch < cs.cfg.DRAM.Channels; ch++ {
				sum += cs.Dram.Utilization(ch, now)
			}
			return sum / float64(cs.cfg.DRAM.Channels)
		})
		for ch := 0; ch < cs.cfg.DRAM.Channels; ch++ {
			ch := ch
			smp.Watch(fmt.Sprintf("dram.chan%d.utilization", ch), func() float64 {
				return cs.Dram.Utilization(ch, clock())
			})
		}
		smp.Watch(SeriesInflightPF, func() float64 { return float64(p.inflightPF) })
	}

	if tl != nil {
		cs.Dram.SetSubmitHook(func(ch, bk int, kind dram.Kind, start, busyUntil uint64, rowHit bool) {
			tl.BankBusy(ch, bk, start, busyUntil, rowHit, kind.String())
		})
	}
}

// AttachLedger connects this core's prefetch attribution ledger. Each
// core's ledger sees only that core's local addresses, so its summaries
// line up with a solo run of the same workload; cross-core pollution
// lands in the annotation counters, not the taxonomy. A nil (or
// never-attached) ledger costs the hot path one predictable branch per
// event. Call it once, before simulation starts.
func (p *CorePort) AttachLedger(l *attrib.Ledger) { p.ledger = l }

// Ledger returns this core's attached ledger (nil when detached).
func (p *CorePort) Ledger() *attrib.Ledger { return p.ledger }

// Stats returns this core's hierarchy-level statistics.
func (p *CorePort) Stats() MemStats { return p.stats }

// Hierarchy returns this core's L1 and the shared L2 and DRAM controller.
func (p *CorePort) Hierarchy() (l1, l2 *cache.Cache, dc *dram.Controller) {
	return p.L1, p.sys.L2, p.sys.Dram
}

// Pollution returns this core's cross-core pollution counters: prefetch
// evictions of other cores' demand-resident lines it caused, and of its
// own lines it suffered.
func (p *CorePort) Pollution() (caused, suffered uint64) {
	return p.pollutionCaused, p.pollutionSuffered
}

// global maps a core-local address into the shared fabric's space.
func (p *CorePort) global(addr uint64) uint64 { return addr&p.localMask | p.asid }

// local strips the ASID bits off a shared-fabric address.
func (cs *CoRunSystem) local(addr uint64) uint64 { return addr & cs.localMask }

// ownerOf returns the core id owning a shared-fabric address.
func (cs *CoRunSystem) ownerOf(addr uint64) int { return int(addr &^ cs.localMask >> coRunASIDShift) }

// present reports whether a core-local block is in the shared L2 or
// already on its way (the engine-facing candidate filter).
func (p *CorePort) present(block uint64) bool {
	cs := p.sys
	if cs.asidOn {
		block = cs.L2.BlockAddr(p.global(block))
	}
	if cs.L2.Contains(block) {
		return true
	}
	_, inf := cs.inflight.Get(block)
	return inf
}

// rowOpen reports whether a core-local block's DRAM row is open.
func (p *CorePort) rowOpen(block uint64) bool {
	return p.sys.Dram.RowOpen(p.global(block))
}

// nextArrival returns the earliest queued arrival's completion cycle.
func (cs *CoRunSystem) nextArrival() (uint64, bool) {
	idx := cs.arrivals.peek()
	if idx < 0 {
		return 0, false
	}
	return cs.pool.at(idx).doneAt, true
}

// addInflight registers a new in-flight line under its global address.
// The returned pointer is valid only until the pool's next alloc.
func (cs *CoRunSystem) addInflight(block, doneAt uint64, pf bool) *inflightLine {
	idx := cs.pool.alloc()
	ln := cs.pool.at(idx)
	*ln = inflightLine{block: block, doneAt: doneAt, seq: cs.nextSeq, prefetch: pf, attribIdx: -1}
	cs.nextSeq++
	cs.inflight.Set(block, idx)
	cs.arrivals.insert(idx)
	return ln
}

// processArrivals applies all fills whose data has arrived by cycle t,
// routing each to its owning core's engine and settling cross-core
// pollution on eviction.
func (cs *CoRunSystem) processArrivals(t uint64) {
	for {
		idx := cs.arrivals.peek()
		if idx < 0 {
			return
		}
		ln := cs.pool.at(idx)
		if ln.doneAt > t {
			return
		}
		cs.arrivals.pop()
		block, doneAt, pf, cancelled, attribIdx := ln.block, ln.doneAt, ln.prefetch, ln.cancelled, ln.attribIdx
		cs.pool.release(idx)
		if cancelled {
			// A fault-cancelled prefetch: its table entry and prefetch slot
			// were released at cancellation time, and its block may since
			// have been re-fetched under a fresh line — touch nothing.
			cs.cancelled--
			continue
		}
		cs.inflight.Delete(block)
		owner := cs.ports[cs.ownerOf(block)]
		if pf {
			owner.inflightPF--
		}
		if cs.watchdog != nil {
			cs.watchdog.NoteMem(doneAt)
		}
		v, evicted, filled := cs.L2.FillTracked(block, pf, false, attribIdx)
		vport, crossVictim := owner, false
		if evicted {
			if v.Dirty {
				cs.Dram.Submit(v.Addr, dram.Writeback, doneAt)
			}
			if cs.asidOn {
				vport = cs.ports[cs.ownerOf(v.Addr)]
				crossVictim = vport != owner
			}
			if v.Prefetched && vport.ledger != nil {
				// Any fill — demand or prefetch — can evict an untouched
				// prefetched line; its owner's ledger settles its class.
				vport.ledger.EvictPrefetched(v.Token)
			}
		}
		if pf && owner.ledger != nil {
			if crossVictim {
				// A foreign victim must not enter this ledger's re-miss
				// table (the spaces are disjoint); cross-core pollution is
				// recorded explicitly below.
				owner.ledger.Fill(attribIdx, doneAt, filled, 0, false, false)
			} else {
				owner.ledger.Fill(attribIdx, doneAt, filled, cs.local(v.Addr), evicted, v.Prefetched)
			}
		}
		if pf && crossVictim && !v.Prefetched {
			// A prefetch from this core displaced another core's valid
			// demand-resident line: pollution charged to the issuer, with
			// the victim armed in its owner's re-miss tracker.
			owner.pollutionCaused++
			vport.pollutionSuffered++
			owner.ledger.CrossCoreVictim(attribIdx)
			vport.ledger.VictimDisplaced(cs.local(v.Addr))
		}
		if pf && cs.fillTamper != nil {
			cs.fillTamper(cs.local(block))
		}
		// Pointer-scanning engines inspect every arriving line of their own
		// core; lines are ASID-tagged, so only the owner scans.
		owner.Engine.OnArrival(cs.local(block))
	}
}

// cancelOnePrefetch cancels the oldest-issued cancellable in-flight
// prefetch of any core (a prefetch line no demand has merged with): the
// line leaves the inflight table and releases its owner's pump slot
// immediately, and its queue entry is marked to be skipped on arrival.
// The victim choice is by issue sequence number — explicit and
// independent of the arrival queue's internal layout, so the queue
// implementation can change without moving which prefetch a fault
// cancels. Cancelling is always architecturally safe — the block simply
// is not filled, exactly as if the prioritizer had starved the issue.
func (cs *CoRunSystem) cancelOnePrefetch() {
	victim := int32(-1)
	var vseq uint64
	cs.arrivals.forEach(func(idx int32) {
		ln := cs.pool.at(idx)
		if !ln.prefetch || ln.merged || ln.cancelled {
			return
		}
		if victim < 0 || ln.seq < vseq {
			victim, vseq = idx, ln.seq
		}
	})
	if victim < 0 {
		return
	}
	ln := cs.pool.at(victim)
	ln.cancelled = true
	cs.inflight.Delete(ln.block)
	cs.cancelled++
	owner := cs.ports[cs.ownerOf(ln.block)]
	owner.inflightPF--
	owner.stats.PrefetchesCancelled++
	if cs.timeline != nil {
		cs.timeline.PrefetchOutcomeAt(cs.local(ln.block), "cancelled", cs.cursor)
	}
	if owner.ledger != nil {
		owner.ledger.Cancel(ln.attribIdx)
	}
}

// ready gets a candidate into p's holding register, dropping candidates
// that became present while parked, and reports whether it can issue
// inside [t, now), at heldStart: t itself with the prioritizer off, else
// the first cycle its channel is idle. A candidate whose channel stays
// busy through the whole window parks at the holding register for the
// rest of this Advance (channel-free times only grow within a window)
// and counts one prioritizer hold. capped reports that p is waiting for
// a free prefetch slot instead. The pump asks each core once per
// iteration; readiness has no effect on other cores.
func (p *CorePort) ready(t, now uint64) (ok, capped bool) {
	cs := p.sys
	if p.inflightPF >= cs.cfg.MaxInflightPrefetches {
		return false, true
	}
	if p.heldValid && p.present(p.held) {
		p.heldValid = false // became cached while held; pop a fresh one
		p.ledger.DropHeldPresent()
	}
	if !p.heldValid {
		// Engines pop only candidates that are not present.
		var opa prefetch.OpenPageAware
		if cs.cfg.OpenPageFirst {
			opa, _ = p.Engine.(prefetch.OpenPageAware)
		}
		var cand uint64
		if opa != nil {
			cand, ok = opa.PopOpenFirst(p.presentFn, p.rowOpenFn)
		} else {
			cand, ok = p.Engine.Pop(p.presentFn)
		}
		if !ok {
			return false, false
		}
		p.held, p.heldValid = cand, true
	}
	if p.parkedID == cs.advanceID {
		return false, false
	}
	start := t
	if cs.prioritizer {
		ch, _, _ := cs.Dram.Map(p.global(p.held))
		if free := cs.Dram.ChannelFreeAt(ch); free > start {
			start = free
		}
	}
	if start >= now {
		p.parkedID = cs.advanceID
		p.stats.PrioritizerHolds++
		p.ledger.HoldBusy()
		return false, false
	}
	p.heldStart = start
	return true, false
}

// arbitrate is the pump's issue choice with several cores: the
// round-robin arbiter grants the first core in rotation whose candidate
// is ready. capBlocked reports that some core is waiting only for a
// prefetch slot.
func (cs *CoRunSystem) arbitrate(t, now uint64) (p *CorePort, ok, capBlocked bool) {
	granted, ok := cs.arb.Grant(func(c int) bool {
		ready, capped := cs.ports[c].ready(t, now)
		capBlocked = capBlocked || capped
		return ready
	})
	if !ok {
		return nil, false, capBlocked
	}
	return cs.ports[granted], true, capBlocked
}

// Advance runs the shared prefetch pump and arrival processing up to
// cycle now.
//
// The access prioritizer (paper Figure 2) admits a prefetch to the memory
// controller only when its target channel is idle at that instant, so a
// prefetch never delays a demand miss that has already been submitted;
// demand misses "encounter contention only from prefetches the memory
// controller has already issued, and not from prefetch candidates buffered
// in the prefetch queue" (Section 3.1). With the prioritizer disabled
// (ablation), prefetches are submitted unconditionally and contend with
// demands inside the controller. Each iteration issues one candidate;
// issue pacing on the shared command path advances the pump by
// TransferCycles per issue.
func (cs *CoRunSystem) Advance(now uint64) {
	if now <= cs.cursor {
		cs.processArrivals(cs.cursor)
		return
	}
	if cs.faults != nil && cs.faults.CancelInflight() {
		cs.cancelOnePrefetch()
	}
	cs.advanceID++
	t := cs.cursor
	for t < now {
		if cs.watchdog != nil && cs.watchdog.noteSpin(t) {
			panic(cs.watchdog.livelock(t, true, cs.DiagnosticDump(t)))
		}
		cs.processArrivals(t)
		// One core issues whenever its candidate can; several take turns.
		p, ok, capBlocked := cs.ports[0], false, false
		if len(cs.ports) == 1 {
			ok, capBlocked = p.ready(t, now)
		} else {
			p, ok, capBlocked = cs.arbitrate(t, now)
		}
		if !ok {
			// Nobody can issue in this window. If a core is only waiting
			// for a prefetch slot, jump to the arrival that frees one.
			if capBlocked {
				if next, ok := cs.nextArrival(); ok && next < now {
					t = next
					continue
				}
			}
			break
		}
		cand, start := p.held, p.heldStart
		p.heldValid = false
		gcand := p.global(cand)
		done := cs.Dram.Submit(gcand, dram.Prefetch, start)
		if cs.faults != nil {
			done += cs.faults.FillDelay()
		}
		cs.histPF.Observe(float64(done - start))
		if cs.timeline != nil {
			cs.timeline.PrefetchIssue(cand, start, done, false)
		}
		ln := cs.addInflight(gcand, done, true)
		p.inflightPF++
		p.stats.PrefetchesIssued++
		if p.ledger != nil {
			ln.attribIdx = p.ledger.Issue(cand, start, false)
		}
		t = start + cs.cfg.DRAM.TransferCycles // shared issue-bandwidth pacing
	}
	cs.cursor = now
	cs.processArrivals(now)
}

// Load performs a demand load issued at cycle now and returns its
// completion cycle. pc identifies the load instruction (for the stride
// table); hint and coeff are its compiler hints.
func (p *CorePort) Load(pc, addr uint64, hint isa.Hint, coeff uint8, now uint64) uint64 {
	p.stats.Loads++
	return p.access(pc, addr, false, hint, coeff, now)
}

// Store performs a demand store issued at cycle now. Stores carry no hints.
func (p *CorePort) Store(pc, addr uint64, now uint64) uint64 {
	p.stats.Stores++
	return p.access(pc, addr, true, isa.HintNone, isa.FixedRegion, now)
}

func (p *CorePort) access(pc, addr uint64, write bool, hint isa.Hint, coeff uint8, now uint64) uint64 {
	cs := p.sys
	// Submission times are clamped monotonically across all cores: the
	// pump's bookkeeping needs nondecreasing time, so out-of-order issue
	// jitter from a core, and cross-core jitter from the co-run
	// interleave, is clamped (see DESIGN.md).
	if now < cs.lastSubmit {
		now = cs.lastSubmit
	}
	cs.lastSubmit = now
	cs.Advance(now)
	if cs.sampler != nil {
		cs.sampler.Tick(now)
	}
	if cs.checkInv {
		cs.sinceInv++
		if cs.sinceInv >= cs.checkGap {
			cs.sinceInv = 0
			cs.mustHoldInvariants(now)
		}
	}

	l1lat := uint64(cs.cfg.L1.HitLatency)
	l2lat := uint64(cs.cfg.L2.HitLatency)
	gaddr := p.global(addr)
	block := cs.L2.BlockAddr(gaddr)

	// Merge with an outstanding miss or in-flight prefetch before probing
	// the L1: demand misses fill the L1 eagerly (so L1 contents do not
	// depend on the prefetch scheme), and the in-flight table is what
	// keeps accesses from hitting that fill before the data arrives. The
	// merged access still pays at least the L1-miss + L2-lookup time;
	// without this floor a timely prefetch could beat a perfect L2. ASID
	// tagging means a merge can only ever hit this core's own line.
	if li, ok := cs.inflight.Get(block); ok {
		ln := cs.pool.at(li)
		lb := cs.local(block)
		p.stats.InflightMerges++
		// The demand now depends on this line's arrival; fault injection
		// must no longer cancel it.
		ln.merged = true
		if ln.prefetch {
			p.stats.PrefetchLates++
			p.Engine.OnDemandHitPrefetched(lb)
			if cs.timeline != nil {
				cs.timeline.PrefetchOutcomeAt(lb, "late", now)
			}
			p.ledger.Late(ln.attribIdx)
		}
		// A merged access is still a demand L2 miss carrying hint bits,
		// and they reach the MSHR (paper Sec. 3.3.1: the pointer counters
		// live in the L2 MSHRs).
		if p.ledger != nil {
			p.ledger.Hint(pc, lb)
		}
		p.Engine.OnL2DemandMiss(prefetch.MissEvent{
			PC: pc, Addr: addr, Hint: hint, Coeff: coeff, Merged: true,
			Present: p.presentFn,
		})
		d := ln.doneAt
		if m := now + l1lat + l2lat; m > d {
			d = m
		}
		return d
	}

	if hit, _ := p.L1.Access(addr, write); hit {
		return now + l1lat
	}

	if hit, wasPF, token := cs.L2.AccessTracked(gaddr, write); hit {
		if wasPF {
			lb := cs.local(block)
			p.Engine.OnDemandHitPrefetched(lb)
			if cs.timeline != nil {
				cs.timeline.PrefetchOutcomeAt(lb, "useful", now)
			}
			if p.ledger != nil {
				p.ledger.DemandHit(token)
			}
		}
		p.fillL1(addr, write, now+l1lat+l2lat)
		return now + l1lat + l2lat
	}

	// Demand L2 miss: notify this core's engine, then go to DRAM through
	// this core's MSHR partition.
	p.Engine.OnL2DemandMiss(prefetch.MissEvent{
		PC: pc, Addr: addr, Hint: hint, Coeff: coeff, Present: p.presentFn,
	})
	lb := cs.local(block)
	if p.ledger != nil {
		p.ledger.Hint(pc, lb)
	}

	lookupDone := now + l1lat + l2lat
	start, slot := p.mshr.Reserve(lookupDone)
	dramDone := cs.Dram.Submit(block, dram.Demand, start)
	if cs.faults != nil {
		dramDone += cs.faults.FillDelay()
	}
	p.mshr.Complete(slot, dramDone)
	if cs.watchdog != nil {
		// Progress is the submission itself; the arrival is noted when it
		// drains. Crediting dramDone here would let an absurdly delayed
		// fill mask the very stall it causes.
		cs.watchdog.NoteMem(now)
	}
	cs.histDemand.Observe(float64(dramDone - now))
	if cs.timeline != nil {
		cs.timeline.DemandMiss(pc, lb, now, dramDone)
		cs.timeline.HintEmit(pc, lb, now)
	}
	cs.addInflight(block, dramDone, false)
	// Fill the L1 now; the in-flight entry (checked before the L1 probe)
	// prevents later accesses from using the fill before the data lands.
	p.fillL1(addr, write, dramDone)
	return dramDone
}

// fillL1 inserts the block into this core's private L1 (fills are applied
// eagerly; see DESIGN.md simplifications), writing a dirty victim back
// into the shared L2, or to memory when the L2 no longer holds it.
func (p *CorePort) fillL1(addr uint64, write bool, when uint64) {
	v, evicted := p.L1.Fill(p.L1.BlockAddr(addr), false, write)
	if evicted && v.Dirty {
		g := p.global(v.Addr)
		if !p.sys.L2.MarkDirty(g) {
			p.sys.Dram.Submit(g, dram.Writeback, when)
		}
	}
}

// SoftwarePrefetch performs a non-binding PREF: if the block is not cached
// or in flight, it is fetched at demand priority (a PREF allocates an MSHR
// and contends like a load — the paper's Section 2 overhead) and fills the
// L2 marked as a prefetch, so accuracy accounting sees it.
func (p *CorePort) SoftwarePrefetch(addr, now uint64) {
	cs := p.sys
	if now < cs.lastSubmit {
		now = cs.lastSubmit
	}
	cs.lastSubmit = now
	cs.Advance(now)

	gaddr := p.global(addr)
	block := cs.L2.BlockAddr(gaddr)
	if _, inf := cs.inflight.Get(block); inf || p.L1.Contains(addr) || cs.L2.Contains(gaddr) {
		p.stats.SWPrefetchDrops++
		p.ledger.DropSoftware()
		return
	}
	p.stats.SWPrefetches++
	p.stats.PrefetchesIssued++
	lookupDone := now + uint64(cs.cfg.L1.HitLatency) + uint64(cs.cfg.L2.HitLatency)
	start, slot := p.mshr.Reserve(lookupDone)
	done := cs.Dram.Submit(block, dram.Prefetch, start)
	if cs.faults != nil {
		done += cs.faults.FillDelay()
	}
	p.mshr.Complete(slot, done)
	cs.histPF.Observe(float64(done - start))
	lb := cs.local(block)
	if cs.timeline != nil {
		cs.timeline.PrefetchIssue(lb, start, done, true)
	}
	ln := cs.addInflight(block, done, true)
	p.inflightPF++
	if p.ledger != nil {
		ln.attribIdx = p.ledger.Issue(lb, start, true)
	}
}

// SetBound forwards a SETBOUND instruction to this core's engine.
func (p *CorePort) SetBound(v uint64) { p.Engine.SetBound(v) }

// Indirect forwards a PREFI instruction to this core's engine.
func (p *CorePort) Indirect(indexAddr, base uint64, shift uint) {
	p.Engine.Indirect(indexAddr, base, shift)
}

// WatchRetire implements cpu.RetireWatcher for this core: the shared
// watchdog reads every core's retire clock, so a stall check at one
// core's commit still sees a retirement on any other. One core's own
// commit gap bounds the shared one, since its previous commit is itself a
// retirement; the core therefore calls only when its own gap exceeds the
// stall window. Without a watchdog it returns the largest window, and the
// core never calls.
func (p *CorePort) WatchRetire(clock *uint64) uint64 {
	if p.sys.watchdog == nil {
		return ^uint64(0)
	}
	return p.sys.watchdog.watch(clock)
}

// NoteRetire records a retirement on this core for the shared watchdog;
// a core that is only a ProgressMonitor calls it after CheckProgress. A
// no-op without a watchdog.
func (p *CorePort) NoteRetire(now uint64) {
	if p.sys.watchdog != nil {
		p.sys.watchdog.NoteRetire(now)
	}
}

// CheckProgress aborts with a *LivelockError panic when no core has
// retired an instruction and no memory event has drained for the shared
// watchdog's stall threshold. The core calls it at a commit, before
// NoteRetire, so a pathological jump in completion cycles is caught. A
// no-op without a watchdog.
func (p *CorePort) CheckProgress(now uint64) {
	cs := p.sys
	if cs.watchdog == nil || !cs.watchdog.stalled(now) {
		return
	}
	panic(cs.watchdog.livelock(now, false, cs.DiagnosticDump(now)))
}

// Drain lets all outstanding traffic land; call once, after every core's
// thread has finished.
func (cs *CoRunSystem) Drain() {
	for {
		next, ok := cs.nextArrival()
		if !ok {
			break
		}
		cs.Advance(next)
	}
	if cs.checkInv {
		cs.mustHoldInvariants(cs.cursor)
	}
}

// CheckInvariants audits the hierarchy and returns a descriptive error for
// the first violation found: per-core MSHR bounds, agreement between the
// inflight table, the arrival queue, the line pool, the cancelled-entry
// count and every core's prefetch slot count, arbiter fairness (the
// starvation bound), engine self-audits, per-core stats identities,
// shared-L2 identities, pollution symmetry, and per-core ledger bounds.
func (cs *CoRunSystem) CheckInvariants() error {
	for _, p := range cs.ports {
		if n, size := p.mshr.BusyAt(cs.cursor), p.mshr.Size(); size > 0 {
			if n > size {
				return fmt.Errorf("core %d: L2 MSHR occupancy %d exceeds capacity %d", p.id, n, size)
			}
			if pk := p.mshr.Peak(); pk > size {
				return fmt.Errorf("core %d: L2 MSHR peak %d exceeds capacity %d", p.id, pk, size)
			}
		}
	}

	// Queue / table / pool / slot-count agreement.
	cancelled, entries := 0, 0
	var qerr error
	cs.arrivals.forEach(func(idx int32) {
		entries++
		ln := cs.pool.at(idx)
		if ln.cancelled {
			cancelled++
			return
		}
		got, ok := cs.inflight.Get(ln.block)
		if !ok && qerr == nil {
			qerr = fmt.Errorf("arrival queue entry %#x missing from inflight table", ln.block)
		}
		if ok && got != idx && qerr == nil {
			qerr = fmt.Errorf("inflight table entry %#x does not match its queue entry", ln.block)
		}
		if o := cs.ownerOf(ln.block); (o < 0 || o >= len(cs.ports)) && qerr == nil {
			qerr = fmt.Errorf("inflight line %#x owned by no core (asid %d)", ln.block, o)
		}
	})
	if qerr != nil {
		return qerr
	}
	if entries != cs.arrivals.len() {
		return fmt.Errorf("arrival queue size %d does not match bucket contents %d",
			cs.arrivals.len(), entries)
	}
	if cs.pool.live() != entries {
		return fmt.Errorf("line pool holds %d live slots, arrival queue %d entries",
			cs.pool.live(), entries)
	}
	if live := entries - cancelled; cs.inflight.Len() != live {
		return fmt.Errorf("inflight table holds %d lines, arrival queue %d live entries",
			cs.inflight.Len(), live)
	}
	if cancelled != cs.cancelled {
		return fmt.Errorf("cancelled-entry count %d does not match queue contents %d",
			cs.cancelled, cancelled)
	}
	for _, p := range cs.ports {
		livePF := 0
		cs.arrivals.forEach(func(idx int32) {
			if ln := cs.pool.at(idx); ln.prefetch && !ln.cancelled && cs.ownerOf(ln.block) == p.id {
				livePF++
			}
		})
		if livePF != p.inflightPF {
			return fmt.Errorf("core %d: inflight prefetch count %d does not match queue contents %d",
				p.id, p.inflightPF, livePF)
		}
	}
	// No hard cap check on inflightPF: software PREFs are demand-priority
	// and legitimately overshoot the pump's MaxInflightPrefetches limit.

	// The arbiter's round-robin starvation bound. A tampered or buggy
	// arbiter that skips a schedulable core surfaces here.
	if err := cs.arb.CheckFairness(); err != nil {
		return err
	}

	// Engine self-audits and per-core stats identities: late prefetches
	// merged a demand with an issued prefetch, cancellations and ledger
	// classes never exceed issues.
	var issuedAll uint64
	for _, p := range cs.ports {
		if ch, ok := p.Engine.(prefetch.Checker); ok {
			if err := ch.CheckInvariants(); err != nil {
				return fmt.Errorf("core %d engine %s: %w", p.id, p.Engine.Name(), err)
			}
		}
		issued := p.stats.PrefetchesIssued
		if p.stats.PrefetchLates > p.stats.InflightMerges {
			return fmt.Errorf("core %d: late prefetches %d exceed inflight merges %d",
				p.id, p.stats.PrefetchLates, p.stats.InflightMerges)
		}
		if p.stats.PrefetchesCancelled > issued {
			return fmt.Errorf("core %d: cancelled prefetches %d exceed issued %d",
				p.id, p.stats.PrefetchesCancelled, issued)
		}
		if l1 := p.L1.Stats(); !cs.cfg.L1.Perfect && l1.Hits+l1.Misses != l1.Accesses {
			return fmt.Errorf("core %d: L1 hits %d + misses %d != accesses %d",
				p.id, l1.Hits, l1.Misses, l1.Accesses)
		}
		// Attribution ledger bounds (full conservation is checked by core
		// after Finalize; mid-run, only the running bounds hold).
		if p.ledger != nil {
			if got := p.ledger.Issued(); got != issued {
				return fmt.Errorf("core %d: ledger issued %d does not match stats %d", p.id, got, issued)
			}
			if c := p.ledger.Classified(); c > issued {
				return fmt.Errorf("core %d: ledger classified %d exceeds issued %d", p.id, c, issued)
			}
		}
		issuedAll += issued
	}

	// Every useful/useless-counted line entered the L2 as a prefetch fill,
	// and fills never exceed issues.
	if l2 := cs.L2.Stats(); !cs.cfg.L2.Perfect {
		if l2.PrefetchFills > issuedAll {
			return fmt.Errorf("L2 prefetch fills %d exceed prefetches issued %d",
				l2.PrefetchFills, issuedAll)
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

	// Every polluting eviction has exactly one perpetrator and one victim.
	var caused, suffered uint64
	for _, p := range cs.ports {
		caused += p.pollutionCaused
		suffered += p.pollutionSuffered
	}
	if caused != suffered {
		return fmt.Errorf("cross-core pollution caused %d != suffered %d", caused, suffered)
	}
	return nil
}

// mustHoldInvariants aborts via an *InvariantError panic on a violation.
func (cs *CoRunSystem) mustHoldInvariants(now uint64) {
	if err := cs.CheckInvariants(); err != nil {
		panic(&InvariantError{Cycle: now, Violation: err.Error(), Dump: cs.DiagnosticDump(now)})
	}
}

// DiagnosticDump renders the memory system's live state — the pump
// cursor, the in-flight table, and per core the prefetch budget, the
// prioritizer holding register, the MSHR file and the prefetch engine —
// for watchdog and invariant abort reports.
func (cs *CoRunSystem) DiagnosticDump(now uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "memsys state at cycle %d (%d cores):\n", now, len(cs.ports))
	fmt.Fprintf(&b, "  pump: cursor=%d lastSubmit=%d advance=%d prioritizer=%v\n",
		cs.cursor, cs.lastSubmit, cs.advanceID, cs.prioritizer)
	fmt.Fprintf(&b, "  inflight: %d lines, %d cancelled in queue, %d queue entries\n",
		cs.inflight.Len(), cs.cancelled, cs.arrivals.len())
	if idx := cs.arrivals.peek(); idx >= 0 {
		ln := cs.pool.at(idx)
		fmt.Fprintf(&b, "  next arrival: block %#x (core %d) at cycle %d\n",
			ln.block, cs.ownerOf(ln.block), ln.doneAt)
	}
	if len(cs.ports) > 1 {
		fmt.Fprintf(&b, "  arbiter: grants=%v\n", cs.arb.Grants())
	}
	for _, p := range cs.ports {
		fmt.Fprintf(&b, "  core %d: engine=%s", p.id, p.Engine.Name())
		if ql, ok := p.Engine.(prefetch.QueueLenner); ok {
			fmt.Fprintf(&b, " queue=%d", ql.QueueLen())
		}
		fmt.Fprintf(&b, " pf=%d/%d heldValid=%v", p.inflightPF, cs.cfg.MaxInflightPrefetches, p.heldValid)
		if p.heldValid {
			fmt.Fprintf(&b, " held=%#x", p.held)
		}
		fmt.Fprintf(&b, " mshr=%d/%d peak=%d pressure=%d\n",
			p.mshr.BusyAt(cs.cursor), p.mshr.Size(), p.mshr.Peak(), p.mshr.Pressure())
		fmt.Fprintf(&b, "    stats: loads=%d stores=%d merges=%d pf_issued=%d pf_cancelled=%d holds=%d pollution=%d/%d\n",
			p.stats.Loads, p.stats.Stores, p.stats.InflightMerges, p.stats.PrefetchesIssued,
			p.stats.PrefetchesCancelled, p.stats.PrioritizerHolds, p.pollutionCaused, p.pollutionSuffered)
	}
	if cs.faults != nil {
		fmt.Fprintf(&b, "  faults: %v\n", cs.faults.Counts())
	}
	return b.String()
}
