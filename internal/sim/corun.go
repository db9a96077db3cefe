package sim

import (
	"fmt"
	"strings"

	"grp/internal/attrib"
	"grp/internal/cache"
	"grp/internal/dram"
	"grp/internal/isa"
	"grp/internal/oamap"
	"grp/internal/prefetch"
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

// CoRunSystem is the multi-core memory hierarchy: N core-private L1s and
// prefetch engines over one shared L2 and one shared DRAM controller.
// Each core drives its own CorePort (which implements cpu.MemoryTiming);
// the ports share the in-flight table, the arrival queue, and the
// prefetch pump, whose issue slot each iteration is assigned by the
// round-robin cross-core Arbiter before the candidate faces the
// existing access prioritizer's idle-channel test.
//
// Partitioning: every core gets a private L2 MSHR file and a private
// in-flight prefetch budget of MaxInflightPrefetches, so one core's miss
// burst cannot consume another's slots; contention is confined to the
// shared L2 capacity and the DRAM channels/banks, where it belongs. With
// one core the system is cycle-identical to MemSystem — the equivalence
// battery in internal/conformance proves it over the generated-program
// fleet.
type CoRunSystem struct {
	cfg  MemConfig
	L2   *cache.Cache
	Dram *dram.Controller

	ports []*CorePort
	arb   *Arbiter

	pool     linePool
	inflight *oamap.I32
	arrivals calendarQueue

	cursor      uint64 // prefetch pump has run up to this cycle
	lastSubmit  uint64 // monotonic clamp for request submission times
	nextSeq     uint64 // issue sequence numbers for arrival tie-breaking
	prioritizer bool

	// asidOn gates address translation: with one core the port is the
	// identity map, which is what makes N=1 bit-for-bit equivalent to the
	// single-core system even for programs that touch addresses above the
	// ASID boundary.
	asidOn bool

	// advanceID distinguishes Advance calls so a candidate parked on a
	// busy channel is probed (and its hold counted) once per call, like
	// the single-core pump's hold-and-break.
	advanceID uint64

	watchdog *Watchdog
	checkInv bool
	checkGap uint64
	sinceInv uint64
}

// CorePort is one core's endpoint into a CoRunSystem: a private L1,
// prefetch engine, L2 MSHR partition, and prefetch budget over the
// shared fabric. It implements cpu.MemoryTiming and ProgressMonitor, so
// a cpu.Core (or Thread) drives it exactly as it would a MemSystem.
type CorePort struct {
	sys *CoRunSystem
	id  int

	L1     *cache.Cache
	Engine prefetch.Engine
	mshr   *cache.MSHRFile

	inflightPF int
	held       uint64 // prioritizer holding register (local address)
	heldValid  bool
	parkedID   uint64 // advanceID that parked held on a busy channel

	stats  MemStats
	ledger *attrib.Ledger

	presentFn func(uint64) bool
	rowOpenFn func(uint64) bool

	// Cross-core prefetch pollution, both directions: caused counts this
	// core's prefetch fills that evicted another core's valid
	// demand-resident line; suffered counts this core's lines so evicted.
	pollutionCaused   uint64
	pollutionSuffered uint64
}

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
	}
	cs.arrivals.pool = &cs.pool
	for i := 0; i < n; i++ {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		p := &CorePort{
			sys:    cs,
			id:     i,
			L1:     l1,
			Engine: engines[i],
			mshr:   cache.NewMSHRFile(cfg.L2.MSHRs),
		}
		p.presentFn = p.present
		p.rowOpenFn = p.rowOpen
		cs.ports = append(cs.ports, p)
	}
	return cs, nil
}

// Port returns core i's endpoint.
func (cs *CoRunSystem) Port(i int) *CorePort { return cs.ports[i] }

// Cores returns the core count.
func (cs *CoRunSystem) Cores() int { return len(cs.ports) }

// Arbiter returns the cross-core channel arbiter (for tests and
// diagnostics).
func (cs *CoRunSystem) Arbiter() *Arbiter { return cs.arb }

// SetPrioritizer enables or disables the access prioritizer (see
// MemSystem.SetPrioritizer).
func (cs *CoRunSystem) SetPrioritizer(on bool) { cs.prioritizer = on }

// SetWatchdog arms the shared forward-progress watchdog: a retirement on
// any core counts as progress (a core legitimately stalls while a
// co-runner hogs a channel; the system as a whole must still move). Arm
// it before the cores start their runs.
func (cs *CoRunSystem) SetWatchdog(cfg WatchdogConfig) *Watchdog {
	cs.watchdog = newWatchdog(cfg)
	return cs.watchdog
}

// EnableInvariantChecks turns on the periodic invariant checker (every
// `every` demand accesses across all cores, default 4096 when 0, plus
// once at Drain).
func (cs *CoRunSystem) EnableInvariantChecks(every uint64) {
	cs.checkInv = true
	if every == 0 {
		every = 4096
	}
	cs.checkGap = every
}

// AttachLedger connects core i's prefetch attribution ledger. Each
// core's ledger sees only that core's local addresses, so its summaries
// line up with a solo run of the same workload; cross-core pollution
// lands in the annotation counters, not the taxonomy.
func (p *CorePort) AttachLedger(l *attrib.Ledger) { p.ledger = l }

// Ledger returns core i's attached ledger (nil when detached).
func (p *CorePort) Ledger() *attrib.Ledger { return p.ledger }

// Stats returns this core's hierarchy-level statistics.
func (p *CorePort) Stats() MemStats { return p.stats }

// Pollution returns this core's cross-core pollution counters: prefetch
// evictions of other cores' demand-resident lines it caused, and of its
// own lines it suffered.
func (p *CorePort) Pollution() (caused, suffered uint64) {
	return p.pollutionCaused, p.pollutionSuffered
}

// global maps a core-local address into the shared fabric's space.
func (p *CorePort) global(addr uint64) uint64 {
	if !p.sys.asidOn {
		return addr
	}
	return (addr & coRunASIDMask) | uint64(p.id)<<coRunASIDShift
}

// local strips the ASID bits off a shared-fabric address.
func (cs *CoRunSystem) local(addr uint64) uint64 {
	if !cs.asidOn {
		return addr
	}
	return addr & coRunASIDMask
}

// ownerOf returns the core id owning a shared-fabric address.
func (cs *CoRunSystem) ownerOf(addr uint64) int {
	if !cs.asidOn {
		return 0
	}
	return int(addr >> coRunASIDShift)
}

// present reports whether a core-local block is in the shared L2 or
// already on its way (the engine-facing candidate filter).
func (p *CorePort) present(block uint64) bool {
	g := p.global(block)
	if p.sys.L2.Contains(g) {
		return true
	}
	_, inf := p.sys.inflight.Get(p.sys.L2.BlockAddr(g))
	return inf
}

// rowOpen reports whether a core-local block's DRAM row is open.
func (p *CorePort) rowOpen(block uint64) bool {
	return p.sys.Dram.RowOpen(p.global(block))
}

// popCandidate pops the next prefetch candidate off this core's engine.
func (p *CorePort) popCandidate() (uint64, bool) {
	if opa, isOPA := p.Engine.(prefetch.OpenPageAware); p.sys.cfg.OpenPageFirst && isOPA {
		return opa.PopOpenFirst(p.presentFn, p.rowOpenFn)
	}
	return p.Engine.Pop(p.presentFn)
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
		block, doneAt, pf, attribIdx := ln.block, ln.doneAt, ln.prefetch, ln.attribIdx
		cs.pool.release(idx)
		cs.inflight.Delete(block)
		owner := cs.ports[cs.ownerOf(block)]
		if pf {
			owner.inflightPF--
		}
		if cs.watchdog != nil {
			cs.watchdog.NoteMem(doneAt)
		}
		v, evicted, filled := cs.L2.FillTracked(block, pf, false, attribIdx)
		crossVictim := false
		if evicted {
			if v.Dirty {
				cs.Dram.Submit(v.Addr, dram.Writeback, doneAt)
			}
			vport := cs.ports[cs.ownerOf(v.Addr)]
			crossVictim = vport != owner
			if v.Prefetched {
				// The victim's own lifecycle settles in its owner's ledger.
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
			vport := cs.ports[cs.ownerOf(v.Addr)]
			owner.pollutionCaused++
			vport.pollutionSuffered++
			owner.ledger.CrossCoreVictim(attribIdx)
			vport.ledger.VictimDisplaced(cs.local(v.Addr))
		}
		// Pointer-scanning engines inspect every arriving line of their own
		// core; lines are ASID-tagged, so only the owner scans.
		owner.Engine.OnArrival(cs.local(block))
	}
}

// Advance runs the shared prefetch pump and arrival processing up to
// cycle now. Per iteration the round-robin arbiter picks one schedulable
// core — free prefetch slot, a candidate in its holding register, and
// (with the prioritizer on) a target channel that goes idle inside the
// window — and submits its candidate; issue pacing on the shared command
// path advances the pump by TransferCycles per grant. A candidate whose
// channel stays busy through the whole window parks at its core's
// holding register for the rest of this Advance (channel-free times only
// grow within a window), counting one prioritizer hold, exactly like the
// single-core pump's hold-and-break.
func (cs *CoRunSystem) Advance(now uint64) {
	if now <= cs.cursor {
		cs.processArrivals(cs.cursor)
		return
	}
	cs.advanceID++
	t := cs.cursor
	for t < now {
		if cs.watchdog != nil && cs.watchdog.noteSpin(t) {
			panic(cs.watchdog.livelock(t, true, cs.DiagnosticDump(t)))
		}
		cs.processArrivals(t)

		// Prime: every core with a free prefetch slot gets a candidate into
		// its holding register, dropping candidates that became present
		// while parked (the single-core pump's drop-and-retry).
		capBlocked := false
		for _, p := range cs.ports {
			for {
				if p.inflightPF >= cs.cfg.MaxInflightPrefetches {
					capBlocked = true
					break
				}
				if p.heldValid {
					if p.present(p.held) {
						p.heldValid = false
						p.ledger.DropHeldPresent()
						continue // became cached while held; pop a fresh one
					}
					break
				}
				cand, ok := p.popCandidate()
				if !ok {
					break
				}
				p.held, p.heldValid = cand, true
			}
		}

		granted, ok := cs.arb.Grant(func(c int) bool {
			p := cs.ports[c]
			if !p.heldValid || p.inflightPF >= cs.cfg.MaxInflightPrefetches ||
				p.parkedID == cs.advanceID {
				return false
			}
			if !cs.prioritizer {
				return true
			}
			start := t
			ch, _, _ := cs.Dram.Map(p.global(p.held))
			if free := cs.Dram.ChannelFreeAt(ch); free > start {
				start = free
			}
			if start >= now {
				// The channel never goes idle inside this window: park the
				// candidate rather than delay demands.
				p.parkedID = cs.advanceID
				p.stats.PrioritizerHolds++
				p.ledger.HoldBusy()
				return false
			}
			return true
		})
		if !ok {
			// Nobody can issue in this window. If a core is only waiting
			// for a prefetch slot, jump to the arrival that frees one.
			if capBlocked {
				if next, na := cs.nextArrival(); na && next < now {
					t = next
					continue
				}
			}
			break
		}
		p := cs.ports[granted]
		cand := p.held
		p.heldValid = false
		gcand := p.global(cand)
		start := t
		if cs.prioritizer {
			ch, _, _ := cs.Dram.Map(gcand)
			if free := cs.Dram.ChannelFreeAt(ch); free > start {
				start = free
			}
		}
		done := cs.Dram.Submit(gcand, dram.Prefetch, start)
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

// Load performs a demand load for this core (see MemSystem.Load).
func (p *CorePort) Load(pc, addr uint64, hint isa.Hint, coeff uint8, now uint64) uint64 {
	p.stats.Loads++
	return p.access(pc, addr, false, hint, coeff, now)
}

// Store performs a demand store for this core (see MemSystem.Store).
func (p *CorePort) Store(pc, addr uint64, now uint64) uint64 {
	p.stats.Stores++
	return p.access(pc, addr, true, isa.HintNone, isa.FixedRegion, now)
}

func (p *CorePort) access(pc, addr uint64, write bool, hint isa.Hint, coeff uint8, now uint64) uint64 {
	cs := p.sys
	// Submission times are clamped monotonically across ALL cores: the
	// shared pump's bookkeeping needs nondecreasing time, and the co-run
	// driver steps the thread that is furthest behind, so the clamp also
	// absorbs cross-core issue jitter.
	if now < cs.lastSubmit {
		now = cs.lastSubmit
	}
	cs.lastSubmit = now
	cs.Advance(now)
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
	lb := cs.local(block)

	// Merge with an outstanding miss or in-flight prefetch before probing
	// the L1 (see MemSystem.access). ASID tagging means a merge can only
	// ever hit this core's own line.
	if li, ok := cs.inflight.Get(block); ok {
		ln := cs.pool.at(li)
		p.stats.InflightMerges++
		ln.merged = true
		if ln.prefetch {
			p.stats.PrefetchLates++
			p.Engine.OnDemandHitPrefetched(lb)
			p.ledger.Late(ln.attribIdx)
		}
		p.ledger.Hint(pc, lb)
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
			p.Engine.OnDemandHitPrefetched(lb)
			p.ledger.DemandHit(token)
		}
		p.fillL1(addr, write, now+l1lat+l2lat)
		return now + l1lat + l2lat
	}

	// Demand L2 miss: notify this core's engine, then go to DRAM through
	// this core's MSHR partition.
	p.Engine.OnL2DemandMiss(prefetch.MissEvent{
		PC: pc, Addr: addr, Hint: hint, Coeff: coeff, Present: p.presentFn,
	})
	p.ledger.Hint(pc, lb)

	lookupDone := now + l1lat + l2lat
	start, slot := p.mshr.Reserve(lookupDone)
	dramDone := cs.Dram.Submit(block, dram.Demand, start)
	p.mshr.Complete(slot, dramDone)
	if cs.watchdog != nil {
		cs.watchdog.NoteMem(now)
	}
	cs.addInflight(block, dramDone, false)
	p.fillL1(addr, write, dramDone)
	return dramDone
}

// fillL1 inserts the block into this core's private L1, writing a dirty
// victim back into the shared L2 (or memory).
func (p *CorePort) fillL1(addr uint64, write bool, when uint64) {
	v, evicted := p.L1.Fill(p.L1.BlockAddr(addr), false, write)
	if evicted && v.Dirty {
		g := p.global(v.Addr)
		if !p.sys.L2.MarkDirty(g) {
			p.sys.Dram.Submit(g, dram.Writeback, when)
		}
	}
}

// SoftwarePrefetch performs a non-binding PREF for this core (see
// MemSystem.SoftwarePrefetch).
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
	p.mshr.Complete(slot, done)
	ln := cs.addInflight(block, done, true)
	p.inflightPF++
	if p.ledger != nil {
		ln.attribIdx = p.ledger.Issue(cs.local(block), start, true)
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
// stall window. Without a watchdog it returns the largest window.
func (p *CorePort) WatchRetire(clock *uint64) uint64 {
	if p.sys.watchdog == nil {
		return ^uint64(0)
	}
	return p.sys.watchdog.watch(clock)
}

// NoteRetire forwards a retirement on this core to the shared watchdog.
func (p *CorePort) NoteRetire(now uint64) {
	if p.sys.watchdog != nil {
		p.sys.watchdog.NoteRetire(now)
	}
}

// CheckProgress aborts with a *LivelockError panic when no core has made
// progress for the shared watchdog's stall threshold.
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

// CheckInvariants audits the shared hierarchy: per-core MSHR bounds,
// agreement between the inflight table, the arrival queue, the line pool
// and every core's prefetch slot count, arbiter fairness (the starvation
// bound), engine self-audits, per-core stats identities, shared-L2
// identities, pollution symmetry, and per-core ledger bounds.
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

	// Queue / table / pool / slot-count agreement, per owning core.
	livePF := make([]int, len(cs.ports))
	entries := 0
	var qerr error
	cs.arrivals.forEach(func(idx int32) {
		entries++
		ln := cs.pool.at(idx)
		got, ok := cs.inflight.Get(ln.block)
		if !ok && qerr == nil {
			qerr = fmt.Errorf("arrival queue entry %#x missing from inflight table", ln.block)
		}
		if ok && got != idx && qerr == nil {
			qerr = fmt.Errorf("inflight table entry %#x does not match its queue entry", ln.block)
		}
		if o := cs.ownerOf(ln.block); o < 0 || o >= len(cs.ports) {
			if qerr == nil {
				qerr = fmt.Errorf("inflight line %#x owned by no core (asid %d)", ln.block, o)
			}
		} else if ln.prefetch {
			livePF[o]++
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
	if cs.inflight.Len() != entries {
		return fmt.Errorf("inflight table holds %d lines, arrival queue %d entries",
			cs.inflight.Len(), entries)
	}
	for _, p := range cs.ports {
		if livePF[p.id] != p.inflightPF {
			return fmt.Errorf("core %d: inflight prefetch count %d does not match queue contents %d",
				p.id, p.inflightPF, livePF[p.id])
		}
	}

	// The arbiter's round-robin starvation bound. A tampered or buggy
	// arbiter that skips a schedulable core surfaces here.
	if err := cs.arb.CheckFairness(); err != nil {
		return err
	}

	var issuedAll uint64
	for _, p := range cs.ports {
		if ch, ok := p.Engine.(prefetch.Checker); ok {
			if err := ch.CheckInvariants(); err != nil {
				return fmt.Errorf("core %d engine %s: %w", p.id, p.Engine.Name(), err)
			}
		}
		if p.stats.PrefetchLates > p.stats.InflightMerges {
			return fmt.Errorf("core %d: late prefetches %d exceed inflight merges %d",
				p.id, p.stats.PrefetchLates, p.stats.InflightMerges)
		}
		if l1 := p.L1.Stats(); !cs.cfg.L1.Perfect && l1.Hits+l1.Misses != l1.Accesses {
			return fmt.Errorf("core %d: L1 hits %d + misses %d != accesses %d",
				p.id, l1.Hits, l1.Misses, l1.Accesses)
		}
		if p.ledger != nil {
			if got := p.ledger.Issued(); got != p.stats.PrefetchesIssued {
				return fmt.Errorf("core %d: ledger issued %d does not match stats %d",
					p.id, got, p.stats.PrefetchesIssued)
			}
			if c := p.ledger.Classified(); c > p.stats.PrefetchesIssued {
				return fmt.Errorf("core %d: ledger classified %d exceeds issued %d",
					p.id, c, p.stats.PrefetchesIssued)
			}
		}
		issuedAll += p.stats.PrefetchesIssued
	}

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

// DiagnosticDump renders the co-run system's live state for watchdog and
// invariant abort reports.
func (cs *CoRunSystem) DiagnosticDump(now uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "corun state at cycle %d (%d cores):\n", now, len(cs.ports))
	fmt.Fprintf(&b, "  pump: cursor=%d lastSubmit=%d advance=%d\n", cs.cursor, cs.lastSubmit, cs.advanceID)
	fmt.Fprintf(&b, "  inflight: %d lines, %d queue entries\n", cs.inflight.Len(), cs.arrivals.len())
	if idx := cs.arrivals.peek(); idx >= 0 {
		ln := cs.pool.at(idx)
		fmt.Fprintf(&b, "  next arrival: block %#x (core %d) at cycle %d\n",
			ln.block, cs.ownerOf(ln.block), ln.doneAt)
	}
	fmt.Fprintf(&b, "  arbiter: grants=%v\n", cs.arb.Grants())
	for _, p := range cs.ports {
		fmt.Fprintf(&b, "  core %d: engine=%s pf=%d/%d heldValid=%v mshr=%d/%d loads=%d stores=%d pf_issued=%d holds=%d pollution=%d/%d\n",
			p.id, p.Engine.Name(), p.inflightPF, cs.cfg.MaxInflightPrefetches,
			p.heldValid, p.mshr.BusyAt(cs.cursor), p.mshr.Size(),
			p.stats.Loads, p.stats.Stores, p.stats.PrefetchesIssued,
			p.stats.PrioritizerHolds, p.pollutionCaused, p.pollutionSuffered)
	}
	return b.String()
}
