// Package cpu models the out-of-order processor core of the paper's
// evaluation platform (Section 5.1): a 4-way issue core with a 64-entry
// RUU/reorder buffer, a bimodal branch predictor, and non-blocking caches.
//
// The model is timing-directed functional simulation: instructions execute
// functionally in program order (the oracle path), and a dependence- and
// resource-constrained scheduler assigns each instruction fetch, issue,
// completion and commit cycles. The reorder buffer bounds how far fetch
// runs ahead of commit, which is what limits memory-level parallelism;
// branch mispredictions insert fetch bubbles until the branch resolves.
// Wrong-path cache effects are not modeled (see DESIGN.md).
package cpu

import (
	"fmt"
	"unsafe"

	"grp/internal/isa"
	"grp/internal/mem"
	"grp/internal/metrics"
)

// MemoryTiming is the interface the core drives; *sim.CorePort (and the
// one-port *sim.MemSystem view) implements it, as do the perfect-memory
// stubs in tests.
type MemoryTiming interface {
	// Load returns the completion cycle of a load issued at cycle now.
	Load(pc, addr uint64, hint isa.Hint, coeff uint8, now uint64) uint64
	// Store returns the completion cycle of a store issued at cycle now.
	Store(pc, addr uint64, now uint64) uint64
	// SetBound forwards a SETBOUND instruction's value.
	SetBound(v uint64)
	// Indirect forwards a PREFI instruction.
	Indirect(indexAddr, base uint64, shift uint)
	// SoftwarePrefetch issues a non-binding PREF for addr at cycle now.
	SoftwarePrefetch(addr, now uint64)
}

// ProgressMonitor is an optional MemoryTiming capability: a memory system
// with a forward-progress watchdog receives retirement notifications and
// may abort a livelocked run from CheckProgress. At a commit the thread
// calls CheckProgress and then NoteRetire, both before its own retire
// clock moves, so a pathological jump in completion cycles is detected
// rather than absorbed. A plain ProgressMonitor gets both calls at every
// commit; a RetireWatcher gets them only at commits that land outside its
// stall window.
type ProgressMonitor interface {
	// NoteRetire records an instruction retirement at cycle now.
	NoteRetire(now uint64)
	// CheckProgress may abort the run (sim panics with a structured
	// error; see sim.RecoverAbort) when no progress has been observed for
	// the watchdog's threshold.
	CheckProgress(now uint64)
}

// RetireWatcher is an optional ProgressMonitor capability that takes the
// watchdog off the per-commit path. Commit cycles are monotone, so a
// monitor that reads the thread's retire clock itself needs no
// retirement notes, and a commit at most window cycles after the previous
// one cannot be a stall.
type RetireWatcher interface {
	// WatchRetire hands the monitor the thread's retire clock, the cycle
	// of its latest commit, which the monitor reads whenever it needs the
	// last retirement. It returns the stall window: CheckProgress cannot
	// abort at a commit that lands at most window cycles after the
	// thread's previous one. The thread calls it once, when it starts.
	WatchRetire(clock *uint64) (window uint64)
}

// lineBytes is the host cache line. Types the core writes on every
// committed instruction occupy whole lines: a size that is a multiple of
// it puts them in a Go size class whose slots start on line boundaries,
// so two simulations on two host threads never write the same line.
// Above 512 bytes the allocator puts an 8-byte header in front of
// objects that hold pointers, which moves them off the boundary, so these
// types stay at or under 512 bytes. TestHotTypesFillWholeLines pins both.
const lineBytes = 64

// Config describes the core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	MemPorts    int
	// BranchPenalty is the front-end refill delay after a mispredicted
	// branch resolves.
	BranchPenalty uint64
	// PredictorEntries sizes the bimodal predictor (power of two).
	PredictorEntries int

	// MaxInstrs bounds simulated instruction count; 0 means unlimited
	// (run to HALT).
	MaxInstrs uint64

	// LegacyScheduler selects the pre-overhaul map-based slot tables
	// instead of the epoch-tagged ring buffers. Cycle-identical by
	// construction; kept only as the reference engine behind
	// core.Options.LegacyEngine.
	LegacyScheduler bool

	// Cancel, when non-nil, is polled every few thousand instructions; a
	// non-nil return aborts the run with that error. It carries deadline
	// and shutdown signals into a simulation whose natural unit of
	// progress is the committed instruction, not wall time.
	Cancel func() error
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 ||
		c.ROBSize <= 0 || c.MemPorts <= 0 {
		return fmt.Errorf("cpu: nonpositive width in config")
	}
	if n := c.PredictorEntries; n != 0 && n&(n-1) != 0 {
		return fmt.Errorf("cpu: predictor entries %d not a power of two", n)
	}
	return nil
}

// Default returns the paper's core: 4-way, 64-entry window.
func Default() Config {
	return Config{
		FetchWidth:       4,
		IssueWidth:       4,
		CommitWidth:      4,
		ROBSize:          64,
		MemPorts:         2,
		BranchPenalty:    7,
		PredictorEntries: 4096,
		MaxInstrs:        0,
	}
}

// Result summarizes one run.
type Result struct {
	Instrs      uint64
	Cycles      uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	Halted      bool // reached HALT (vs. instruction budget)
}

// IPC returns committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// opLatency returns execution latency for non-memory operations.
func opLatency(op isa.Op) uint64 {
	switch op {
	case isa.OpMul, isa.OpMuli:
		return 3
	case isa.OpDiv, isa.OpRem:
		return 12
	default:
		return 1
	}
}

// slotWindow is the ring's cycle span. It is a perf knob, not a
// correctness bound: probes further than this ahead of the fetch frontier
// fall back to the spill map.
const slotWindow = 1 << 15

// slotTable tracks per-cycle resource usage (issue slots, memory ports).
//
// The default representation is an epoch-tagged ring buffer: slot
// c&(slotWindow-1) holds the count for cycle c while epoch records which
// cycle the entry belongs to. Every probe happens at a cycle strictly
// above the fetch frontier (reserveWith receives it), and the frontier is
// monotonic, so any entry whose epoch is at or below it is dead and can
// be reclaimed in place — no eager clearing, no per-entry allocation, no
// hashing on the hot path. The count for a cycle lives in exactly one
// place: the ring iff the cycle is inside the window and owns its slot
// (epoch match); otherwise the spill map. Reclaiming a dead slot pulls
// any spill count for the new cycle into the ring, which keeps that
// invariant across frontier advances. Far-future probes (≥ slotWindow
// ahead) and live ring collisions go to the spill map, which stays empty
// in practice.
//
// The pre-overhaul sparse map lives on behind legacy for the reference
// engine; both representations reserve identical cycles.
type slotTable struct {
	limit uint8

	ring  []uint8  // per-cycle counts, indexed by cycle & (slotWindow-1)
	epoch []uint64 // cycle each ring entry belongs to
	base  uint64   // fetch frontier: cycles ≤ base are dead
	spill map[uint64]uint8

	legacy bool
	counts map[uint64]uint8
}

func newSlotTable(limit int, legacy bool) *slotTable {
	s := &slotTable{limit: uint8(limit), legacy: legacy}
	if legacy {
		s.counts = make(map[uint64]uint8)
	} else {
		s.ring = make([]uint8, slotWindow)
		s.epoch = make([]uint64, slotWindow)
		s.spill = make(map[uint64]uint8)
	}
	return s
}

// countAt returns the reservation count at cycle c (c > s.base).
func (s *slotTable) countAt(c uint64) uint8 {
	if c-s.base < slotWindow {
		idx := c & (slotWindow - 1)
		switch {
		case s.epoch[idx] == c:
			return s.ring[idx]
		case s.epoch[idx] <= s.base:
			return s.spill[c] // dead slot; any count for c is spilled
		}
	}
	return s.spill[c]
}

// claim records one reservation at cycle c (c > s.base).
func (s *slotTable) claim(c uint64) {
	if c-s.base < slotWindow {
		idx := c & (slotWindow - 1)
		if s.epoch[idx] == c {
			s.ring[idx]++
			return
		}
		if s.epoch[idx] <= s.base {
			// Reclaim the dead slot, absorbing any spilled count so the
			// cycle's tally lives in exactly one place.
			s.epoch[idx] = c
			v := s.spill[c]
			if v != 0 {
				delete(s.spill, c)
			}
			s.ring[idx] = v + 1
			return
		}
	}
	s.spill[c]++
}

// reserveWith finds the first cycle >= at with a free slot in both s and
// (when other != nil) other, and claims one slot in each. frontier is the
// caller's fetch cycle: every probe, now and in the future, is strictly
// above it, which is what licenses in-place reclamation of older entries.
func (s *slotTable) reserveWith(at, frontier uint64, other *slotTable) uint64 {
	if s.legacy {
		for {
			if s.counts[at] < s.limit && (other == nil || other.counts[at] < other.limit) {
				s.counts[at]++
				if other != nil {
					other.counts[at]++
				}
				return at
			}
			at++
		}
	}
	if frontier > s.base {
		s.base = frontier
	}
	if other != nil && frontier > other.base {
		other.base = frontier
	}
	for {
		if s.countAt(at) < s.limit && (other == nil || other.countAt(at) < other.limit) {
			s.claim(at)
			if other != nil {
				other.claim(at)
			}
			return at
		}
		at++
	}
}

func (s *slotTable) pruneBelow(c uint64) {
	if s.legacy {
		if len(s.counts) < 1<<15 {
			return
		}
		for k := range s.counts {
			if k < c {
				delete(s.counts, k)
			}
		}
		return
	}
	// The ring self-reclaims; only dead spill entries need sweeping.
	for k := range s.spill {
		if k < c {
			delete(s.spill, k)
		}
	}
}

// Core simulates one program on one memory system. Its register file is
// written on every instruction, so the struct is padded to whole host
// cache lines.
type Core struct {
	coreState
	_ [(lineBytes - unsafe.Sizeof(coreState{})%lineBytes) % lineBytes]byte
}

type coreState struct {
	cfg  Config
	mem  *mem.Memory
	msys MemoryTiming

	regs    [isa.NumRegs]uint64 // functional register file
	predict []uint8             // 2-bit bimodal counters
	monitor ProgressMonitor     // non-nil when msys watches progress

	// live is the most recently started thread. Telemetry probes fire
	// from inside the memory system, i.e. mid-run, and read its commit
	// progress to compute live IPC; the simulation is single-goroutine.
	live *Thread
}

// Progress returns the committed instruction count and last commit cycle
// of the run in progress (or of the finished run after Run returns).
func (c *Core) Progress() (instrs, cycles uint64) {
	if c.live == nil {
		return 0, 0
	}
	return c.live.res.Instrs, c.live.res.Cycles
}

// RegisterMetrics registers live core-progress gauges under "cpu.".
func (c *Core) RegisterMetrics(reg *metrics.Registry) {
	reg.MustGauge("cpu.instrs", func() float64 {
		instrs, _ := c.Progress()
		return float64(instrs)
	})
	reg.MustGauge("cpu.cycles", func() float64 {
		_, cycles := c.Progress()
		return float64(cycles)
	})
	reg.MustGauge("cpu.ipc", func() float64 {
		instrs, cycles := c.Progress()
		if cycles == 0 {
			return 0
		}
		return float64(instrs) / float64(cycles)
	})
}

// New builds a core over functional memory m and timing model msys, or
// reports why the configuration is invalid.
func New(cfg Config, m *mem.Memory, msys MemoryTiming) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.PredictorEntries
	if n == 0 {
		n = 4096
	}
	c := &Core{coreState: coreState{cfg: cfg, mem: m, msys: msys, predict: make([]uint8, n)}}
	c.monitor, _ = msys.(ProgressMonitor)
	return c, nil
}

// pendStore is a recent store kept for load forwarding: block address,
// size, data-ready cycle, and the cycle it leaves the store buffer.
type pendStore struct {
	addr   uint64
	size   int
	ready  uint64
	commit uint64
}

// Thread is an in-flight run that advances one committed instruction per
// Step call. It holds all scheduler state Run used to keep on its stack,
// so a co-run driver can interleave several threads over one shared
// memory system; a Thread stepped to completion is cycle-identical to
// Run on the same program. Step writes it on every instruction, so the
// struct is padded to whole host cache lines.
type Thread struct {
	threadState
	_ [(lineBytes - unsafe.Sizeof(threadState{})%lineBytes) % lineBytes]byte
}

type threadState struct {
	c   *Core
	p   *isa.Program
	res Result

	regReady  [isa.NumRegs]uint64
	robCommit []uint64 // commit cycle by ROB slot

	issueSlots *slotTable
	memSlots   *slotTable

	fetchCycle       uint64
	fetchedThisCycle int
	// lastCommitCycle is the thread's retire clock. A RetireWatcher
	// monitor reads it in place instead of being told of each commit.
	lastCommitCycle   uint64
	commitsThisCycle  int
	storeAddrReadyMax uint64 // all older stores' addresses known by here

	// checkGap is how far past the previous commit a commit must land
	// before the monitor hears of it: 0 calls it at every commit, the
	// stall window plus one for a RetireWatcher, never without a monitor.
	checkGap uint64

	// recentStores is a ring of the last len(recentStores) stores, kept
	// for load forwarding; storeNext is the slot the next store takes and
	// storeCount how many slots hold a store.
	recentStores []pendStore
	storeNext    int
	storeCount   int

	pc     int
	budget uint64
	i      uint64
	done   bool
}

// Done reports whether the thread has halted, exhausted its budget, or
// failed; Step is a no-op afterwards.
func (t *Thread) Done() bool { return t.done }

// Result returns the (possibly partial) run summary accumulated so far.
func (t *Thread) Result() Result { return t.res }

// LastCommitCycle returns the cycle the most recent instruction
// committed at — the thread's notion of local time, used by a co-run
// driver to step the core that is furthest behind.
func (t *Thread) LastCommitCycle() uint64 { return t.lastCommitCycle }

// Start validates the program and returns a Thread positioned before its
// first instruction. The core's functional state (registers, predictor)
// is shared with the thread, matching Run's semantics.
func (c *Core) Start(p *isa.Program) (*Thread, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := &Thread{threadState: threadState{
		c:            c,
		p:            p,
		robCommit:    make([]uint64, c.cfg.ROBSize),
		issueSlots:   newSlotTable(c.cfg.IssueWidth, c.cfg.LegacyScheduler),
		memSlots:     newSlotTable(c.cfg.MemPorts, c.cfg.LegacyScheduler),
		fetchCycle:   1,
		recentStores: make([]pendStore, c.cfg.ROBSize),
		checkGap:     ^uint64(0),
	}}
	t.budget = c.cfg.MaxInstrs
	if t.budget == 0 {
		t.budget = 1 << 62
	}
	if c.monitor != nil {
		t.checkGap = 0
		if w, ok := c.monitor.(RetireWatcher); ok {
			t.checkGap = w.WatchRetire(&t.lastCommitCycle)
			if t.checkGap < ^uint64(0) {
				t.checkGap++ // only gaps beyond the window
			}
		}
	}
	c.live = t
	return t, nil
}

// Run executes the program to HALT or the instruction budget and returns
// timing results. It returns an error for malformed programs or runaway
// execution without a budget.
func (c *Core) Run(p *isa.Program) (Result, error) {
	t, err := c.Start(p)
	if err != nil {
		return Result{}, err
	}
	for !t.Done() {
		if err := t.Step(); err != nil {
			return t.res, err
		}
	}
	return t.res, nil
}

// Step fetches, executes, schedules and commits exactly one instruction.
// A Step on a finished thread is a no-op. On error the thread is marked
// done and the partial result stays readable via Result.
func (t *Thread) Step() error {
	if t.done {
		return nil
	}
	c := t.c
	p := t.p
	i := t.i
	{
		// A masked countdown keeps the cancellation poll off the per-
		// instruction hot path; 4096 instructions of slack is microseconds
		// of wall time.
		if cancel := c.cfg.Cancel; cancel != nil && i&4095 == 4095 {
			if err := cancel(); err != nil {
				t.done = true
				return fmt.Errorf("cpu: %s: run cancelled: %w", p.Name, err)
			}
		}
		pc := t.pc
		if pc < 0 || pc >= len(p.Instrs) {
			t.done = true
			return fmt.Errorf("cpu: %s: pc %d out of range", p.Name, pc)
		}
		in := p.Instrs[pc]

		// --- Fetch slot ---
		if t.fetchedThisCycle >= c.cfg.FetchWidth {
			t.fetchCycle++
			t.fetchedThisCycle = 0
		}
		fetchAt := t.fetchCycle
		// ROB space: the slot we are about to reuse must have committed.
		slot := int(i) % c.cfg.ROBSize
		if t.robCommit[slot] > fetchAt {
			fetchAt = t.robCommit[slot]
			t.fetchCycle = fetchAt
			t.fetchedThisCycle = 0
		}
		t.fetchedThisCycle++

		// --- Functional execute (oracle path) ---
		a, b := in.Uses()
		v1, v2 := c.regs[a], c.regs[b]
		var value uint64
		var addr uint64
		var taken bool
		switch in.Op {
		case isa.OpNop, isa.OpHalt:
		case isa.OpLi:
			value = uint64(in.Imm)
		case isa.OpMov:
			value = v1
		case isa.OpAdd:
			value = v1 + v2
		case isa.OpSub:
			value = v1 - v2
		case isa.OpMul:
			value = v1 * v2
		case isa.OpDiv:
			if v2 != 0 {
				value = uint64(int64(v1) / int64(v2))
			}
		case isa.OpRem:
			if v2 != 0 {
				value = uint64(int64(v1) % int64(v2))
			}
		case isa.OpAnd:
			value = v1 & v2
		case isa.OpOr:
			value = v1 | v2
		case isa.OpXor:
			value = v1 ^ v2
		case isa.OpShl:
			value = v1 << (v2 & 63)
		case isa.OpShr:
			value = v1 >> (v2 & 63)
		case isa.OpSlt:
			if int64(v1) < int64(v2) {
				value = 1
			}
		case isa.OpAddi:
			value = v1 + uint64(in.Imm)
		case isa.OpMuli:
			value = v1 * uint64(in.Imm)
		case isa.OpAndi:
			value = v1 & uint64(in.Imm)
		case isa.OpOri:
			value = v1 | uint64(in.Imm)
		case isa.OpXori:
			value = v1 ^ uint64(in.Imm)
		case isa.OpShli:
			value = v1 << (uint64(in.Imm) & 63)
		case isa.OpShri:
			value = v1 >> (uint64(in.Imm) & 63)
		case isa.OpSlti:
			if int64(v1) < in.Imm {
				value = 1
			}
		case isa.OpLd, isa.OpLd4, isa.OpLd1:
			addr = v1 + uint64(in.Imm)
			value = c.mem.Read(addr, in.MemSize())
		case isa.OpSt, isa.OpSt4, isa.OpSt1:
			addr = v1 + uint64(in.Imm)
			c.mem.Write(addr, in.MemSize(), v2)
		case isa.OpBeq:
			taken = v1 == v2
		case isa.OpBne:
			taken = v1 != v2
		case isa.OpBlt:
			taken = int64(v1) < int64(v2)
		case isa.OpBge:
			taken = int64(v1) >= int64(v2)
		case isa.OpJmp:
			taken = true
		case isa.OpSetBound:
			c.msys.SetBound(v1)
		case isa.OpPrefIndirect:
			c.msys.Indirect(v1, v2, uint(in.Imm)&63)
		case isa.OpPref:
			addr = v1 + uint64(in.Imm)
		}

		// --- Schedule: ready, issue, complete ---
		readyAt := fetchAt + 1 // decode/rename
		if t.regReady[a] > readyAt {
			readyAt = t.regReady[a]
		}
		if t.regReady[b] > readyAt {
			readyAt = t.regReady[b]
		}
		var doneAt uint64
		ipc := uint64(pc) // instruction address for the stride table

		switch {
		case in.Op == isa.OpPref:
			// A software prefetch consumes an issue slot and a memory
			// port like a load — its runtime overhead is the point of the
			// comparison — but binds no register and never stalls.
			issueAt := t.issueSlots.reserveWith(readyAt, t.fetchCycle, t.memSlots)
			c.msys.SoftwarePrefetch(addr, issueAt)
			doneAt = issueAt + 1
		case in.IsLoad():
			t.res.Loads++
			// Conservative disambiguation: wait for all older stores'
			// addresses.
			if t.storeAddrReadyMax > readyAt {
				readyAt = t.storeAddrReadyMax
			}
			issueAt := t.issueSlots.reserveWith(readyAt, t.fetchCycle, t.memSlots)
			// Forward from an in-flight older store to the same address,
			// scanning newest first.
			forwarded := false
			j := t.storeNext
			for k := 0; k < t.storeCount; k++ {
				if j == 0 {
					j = len(t.recentStores)
				}
				j--
				st := &t.recentStores[j]
				if st.commit <= issueAt {
					continue
				}
				if overlaps(st.addr, st.size, addr, in.MemSize()) {
					d := st.ready
					if issueAt > d {
						d = issueAt
					}
					doneAt = d + 1
					forwarded = true
					break
				}
			}
			if !forwarded {
				doneAt = c.msys.Load(ipc, addr, in.Hint, in.Coeff, issueAt)
			}
		case in.IsStore():
			t.res.Stores++
			issueAt := t.issueSlots.reserveWith(readyAt, t.fetchCycle, t.memSlots)
			// The store enters the store buffer; the cache access happens
			// in the background and does not block commit.
			c.msys.Store(ipc, addr, issueAt)
			doneAt = issueAt + 1
			if readyAt > t.storeAddrReadyMax {
				t.storeAddrReadyMax = readyAt
			}
			t.recentStores[t.storeNext] = pendStore{
				addr: addr, size: in.MemSize(), ready: doneAt, commit: doneAt + 2,
			}
			if t.storeNext++; t.storeNext == len(t.recentStores) {
				t.storeNext = 0
			}
			if t.storeCount < len(t.recentStores) {
				t.storeCount++
			}
		default:
			issueAt := t.issueSlots.reserveWith(readyAt, t.fetchCycle, nil)
			doneAt = issueAt + opLatency(in.Op)
		}

		// --- Writeback ---
		if d := in.Defines(); d != 0 {
			t.regReady[d] = doneAt
			c.regs[d] = value
		}

		// --- Branch resolution ---
		if in.IsBranch() {
			t.res.Branches++
			if in.IsConditional() {
				idx := pc & (len(c.predict) - 1)
				predTaken := c.predict[idx] >= 2
				if predTaken != taken {
					t.res.Mispredicts++
					// Fetch resumes after the branch resolves.
					if doneAt+c.cfg.BranchPenalty > t.fetchCycle {
						t.fetchCycle = doneAt + c.cfg.BranchPenalty
						t.fetchedThisCycle = 0
					}
				}
				if taken && c.predict[idx] < 3 {
					c.predict[idx]++
				} else if !taken && c.predict[idx] > 0 {
					c.predict[idx]--
				}
			}
		}

		// --- Commit (in order) ---
		cAt := doneAt + 1
		if cAt < t.lastCommitCycle {
			cAt = t.lastCommitCycle
		}
		if cAt == t.lastCommitCycle && t.commitsThisCycle >= c.cfg.CommitWidth {
			cAt++
		}
		if cAt-t.lastCommitCycle >= t.checkGap && c.monitor != nil {
			// The check precedes the retirement note and the clock update:
			// an instruction whose completion cycle leapt past the stall
			// threshold must trip the watchdog, not silently refresh it.
			c.monitor.CheckProgress(cAt)
			c.monitor.NoteRetire(cAt)
		}
		if cAt > t.lastCommitCycle {
			t.lastCommitCycle = cAt
			t.commitsThisCycle = 0
		}
		t.commitsThisCycle++
		t.robCommit[slot] = cAt
		t.res.Instrs++
		t.res.Cycles = cAt

		if i%(1<<16) == 0 {
			t.issueSlots.pruneBelow(t.fetchCycle)
			t.memSlots.pruneBelow(t.fetchCycle)
		}

		// --- Next PC ---
		if in.Op == isa.OpHalt {
			t.res.Halted = true
			t.done = true
			return nil
		}
		if in.IsBranch() && taken {
			t.pc = in.Target
		} else {
			t.pc = pc + 1
		}
	}
	t.i++
	if t.i >= t.budget {
		t.done = true
	}
	return nil
}

// Regs returns the architectural register file after Run (for tests).
func (c *Core) Regs() [isa.NumRegs]uint64 { return c.regs }

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}
