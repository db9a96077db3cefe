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

	// Cancel, when non-nil, is polled every few thousand instructions; a
	// non-nil return aborts the run with that error. It carries deadline
	// and shutdown signals into a simulation whose natural unit of
	// progress is the committed instruction, not wall time.
	Cancel func() error
}

// Limits on the sizes Validate accepts. The slot tables count
// reservations in a uint8, so a width above maxWidth would wrap; ROB
// entries cost host memory at Start (a commit cycle and a store-buffer
// entry each), so maxROBSize, 64 times the paper's window, keeps a sweep
// value from exhausting the host.
const (
	maxWidth   = 255
	maxROBSize = 4096
)

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 ||
		c.ROBSize <= 0 || c.MemPorts <= 0 {
		return fmt.Errorf("cpu: nonpositive width in config")
	}
	if c.FetchWidth > maxWidth || c.IssueWidth > maxWidth ||
		c.CommitWidth > maxWidth || c.MemPorts > maxWidth {
		return fmt.Errorf("cpu: width above %d in config", maxWidth)
	}
	if c.ROBSize > maxROBSize {
		return fmt.Errorf("cpu: ROB size %d above %d", c.ROBSize, maxROBSize)
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

// uopKind is the scheduling class of a decoded instruction.
type uopKind uint8

const (
	kindALU   uopKind = iota // an issue slot; done opLatency cycles later
	kindLoad                 // an issue slot and a memory port; may forward
	kindStore                // an issue slot and a memory port; buffered
	kindPref                 // a software prefetch: a load that binds nothing
)

// uop is one instruction as Step needs it: isa.Instr's predicates and
// opLatency evaluated once per program, at Start, instead of once per
// executed instruction. A thread owns its decoded program, so concurrent
// cells never share one.
type uop struct {
	imm    int64
	target int
	op     isa.Op
	kind   uopKind
	src1   uint8 // Instr.Uses
	src2   uint8
	dst    uint8 // Instr.Defines
	size   uint8 // Instr.MemSize
	lat    uint8 // opLatency
	hint   isa.Hint
	coeff  uint8
	branch bool // Instr.IsBranch
	cond   bool // Instr.IsConditional
}

// decode builds the uop for in.
func decode(in isa.Instr) uop {
	u := uop{
		imm:    in.Imm,
		target: in.Target,
		op:     in.Op,
		dst:    in.Defines(),
		size:   uint8(in.MemSize()),
		lat:    uint8(opLatency(in.Op)),
		hint:   in.Hint,
		coeff:  in.Coeff,
		branch: in.IsBranch(),
		cond:   in.IsConditional(),
	}
	u.src1, u.src2 = in.Uses()
	switch {
	case in.Op == isa.OpPref:
		u.kind = kindPref
	case in.IsLoad():
		u.kind = kindLoad
	case in.IsStore():
		u.kind = kindStore
	}
	return u
}

// slotWindow is the ring's cycle span. It is a perf knob, not a
// correctness bound: probes further than this ahead of the fetch frontier
// fall back to the spill map. Over a pass of the small grid every probe
// landed under 2^11 cycles above the frontier, and co-run cells under
// 2^12, so 2^12 keeps the spill map empty while the two tables of a
// thread cost 8 KB (DESIGN.md §10 has the histogram).
const slotWindow = 1 << 12

// slotTable tracks per-cycle resource usage (issue slots, memory ports).
//
// The default representation is a ring of one byte per cycle: slot
// c&(slotWindow-1) holds the count of cycle c while base < c ≤
// base+slotWindow, where base is the fetch frontier. Every probe happens
// at a cycle strictly above the frontier (reserveWith receives it), and
// the frontier is monotonic, so when it moves the cycles it passes are
// dead: advance zeroes their slots, which become the slots of the cycles
// entering at the top of the window, and pulls in any counts spilled for
// those. The count for a cycle lives in exactly one place: the ring iff
// the cycle is inside the window, otherwise the spill map. Probes beyond
// the window go to the spill map, which stays empty in practice.
type slotTable struct {
	limit uint8

	ring  []uint8 // per-cycle counts, indexed by cycle & (slotWindow-1)
	base  uint64  // fetch frontier: cycles ≤ base are dead
	spill map[uint64]uint8
}

func newSlotTable(limit int) *slotTable {
	return &slotTable{limit: uint8(limit), ring: make([]uint8, slotWindow), spill: make(map[uint64]uint8)}
}

// inWindow reports whether cycle c's count lives in the ring.
func (s *slotTable) inWindow(c uint64) bool { return c-s.base-1 < slotWindow }

// advance moves the frontier up to frontier (> s.base): the slots of the
// cycles it passes are zeroed and taken over by the cycles entering the
// window, along with any counts spilled for them.
func (s *slotTable) advance(frontier uint64) {
	old := s.base
	s.base = frontier
	switch d := frontier - old; {
	case d >= slotWindow:
		clear(s.ring)
	case d <= 16:
		for c := old + 1; c <= frontier; c++ {
			s.ring[c&(slotWindow-1)] = 0
		}
	default:
		lo, hi := (old+1)&(slotWindow-1), frontier&(slotWindow-1)
		if lo <= hi {
			clear(s.ring[lo : hi+1])
		} else {
			clear(s.ring[lo:])
			clear(s.ring[:hi+1])
		}
	}
	if len(s.spill) == 0 {
		return
	}
	// The cycles above max(old+slotWindow, frontier) entered the window.
	for c := max(old+slotWindow, frontier) + 1; c <= frontier+slotWindow; c++ {
		if v, ok := s.spill[c]; ok {
			s.ring[c&(slotWindow-1)] = v
			delete(s.spill, c)
		}
	}
}

// countAt returns the reservation count at cycle c (c > s.base).
func (s *slotTable) countAt(c uint64) uint8 {
	if s.inWindow(c) {
		return s.ring[c&(slotWindow-1)]
	}
	return s.spill[c]
}

// claim records one reservation at cycle c (c > s.base).
func (s *slotTable) claim(c uint64) {
	if s.inWindow(c) {
		s.ring[c&(slotWindow-1)]++
	} else {
		s.spill[c]++
	}
}

// reserveWith finds the first cycle >= at with a free slot in both s and
// (when other != nil) other, and claims one slot in each. frontier is the
// caller's fetch cycle: every probe, now and in the future, is strictly
// above it, which is what lets advance retire older cycles.
func (s *slotTable) reserveWith(at, frontier uint64, other *slotTable) uint64 {
	if frontier > s.base {
		s.advance(frontier)
	}
	if other == nil {
		// Probe and claim in one pass while the cycle is in the ring.
		for ; s.inWindow(at); at++ {
			if n := &s.ring[at&(slotWindow-1)]; *n < s.limit {
				*n++
				return at
			}
		}
	} else {
		if frontier > other.base {
			other.advance(frontier)
		}
		for ; s.inWindow(at) && other.inWindow(at); at++ {
			i := at & (slotWindow - 1)
			if n, m := &s.ring[i], &other.ring[i]; *n < s.limit && *m < other.limit {
				*n++
				*m++
				return at
			}
		}
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

// pruneBelow drops spilled counts for cycles below c; the ring retires
// its own cycles.
func (s *slotTable) pruneBelow(c uint64) {
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
	c    *Core
	p    *isa.Program
	code []uop // p.Instrs decoded, indexed by pc
	res  Result

	regReady  [isa.NumRegs]uint64
	robCommit []uint64 // commit cycle by ROB slot

	issueSlots *slotTable
	memSlots   *slotTable

	fetchCycle uint64
	// lastCommitCycle is the thread's retire clock. A RetireWatcher
	// monitor reads it in place instead of being told of each commit.
	lastCommitCycle   uint64
	storeAddrReadyMax uint64 // all older stores' addresses known by here
	// storeCommitMax is the latest cycle at which any store leaves the
	// buffer; a load issued at or after it has nothing to forward from.
	storeCommitMax uint64

	// checkGap is how far past the previous commit a commit must land
	// before the monitor hears of it: 0 calls it at every commit, the
	// stall window plus one for a RetireWatcher, never without a monitor.
	checkGap uint64

	// recentStores is a ring of the last len(recentStores) stores, kept
	// for load forwarding; storeNext is the slot the next store takes and
	// storeCount how many slots hold a store.
	recentStores []pendStore

	// The counters below are bounded by the widths and the ROB size that
	// Validate admits, so they fit in 32 bits.
	fetchedThisCycle int32
	commitsThisCycle int32
	storeNext        int32
	storeCount       int32
	robSlot          int32 // the ROB slot the next instruction takes
	done             bool

	pc     int
	budget uint64
	i      uint64
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
	code := make([]uop, len(p.Instrs))
	for i, in := range p.Instrs {
		code[i] = decode(in)
	}
	t := &Thread{threadState: threadState{
		c:            c,
		p:            p,
		code:         code,
		robCommit:    make([]uint64, c.cfg.ROBSize),
		issueSlots:   newSlotTable(c.cfg.IssueWidth),
		memSlots:     newSlotTable(c.cfg.MemPorts),
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
	i := t.i
	{
		// A masked countdown keeps the cancellation poll off the per-
		// instruction hot path; 4096 instructions of slack is microseconds
		// of wall time.
		if cancel := c.cfg.Cancel; cancel != nil && i&4095 == 4095 {
			if err := cancel(); err != nil {
				t.done = true
				return fmt.Errorf("cpu: %s: run cancelled: %w", t.p.Name, err)
			}
		}
		pc := t.pc
		if uint(pc) >= uint(len(t.code)) {
			t.done = true
			return fmt.Errorf("cpu: %s: pc %d out of range", t.p.Name, pc)
		}
		in := &t.code[pc]

		// --- Fetch slot ---
		if int(t.fetchedThisCycle) >= c.cfg.FetchWidth {
			t.fetchCycle++
			t.fetchedThisCycle = 0
		}
		fetchAt := t.fetchCycle
		// ROB space: the slot we are about to reuse must have committed.
		slot := t.robSlot
		if t.robCommit[slot] > fetchAt {
			fetchAt = t.robCommit[slot]
			t.fetchCycle = fetchAt
			t.fetchedThisCycle = 0
		}
		t.fetchedThisCycle++

		// --- Functional execute (oracle path) ---
		a, b := in.src1, in.src2
		v1, v2 := c.regs[a], c.regs[b]
		var value uint64
		var addr uint64
		var taken bool
		switch in.op {
		case isa.OpNop, isa.OpHalt:
		case isa.OpLi:
			value = uint64(in.imm)
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
			value = v1 + uint64(in.imm)
		case isa.OpMuli:
			value = v1 * uint64(in.imm)
		case isa.OpAndi:
			value = v1 & uint64(in.imm)
		case isa.OpOri:
			value = v1 | uint64(in.imm)
		case isa.OpXori:
			value = v1 ^ uint64(in.imm)
		case isa.OpShli:
			value = v1 << (uint64(in.imm) & 63)
		case isa.OpShri:
			value = v1 >> (uint64(in.imm) & 63)
		case isa.OpSlti:
			if int64(v1) < in.imm {
				value = 1
			}
		case isa.OpLd, isa.OpLd4, isa.OpLd1:
			addr = v1 + uint64(in.imm)
			value = c.mem.Read(addr, int(in.size))
		case isa.OpSt, isa.OpSt4, isa.OpSt1:
			addr = v1 + uint64(in.imm)
			c.mem.Write(addr, int(in.size), v2)
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
			c.msys.Indirect(v1, v2, uint(in.imm)&63)
		case isa.OpPref:
			addr = v1 + uint64(in.imm)
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

		switch in.kind {
		case kindPref:
			// A software prefetch consumes an issue slot and a memory
			// port like a load — its runtime overhead is the point of the
			// comparison — but binds no register and never stalls.
			issueAt := t.issueSlots.reserveWith(readyAt, t.fetchCycle, t.memSlots)
			c.msys.SoftwarePrefetch(addr, issueAt)
			doneAt = issueAt + 1
		case kindLoad:
			t.res.Loads++
			// Conservative disambiguation: wait for all older stores'
			// addresses.
			if t.storeAddrReadyMax > readyAt {
				readyAt = t.storeAddrReadyMax
			}
			issueAt := t.issueSlots.reserveWith(readyAt, t.fetchCycle, t.memSlots)
			// Forward from an in-flight older store to the same address,
			// scanning newest first. When every buffered store has left
			// the buffer by issueAt the scan would find nothing.
			forwarded := false
			if t.storeCommitMax > issueAt {
				j := t.storeNext
				for k := int32(0); k < t.storeCount; k++ {
					if j == 0 {
						j = int32(len(t.recentStores))
					}
					j--
					st := &t.recentStores[j]
					if st.commit <= issueAt {
						continue
					}
					if overlaps(st.addr, st.size, addr, int(in.size)) {
						d := st.ready
						if issueAt > d {
							d = issueAt
						}
						doneAt = d + 1
						forwarded = true
						break
					}
				}
			}
			if !forwarded {
				doneAt = c.msys.Load(ipc, addr, in.hint, in.coeff, issueAt)
			}
		case kindStore:
			t.res.Stores++
			issueAt := t.issueSlots.reserveWith(readyAt, t.fetchCycle, t.memSlots)
			// The store enters the store buffer; the cache access happens
			// in the background and does not block commit.
			c.msys.Store(ipc, addr, issueAt)
			doneAt = issueAt + 1
			if readyAt > t.storeAddrReadyMax {
				t.storeAddrReadyMax = readyAt
			}
			st := pendStore{addr: addr, size: int(in.size), ready: doneAt, commit: doneAt + 2}
			t.recentStores[t.storeNext] = st
			if st.commit > t.storeCommitMax {
				t.storeCommitMax = st.commit
			}
			if t.storeNext++; int(t.storeNext) == len(t.recentStores) {
				t.storeNext = 0
			}
			if int(t.storeCount) < len(t.recentStores) {
				t.storeCount++
			}
		default:
			issueAt := t.issueSlots.reserveWith(readyAt, t.fetchCycle, nil)
			doneAt = issueAt + uint64(in.lat)
		}

		// --- Writeback ---
		if d := in.dst; d != 0 {
			t.regReady[d] = doneAt
			c.regs[d] = value
		}

		// --- Branch resolution ---
		if in.branch {
			t.res.Branches++
			if in.cond {
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
		if cAt == t.lastCommitCycle && int(t.commitsThisCycle) >= c.cfg.CommitWidth {
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
		if slot++; int(slot) == len(t.robCommit) {
			slot = 0
		}
		t.robSlot = slot
		t.res.Instrs++
		t.res.Cycles = cAt

		if i%(1<<16) == 0 {
			t.issueSlots.pruneBelow(t.fetchCycle)
			t.memSlots.pruneBelow(t.fetchCycle)
		}

		// --- Next PC ---
		if in.op == isa.OpHalt {
			t.res.Halted = true
			t.done = true
			return nil
		}
		if in.branch && taken {
			t.pc = in.target
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
