package sim

import (
	"fmt"
	"unsafe"
)

// The forward-progress watchdog exists because a production-scale
// simulator must fail loudly on a wedged queue instead of spinning
// forever. It watches two failure shapes:
//
//   - stall: simulated time advances but nothing retires and no memory
//     event drains for StallCycles — the classic livelock where every
//     component waits on another;
//   - spin: the prefetch pump iterates without simulated time advancing at
//     all (possible only with degenerate configurations, e.g. a
//     zero-cycle DRAM transfer paired with an endless candidate stream).
//
// Both abort the run with a structured diagnostic dump rather than a
// wedge. The abort travels as a panic carrying *LivelockError or
// *InvariantError because it originates deep inside the timing pump,
// whose methods return cycles, not errors; RecoverAbort converts it back
// into an error at the API boundary (core.Run and the drivers).

// WatchdogConfig sets the detection thresholds. Zero fields take the
// defaults below.
type WatchdogConfig struct {
	// StallCycles is how long simulated time may advance with no retired
	// instruction and no drained memory event before the run aborts.
	StallCycles uint64
	// SpinEvents is how many prefetch-pump events may fire at one cycle
	// before the run aborts.
	SpinEvents uint64
}

// Default watchdog thresholds: generous enough that no legitimate run
// trips them (the largest legitimate stall is one DRAM round trip behind
// a full MSHR file, thousands of cycles), small enough to abort quickly.
const (
	DefaultStallCycles = 20_000_000
	DefaultSpinEvents  = 1_000_000
)

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.StallCycles == 0 {
		c.StallCycles = DefaultStallCycles
	}
	if c.SpinEvents == 0 {
		c.SpinEvents = DefaultSpinEvents
	}
	return c
}

// lineBytes is the host cache line. Types the memory system writes on
// every access occupy whole lines, as the core's do (see DESIGN.md §10),
// so two simulations on two host threads never write the same line.
// TestHotTypesFillWholeLines pins the rule.
const lineBytes = 64

// Watchdog tracks forward progress. The zero value is unusable; obtain
// one via CoRunSystem.SetWatchdog.
//
// Retirements reach it two ways. A core that only knows
// cpu.ProgressMonitor notes each one (NoteRetire); a core that knows
// cpu.RetireWatcher hands over its retire clock once (watch), and the
// watchdog reads the clock when it needs the last retirement. Either way
// the last retirement is the latest of all of them, so every abort fires
// at the same cycle with the same fields.
//
// The pump writes the watchdog on every iteration, so the struct is
// padded to whole host cache lines.
type Watchdog struct {
	watchdogState
	_ [(lineBytes - unsafe.Sizeof(watchdogState{})%lineBytes) % lineBytes]byte
}

type watchdogState struct {
	cfg        WatchdogConfig
	lastRetire uint64
	lastMem    uint64
	spinAt     uint64
	spins      uint64
	clocks     []*uint64 // retire clocks of the watching cores' threads
}

func newWatchdog(cfg WatchdogConfig) *Watchdog {
	return &Watchdog{watchdogState: watchdogState{cfg: cfg.withDefaults()}}
}

// NoteRetire records an instruction retirement at cycle now.
func (w *Watchdog) NoteRetire(now uint64) {
	if now > w.lastRetire {
		w.lastRetire = now
	}
}

// watch adds a thread's retire clock and returns the stall window: no
// commit at most StallCycles after the thread's previous one can stall,
// because that commit's predecessor is itself a retirement.
func (w *Watchdog) watch(clock *uint64) uint64 {
	w.clocks = append(w.clocks, clock)
	return w.cfg.StallCycles
}

// retired returns the last retirement: the latest noted one or the
// furthest retire clock.
func (w *Watchdog) retired() uint64 {
	last := w.lastRetire
	for _, c := range w.clocks {
		if *c > last {
			last = *c
		}
	}
	return last
}

// NoteMem records a drained memory event (arrival, submission) at now.
func (w *Watchdog) NoteMem(now uint64) {
	if now > w.lastMem {
		w.lastMem = now
	}
}

// stalled reports whether the stall threshold is exceeded at cycle now.
func (w *Watchdog) stalled(now uint64) bool {
	last := w.retired()
	if w.lastMem > last {
		last = w.lastMem
	}
	return now > last && now-last > w.cfg.StallCycles
}

// livelock builds the abort for a stall or spin detected at cycle.
func (w *Watchdog) livelock(cycle uint64, spin bool, dump string) *LivelockError {
	return &LivelockError{
		Cycle: cycle, LastRetire: w.retired(), LastMem: w.lastMem,
		Spin: spin, Dump: dump,
	}
}

// noteSpin records one pump event at the given cycle and reports whether
// the same-cycle spin threshold is exceeded.
func (w *Watchdog) noteSpin(cycle uint64) bool {
	if cycle != w.spinAt {
		w.spinAt = cycle
		w.spins = 0
	}
	w.spins++
	return w.spins > w.cfg.SpinEvents
}

// LivelockError reports a forward-progress failure, with a diagnostic
// dump of the memory system at the moment of the abort.
type LivelockError struct {
	Cycle      uint64 // cycle at which the watchdog fired
	LastRetire uint64 // last instruction retirement seen
	LastMem    uint64 // last drained memory event seen
	Spin       bool   // true for a same-cycle spin, false for a stall
	Dump       string // structured memory-system state
}

// Error implements error.
func (e *LivelockError) Error() string {
	kind := "stall"
	if e.Spin {
		kind = "spin"
	}
	return fmt.Sprintf("livelock (%s) at cycle %d: last retire %d, last memory event %d\n%s",
		kind, e.Cycle, e.LastRetire, e.LastMem, e.Dump)
}

// InvariantError reports a memory-system invariant violation, with the
// same diagnostic dump.
type InvariantError struct {
	Cycle     uint64
	Violation string
	Dump      string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("invariant violated at cycle %d: %s\n%s", e.Cycle, e.Violation, e.Dump)
}

// RecoverAbort converts a watchdog or invariant panic back into an error.
// Use it in a defer around simulation entry points:
//
//	func run() (err error) {
//		defer sim.RecoverAbort(&err)
//		...
//	}
//
// Panics of any other type propagate unchanged.
func RecoverAbort(err *error) {
	switch r := recover().(type) {
	case nil:
	case *LivelockError:
		*err = r
	case *InvariantError:
		*err = r
	default:
		panic(r)
	}
}
