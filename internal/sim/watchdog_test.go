package sim

import (
	"errors"
	"fmt"
	"testing"

	"grp/internal/cpu"
	"grp/internal/dram"
	"grp/internal/isa"
	"grp/internal/mem"
	"grp/internal/prefetch"
)

func TestWatchdogStallDetection(t *testing.T) {
	w := newWatchdog(WatchdogConfig{StallCycles: 100})
	w.NoteRetire(50)
	if w.stalled(120) {
		t.Error("fired inside the threshold window")
	}
	if !w.stalled(200) {
		t.Error("did not fire 150 idle cycles past the last retirement")
	}
	w.NoteMem(190) // a drained memory event counts as progress too
	if w.stalled(250) {
		t.Error("fired despite recent memory progress")
	}
	w.NoteRetire(10) // stale, out-of-order note must not rewind progress
	if w.lastRetire != 50 {
		t.Errorf("lastRetire rewound to %d", w.lastRetire)
	}
}

func TestWatchdogSpinCounter(t *testing.T) {
	w := newWatchdog(WatchdogConfig{SpinEvents: 3})
	for i := 0; i < 3; i++ {
		if w.noteSpin(7) {
			t.Fatalf("fired after only %d same-cycle events", i+1)
		}
	}
	if !w.noteSpin(7) {
		t.Error("did not fire past the same-cycle threshold")
	}
	if w.noteSpin(8) {
		t.Error("advancing to a new cycle must reset the spin counter")
	}
}

func TestRecoverAbortRepanicsForeign(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RecoverAbort swallowed an unrelated panic")
		}
	}()
	func() {
		var err error
		defer RecoverAbort(&err)
		panic("unrelated")
	}()
}

// endlessEngine always has another uncached candidate, modeling a buggy
// engine that can wedge the pump when the DRAM model costs zero cycles.
type endlessEngine struct {
	prefetch.Null
	next uint64
}

func (e *endlessEngine) Pop(func(uint64) bool) (uint64, bool) {
	e.next += 64
	return e.next, true
}

// TestWatchdogSpinFires wedges the pump for real: a zero-latency DRAM
// (deliberately allowed by dram.Validate) plus an endless candidate
// stream means the issue loop never advances time. The same-cycle spin
// detector must abort with a diagnostic dump instead of hanging.
func TestWatchdogSpinFires(t *testing.T) {
	ms, err := NewMemSystem(spinConfig(), &endlessEngine{})
	if err != nil {
		t.Fatal(err)
	}
	ms.SetWatchdog(WatchdogConfig{SpinEvents: 10_000})
	err = func() (err error) {
		defer RecoverAbort(&err)
		ms.Load(0, 0x1000, isa.HintNone, isa.FixedRegion, 100)
		ms.Advance(1_000_000)
		return nil
	}()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("expected a LivelockError, got %v", err)
	}
	if !ll.Spin {
		t.Errorf("expected a spin livelock, got stall: %v", ll)
	}
	if ll.Dump == "" {
		t.Error("livelock abort carried no diagnostic dump")
	}
}

// spinConfig is a memory configuration whose pump spins as soon as an
// endlessEngine gets a candidate to it: DRAM transfers cost zero cycles.
func spinConfig() MemConfig {
	cfg := DefaultMemConfig()
	cfg.DRAM = dram.Config{Channels: 1, BanksPerChannel: 1, RowBytes: 2048, BlockBytes: 64}
	return cfg
}

// countThenLoad retires a counting loop of n iterations, then issues one
// load, which starts the prefetch pump.
func countThenLoad(t *testing.T, n int) *isa.Program {
	t.Helper()
	p, err := isa.Assemble("count", fmt.Sprintf(`
	li r1, 0
	li r2, %d
loop:
	addi r1, r1, 1
	blt r1, r2, loop
	li r3, 4096
	ld r4, 0(r3)
	halt
`, n))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWatchdogSpinReadsLiveRetireClock: a spin abort fired from inside
// the pump reports the last retirement of the core that drove it there.
// The core no longer notes each commit, so the watchdog must read the
// core's retire clock.
func TestWatchdogSpinReadsLiveRetireClock(t *testing.T) {
	ms, err := NewMemSystem(spinConfig(), &endlessEngine{})
	if err != nil {
		t.Fatal(err)
	}
	ms.SetWatchdog(WatchdogConfig{SpinEvents: 10_000})
	c, err := cpu.New(cpu.Default(), mem.New(), ms)
	if err != nil {
		t.Fatal(err)
	}
	err = func() (err error) {
		defer RecoverAbort(&err)
		_, err = c.Run(countThenLoad(t, 50))
		return err
	}()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("expected a LivelockError, got %v", err)
	}
	if !ll.Spin || ll.Cycle != 0 || ll.LastRetire != 82 || ll.LastMem != 0 {
		t.Errorf("spin abort at cycle %d (last retire %d, last memory event %d, spin %v), want cycle 0 (82, 0, spin)",
			ll.Cycle, ll.LastRetire, ll.LastMem, ll.Spin)
	}
}

// TestCoRunSpinReadsEveryRetireClock: in a co-run the spin abort's last
// retirement is the latest on any core, here core 0's, while core 1's
// load spins the pump.
func TestCoRunSpinReadsEveryRetireClock(t *testing.T) {
	cs, err := NewCoRunSystem(spinConfig(), []prefetch.Engine{&endlessEngine{}, &endlessEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	cs.SetWatchdog(WatchdogConfig{SpinEvents: 10_000})
	var threads []*cpu.Thread
	for i, n := range []int{400, 50} {
		c, err := cpu.New(cpu.Default(), mem.New(), cs.Port(i))
		if err != nil {
			t.Fatal(err)
		}
		th, err := c.Start(countThenLoad(t, n))
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	err = func() (err error) {
		defer RecoverAbort(&err)
		// The co-run driver's interleave: step the unfinished thread
		// furthest behind, the lower core on ties.
		for {
			best := -1
			for i, th := range threads {
				if !th.Done() && (best < 0 || th.LastCommitCycle() < threads[best].LastCommitCycle()) {
					best = i
				}
			}
			if best < 0 {
				return nil
			}
			if err := threads[best].Step(); err != nil {
				return err
			}
		}
	}()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("expected a LivelockError, got %v", err)
	}
	if !ll.Spin || ll.Cycle != 0 || ll.LastRetire != 83 || ll.LastMem != 0 {
		t.Errorf("spin abort at cycle %d (last retire %d, last memory event %d, spin %v), want cycle 0 (83, 0, spin)",
			ll.Cycle, ll.LastRetire, ll.LastMem, ll.Spin)
	}
	if a, b := threads[0].LastCommitCycle(), threads[1].LastCommitCycle(); a != 83 || b != 82 {
		t.Errorf("retire clocks %d, %d; want 83 on the counting core, 82 on the spinning one", a, b)
	}
}

func TestInvariantCheckerDetectsCorruption(t *testing.T) {
	ms := newSys(prefetch.NewSRP())
	ms.Load(0, 0x2000, isa.HintNone, isa.FixedRegion, 100)
	ms.Drain()
	if err := ms.CheckInvariants(); err != nil {
		t.Fatalf("healthy system failed audit: %v", err)
	}
	ms.inflightPF++ // corrupt the pump slot accounting
	if err := ms.CheckInvariants(); err == nil {
		t.Error("slot-accounting corruption went undetected")
	}
	ms.inflightPF--

	ms.stats.PrefetchLates = ms.stats.InflightMerges + 1 // break a stats identity
	if err := ms.CheckInvariants(); err == nil {
		t.Error("stats-identity corruption went undetected")
	}
}

func TestMustHoldInvariantsAborts(t *testing.T) {
	ms := newSys(prefetch.NewNull())
	ms.inflightPF = 99
	err := func() (err error) {
		defer RecoverAbort(&err)
		ms.mustHoldInvariants(123)
		return nil
	}()
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("expected an InvariantError, got %v", err)
	}
	if ie.Cycle != 123 || ie.Dump == "" {
		t.Errorf("diagnostic incomplete: cycle=%d dump=%q", ie.Cycle, ie.Dump)
	}
}
