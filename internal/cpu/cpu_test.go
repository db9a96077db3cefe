package cpu

import (
	"testing"

	"grp/internal/isa"
	"grp/internal/mem"
)

// flatMem is a fixed-latency MemoryTiming for core-only tests.
type flatMem struct {
	lat    uint64
	bounds []uint64
}

func (f *flatMem) Load(_, _ uint64, _ isa.Hint, _ uint8, now uint64) uint64 { return now + f.lat }
func (f *flatMem) Store(_, _ uint64, now uint64) uint64                     { return now + f.lat }
func (f *flatMem) SetBound(v uint64)                                        { f.bounds = append(f.bounds, v) }
func (f *flatMem) Indirect(_, _ uint64, _ uint)                             {}
func (f *flatMem) SoftwarePrefetch(_, _ uint64)                             {}

func run(t *testing.T, src string, m *mem.Memory) (*Core, Result) {
	t.Helper()
	p, err := isa.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if m == nil {
		m = mem.New()
	}
	c := mustNew(t, Default(), m, &flatMem{lat: 3})
	res, err := c.Run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c, res
}

func TestALUOps(t *testing.T) {
	src := `
	li r1, 20
	li r2, 6
	add r3, r1, r2    ; 26
	sub r4, r1, r2    ; 14
	mul r5, r1, r2    ; 120
	div r6, r1, r2    ; 3
	rem r7, r1, r2    ; 2
	and r8, r1, r2    ; 4
	or  r9, r1, r2    ; 22
	xor r10, r1, r2   ; 18
	shl r11, r1, r2   ; 1280
	shr r12, r1, r2   ; 0
	slt r13, r2, r1   ; 1
	slt r14, r1, r2   ; 0
	addi r15, r1, -5  ; 15
	muli r16, r1, 3   ; 60
	andi r17, r1, 7   ; 4
	ori  r18, r1, 1   ; 21
	xori r19, r1, 1   ; 21
	shli r20, r1, 2   ; 80
	shri r21, r1, 2   ; 5
	slti r22, r1, 21  ; 1
	mov r23, r1       ; 20
	halt
`
	c, _ := run(t, src, nil)
	want := map[int]uint64{
		3: 26, 4: 14, 5: 120, 6: 3, 7: 2, 8: 4, 9: 22, 10: 18,
		11: 1280, 12: 0, 13: 1, 14: 0, 15: 15, 16: 60, 17: 4,
		18: 21, 19: 21, 20: 80, 21: 5, 22: 1, 23: 20,
	}
	regs := c.Regs()
	for r, w := range want {
		if regs[r] != w {
			t.Errorf("r%d = %d, want %d", r, regs[r], w)
		}
	}
}

func TestDivRemByZero(t *testing.T) {
	src := `
	li r1, 9
	li r2, 0
	div r3, r1, r2
	rem r4, r1, r2
	halt
`
	c, _ := run(t, src, nil)
	if c.Regs()[3] != 0 || c.Regs()[4] != 0 {
		t.Error("division by zero should produce 0, not crash")
	}
}

func TestR0AlwaysZero(t *testing.T) {
	src := `
	li r0, 99
	addi r0, r0, 5
	mov r1, r0
	halt
`
	c, _ := run(t, src, nil)
	if c.Regs()[1] != 0 {
		t.Errorf("r0 = %d through r1, want 0", c.Regs()[1])
	}
}

func TestLoadStoreSizes(t *testing.T) {
	m := mem.New()
	m.Write64(0x1000, 0x1122334455667788)
	src := `
	li r1, 4096
	ld  r2, 0(r1)
	ld4 r3, 0(r1)
	ld1 r4, 0(r1)
	st  r2, 64(r1)
	st4 r2, 128(r1)
	st1 r2, 192(r1)
	halt
`
	c, _ := run(t, src, m)
	if c.Regs()[2] != 0x1122334455667788 {
		t.Errorf("ld = %#x", c.Regs()[2])
	}
	if c.Regs()[3] != 0x55667788 {
		t.Errorf("ld4 = %#x", c.Regs()[3])
	}
	if c.Regs()[4] != 0x88 {
		t.Errorf("ld1 = %#x", c.Regs()[4])
	}
	if m.Read64(0x1040) != 0x1122334455667788 {
		t.Error("st failed")
	}
	if m.Read32(0x1080) != 0x55667788 {
		t.Error("st4 failed")
	}
	if m.Read(0x10c0, 1) != 0x88 {
		t.Error("st1 failed")
	}
}

func TestBranches(t *testing.T) {
	// Count down from 10; every branch type participates.
	src := `
	li r1, 10
	li r2, 0
loop:
	addi r2, r2, 1
	addi r1, r1, -1
	bne r1, r0, loop
	beq r2, r2, over
	li r3, 111     ; skipped
over:
	blt r0, r2, done
	li r4, 222     ; skipped
done:
	bge r2, r0, end
	li r5, 333     ; skipped
end:
	halt
`
	c, res := run(t, src, nil)
	if c.Regs()[2] != 10 {
		t.Errorf("loop count = %d", c.Regs()[2])
	}
	if c.Regs()[3] != 0 || c.Regs()[4] != 0 || c.Regs()[5] != 0 {
		t.Error("branch fallthrough executed skipped code")
	}
	if res.Branches == 0 {
		t.Error("branches not counted")
	}
}

func TestStoreLoadForwardingValue(t *testing.T) {
	src := `
	li r1, 8192
	li r2, 77
	st r2, 0(r1)
	ld r3, 0(r1)
	halt
`
	c, _ := run(t, src, nil)
	if c.Regs()[3] != 77 {
		t.Errorf("load after store = %d, want 77", c.Regs()[3])
	}
}

func TestMispredictionPenaltyVisible(t *testing.T) {
	// A data-dependent alternating branch mispredicts often with a
	// bimodal predictor; a never-taken branch does not. Compare cycles.
	alternating := `
	li r1, 0
	li r2, 2048
	li r5, 0
loop:
	andi r3, r1, 1
	beq r3, r0, even
	addi r5, r5, 1
even:
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`
	steady := `
	li r1, 0
	li r2, 2048
	li r5, 0
loop:
	andi r3, r1, 1
	beq r3, r3, even   ; always taken, perfectly predictable
	addi r5, r5, 1
even:
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`
	_, resAlt := run(t, alternating, nil)
	_, resSteady := run(t, steady, nil)
	if resAlt.Mispredicts < 500 {
		t.Errorf("alternating branch should mispredict often, got %d", resAlt.Mispredicts)
	}
	if resSteady.Mispredicts > 50 {
		t.Errorf("steady branch should predict well, got %d", resSteady.Mispredicts)
	}
	if resAlt.Cycles <= resSteady.Cycles {
		t.Errorf("mispredictions should cost cycles: alt=%d steady=%d", resAlt.Cycles, resSteady.Cycles)
	}
}

func TestROBLimitsMemoryParallelism(t *testing.T) {
	// Independent long-latency loads: a larger window overlaps more of
	// them, so it finishes sooner.
	src := `
	li r1, 65536
	li r2, 512
	li r5, 0
loop:
	ld r3, 0(r1)
	add r5, r5, r3
	addi r1, r1, 4096
	addi r2, r2, -1
	bne r2, r0, loop
	halt
`
	p, err := isa.Assemble("mlp", src)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(rob int) uint64 {
		cfg := Default()
		cfg.ROBSize = rob
		c := mustNew(t, cfg, mem.New(), &flatMem{lat: 200})
		res, err := c.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	small := runWith(8)
	large := runWith(64)
	if large >= small {
		t.Errorf("bigger window should be faster: rob8=%d rob64=%d", small, large)
	}
}

func TestSetBoundReachesMemory(t *testing.T) {
	src := `
	li r1, 12
	setbound r1
	halt
`
	p, _ := isa.Assemble("sb", src)
	fm := &flatMem{lat: 3}
	c := mustNew(t, Default(), mem.New(), fm)
	if _, err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(fm.bounds) != 1 || fm.bounds[0] != 12 {
		t.Errorf("bounds = %v", fm.bounds)
	}
}

func TestInstructionBudget(t *testing.T) {
	src := `
loop:
	addi r1, r1, 1
	jmp loop
`
	p, _ := isa.Assemble("inf", src)
	cfg := Default()
	cfg.MaxInstrs = 1000
	c := mustNew(t, cfg, mem.New(), &flatMem{lat: 3})
	res, err := c.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Error("infinite loop cannot halt")
	}
	if res.Instrs != 1000 {
		t.Errorf("instrs = %d, want budget 1000", res.Instrs)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
	li r1, 65536
	li r2, 300
	li r5, 0
loop:
	ld r3, 0(r1)
	st r3, 8(r1)
	addi r1, r1, 64
	addi r2, r2, -1
	bne r2, r0, loop
	halt
`
	p, _ := isa.Assemble("det", src)
	var prev Result
	for i := 0; i < 3; i++ {
		c := mustNew(t, Default(), mem.New(), &flatMem{lat: 50})
		res, err := c.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res != prev {
			t.Fatalf("run %d differs: %+v vs %+v", i, res, prev)
		}
		prev = res
	}
}

func TestIPC(t *testing.T) {
	var r Result
	if r.IPC() != 0 {
		t.Error("zero-cycle IPC should be 0")
	}
	r.Instrs, r.Cycles = 100, 50
	if r.IPC() != 2 {
		t.Error("IPC arithmetic")
	}
}

func TestBadProgramRejected(t *testing.T) {
	c := mustNew(t, Default(), mem.New(), &flatMem{lat: 3})
	if _, err := c.Run(&isa.Program{Name: "empty"}); err == nil {
		t.Error("empty program should error")
	}
}

// TestValidateBounds: widths above what a slot table counts and ROB
// sizes above maxROBSize are rejected before Start allocates anything;
// the limits themselves are accepted.
func TestValidateBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Config)
		ok   bool
	}{
		{"rob at limit", func(c *Config) { c.ROBSize = maxROBSize }, true},
		{"rob over limit", func(c *Config) { c.ROBSize = maxROBSize + 1 }, false},
		{"rob two billion", func(c *Config) { c.ROBSize = 2000000000 }, false},
		{"widths at limit", func(c *Config) {
			c.FetchWidth, c.IssueWidth, c.CommitWidth, c.MemPorts = maxWidth, maxWidth, maxWidth, maxWidth
		}, true},
		{"issue 256", func(c *Config) { c.IssueWidth = 256 }, false},
		{"ports 256", func(c *Config) { c.MemPorts = 256 }, false},
		{"fetch 1000", func(c *Config) { c.FetchWidth = 1000 }, false},
		{"commit 256", func(c *Config) { c.CommitWidth = 256 }, false},
		{"ports 0", func(c *Config) { c.MemPorts = 0 }, false},
	} {
		cfg := Default()
		tc.edit(&cfg)
		_, err := New(cfg, mem.New(), &flatMem{lat: 1})
		if (err == nil) != tc.ok {
			t.Errorf("%s: New error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// mustNew constructs a Core and fails the test on a config error.
func mustNew(t *testing.T, cfg Config, m *mem.Memory, msys MemoryTiming) *Core {
	t.Helper()
	c, err := New(cfg, m, msys)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStoreHeavyStepAllocs: once warm, stepping a loop of stores
// allocates nothing. The store-forwarding window is a fixed ring, so
// keeping the last ROBSize stores never reallocates.
func TestStoreHeavyStepAllocs(t *testing.T) {
	p, err := isa.Assemble("stores", `
	li r1, 8192
	li r2, 0
loop:
	st r2, 0(r1)
	st r2, 8(r1)
	st4 r2, 16(r1)
	ld r3, 8(r1)
	addi r2, r2, 1
	jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	c := mustNew(t, Default(), mem.New(), &flatMem{lat: 3})
	th, err := c.Start(p)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		for k := 0; k < 1000; k++ {
			if err := th.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	step() // warm up: first-touch pages, slot rings
	if a := testing.AllocsPerRun(50, step); a != 0 {
		t.Errorf("store-heavy Step allocates %.1f times per 1000 instructions, want 0", a)
	}
	if th.Result().Stores == 0 {
		t.Fatal("loop retired no stores")
	}
}

// commitLog is a ProgressMonitor that records the cycle of every call
// and, when it hands out a stall window, the thread's retire clock at
// each CheckProgress.
type commitLog struct {
	flatMem
	clock   *uint64
	checks  []uint64 // CheckProgress arguments
	notes   []uint64 // NoteRetire arguments
	clockAt []uint64 // *clock at each CheckProgress
}

func (l *commitLog) CheckProgress(now uint64) {
	l.checks = append(l.checks, now)
	if l.clock != nil {
		l.clockAt = append(l.clockAt, *l.clock)
	}
}

func (l *commitLog) NoteRetire(now uint64) { l.notes = append(l.notes, now) }

// windowLog is a commitLog that is also a RetireWatcher.
type windowLog struct {
	commitLog
	window uint64
}

func (l *windowLog) WatchRetire(clock *uint64) uint64 {
	l.clock = clock
	return l.window
}

// TestMonitorCallsOutsideStallWindow: a plain ProgressMonitor hears of
// every commit, check before note; a RetireWatcher hears only of commits
// landing more than its window after the previous one, and at each such
// check its retire clock still reads that previous commit. The windows
// sit on either side of a commit gap the program produces, so an
// off-by-one in either direction changes which commits are heard.
func TestMonitorCallsOutsideStallWindow(t *testing.T) {
	p, err := isa.Assemble("loads", `
	li r1, 8192
	li r2, 0
	li r4, 300
loop:
	ld r3, 0(r1)
	mul r5, r5, r3
	add r5, r5, r3
	addi r1, r1, 64
	addi r2, r2, 1
	blt r2, r4, loop
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	plain := &commitLog{flatMem: flatMem{lat: 40}}
	res, err := mustNew(t, Default(), mem.New(), plain).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(plain.checks)) != res.Instrs || len(plain.notes) != len(plain.checks) {
		t.Fatalf("plain monitor: %d checks, %d notes for %d commits", len(plain.checks), len(plain.notes), res.Instrs)
	}
	gaps := map[uint64]bool{}
	prev := uint64(0)
	for i, c := range plain.checks {
		if plain.notes[i] != c {
			t.Fatalf("commit %d: check at %d, note at %d", i, c, plain.notes[i])
		}
		gaps[c-prev] = true
		prev = c
	}
	// The second-largest gap, so both windows leave some commits outside.
	var top, next uint64
	for g := range gaps {
		if g > top {
			top, next = g, top
		} else if g > next {
			next = g
		}
	}
	if next < 2 {
		t.Fatalf("commit gaps %v do not exercise the window", gaps)
	}

	for _, window := range []uint64{next - 1, next} {
		w := &windowLog{commitLog: commitLog{flatMem: flatMem{lat: 40}}, window: window}
		if _, err := mustNew(t, Default(), mem.New(), w).Run(p); err != nil {
			t.Fatal(err)
		}
		// The commits more than window after the previous one, and that
		// previous commit.
		var want, wantPrev []uint64
		prev := uint64(0)
		for _, c := range plain.checks {
			if c-prev > window {
				want, wantPrev = append(want, c), append(wantPrev, prev)
			}
			prev = c
		}
		if len(w.checks) != len(want) {
			t.Fatalf("window %d: monitor heard of %d commits, want %d", window, len(w.checks), len(want))
		}
		for i, c := range w.checks {
			if c != want[i] || w.notes[i] != c {
				t.Fatalf("window %d, call %d: check %d, note %d; want %d", window, i, c, w.notes[i], want[i])
			}
			if at := w.clockAt[i]; at != wantPrev[i] {
				t.Errorf("window %d, call %d at %d: retire clock read %d, want the previous commit %d", window, i, c, at, wantPrev[i])
			}
		}
	}
}
