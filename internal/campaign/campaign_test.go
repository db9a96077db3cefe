package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grp/internal/core"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// testBenches is a small but diverse grid: a dense-spatial kernel, a
// pointer-chaser, and an indirect workload.
var testBenches = []string{"wupwise", "mcf", "bzip2"}

// testSchemes covers everything Table 1 and Figure 12 consume.
var testSchemes = []core.Scheme{
	core.NoPrefetch, core.PerfectL2, core.StridePF, core.SRP, core.GRPFix, core.GRPVar,
}

func testOpt() core.Options { return core.Options{Factor: workloads.Test} }

// suiteFingerprint renders the tables every driver family consumes plus
// the per-cell ArchDigests, so two suites can be compared byte-for-byte.
func suiteFingerprint(t *testing.T, s *core.Suite) string {
	t.Helper()
	var b strings.Builder
	_, t1, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(t1.String())
	f12, err := s.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(f12.String())
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(t3.String())
	for _, bench := range testBenches {
		for _, sc := range testSchemes {
			r := s.Get(bench, sc)
			if r == nil {
				t.Fatalf("missing cell %s/%s", bench, sc)
			}
			fmtDigest(&b, bench, sc, r.ArchDigest)
		}
	}
	return b.String()
}

func fmtDigest(b *strings.Builder, bench string, sc core.Scheme, d uint64) {
	b.WriteString(bench)
	b.WriteByte('/')
	b.WriteString(sc.String())
	b.WriteByte('=')
	const hex = "0123456789abcdef"
	for i := 60; i >= 0; i -= 4 {
		b.WriteByte(hex[(d>>uint(i))&0xf])
	}
	b.WriteByte('\n')
}

// TestParallelMatchesSerial is the determinism contract: the campaign
// engine at 1, 4, and 16 workers produces stats tables and ArchDigests
// byte-identical to the serial core.RunSuite path.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := core.RunSuite(testBenches, testSchemes, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	want := suiteFingerprint(t, serial)
	for _, jobs := range []int{1, 4, 16} {
		s, err := RunSuite(testBenches, testSchemes, testOpt(), Config{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got := suiteFingerprint(t, s); got != want {
			t.Errorf("jobs=%d: parallel suite differs from serial:\n got:\n%s\nwant:\n%s", jobs, got, want)
		}
	}
}

// TestCacheWarmIdentical runs the same campaign cold and then warm from a
// fresh engine: the warm run must be 100% cache hits, simulate nothing,
// and return byte-identical cells.
func TestCacheWarmIdentical(t *testing.T) {
	dir := t.TempDir()
	cells := len(testBenches) * len(testSchemes)

	cold := New(Config{Jobs: 4, Cache: true, CacheDir: dir})
	s1, err := cold.RunSuite(context.Background(), testBenches, testSchemes, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if cs := cold.CacheStats(); cs.Hits != 0 || cs.Stores != uint64(cells) {
		t.Fatalf("cold run: want 0 hits and %d stores, got %+v", cells, cs)
	}

	warm := New(Config{Jobs: 4, Cache: true, CacheDir: dir})
	s2, err := warm.RunSuite(context.Background(), testBenches, testSchemes, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if cs := warm.CacheStats(); cs.Hits != uint64(cells) || cs.Misses != 0 {
		t.Fatalf("warm run: want %d hits and 0 misses, got %+v", cells, cs)
	}

	if f1, f2 := suiteFingerprint(t, s1), suiteFingerprint(t, s2); f1 != f2 {
		t.Errorf("warm suite differs from cold:\n cold:\n%s\nwarm:\n%s", f1, f2)
	}
	// Byte-identical down to the serialized result, not just the tables.
	for _, bench := range testBenches {
		for _, sc := range testSchemes {
			b1, err := json.Marshal(s1.Get(bench, sc))
			if err != nil {
				t.Fatal(err)
			}
			b2, err := json.Marshal(s2.Get(bench, sc))
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Errorf("%s/%s: cached cell differs from cold run", bench, sc)
			}
		}
	}
}

// TestCacheInvalidation checks the fine-grained dirtiness story: an
// option edit re-simulates every cell, while a single scheme-version bump
// re-simulates only that scheme's cells.
func TestCacheInvalidation(t *testing.T) {
	dir := t.TempDir()
	benches := []string{"wupwise", "mcf"}
	schemes := []core.Scheme{core.SRP, core.GRPVar}

	e1 := New(Config{Jobs: 2, Cache: true, CacheDir: dir})
	if _, err := e1.RunSuite(context.Background(), benches, schemes, testOpt()); err != nil {
		t.Fatal(err)
	}

	// A changed knob is a different content address: all cells miss.
	opt := testOpt()
	opt.RecursionDepth = 2
	e2 := New(Config{Jobs: 2, Cache: true, CacheDir: dir})
	if _, err := e2.RunSuite(context.Background(), benches, schemes, opt); err != nil {
		t.Fatal(err)
	}
	if cs := e2.CacheStats(); cs.Hits != 0 || cs.Misses != 4 {
		t.Fatalf("depth edit: want 4 misses, got %+v", cs)
	}

	// Bumping one scheme's version dirties only that scheme's cells.
	old := schemeVersions[core.SRP]
	schemeVersions[core.SRP] = old + 1
	defer func() { schemeVersions[core.SRP] = old }()
	e3 := New(Config{Jobs: 2, Cache: true, CacheDir: dir})
	if _, err := e3.RunSuite(context.Background(), benches, schemes, testOpt()); err != nil {
		t.Fatal(err)
	}
	if cs := e3.CacheStats(); cs.Hits != 2 || cs.Misses != 2 {
		t.Fatalf("SRP version bump: want 2 hits (grp/var) and 2 misses (srp), got %+v", cs)
	}
}

// TestCacheCorruptFileIsMiss ensures a truncated or mismatched cache file
// degrades to a re-simulation, never a bad result.
func TestCacheCorruptFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	benches := []string{"wupwise"}
	schemes := []core.Scheme{core.NoPrefetch}
	e1 := New(Config{Cache: true, CacheDir: dir})
	if _, err := e1.RunSuite(context.Background(), benches, schemes, testOpt()); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want 1 cache file, got %v (%v)", files, err)
	}
	if err := os.WriteFile(files[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := New(Config{Cache: true, CacheDir: dir})
	if _, err := e2.RunSuite(context.Background(), benches, schemes, testOpt()); err != nil {
		t.Fatal(err)
	}
	if cs := e2.CacheStats(); cs.Hits != 0 || cs.Misses != 1 {
		t.Fatalf("corrupt file: want a miss, got %+v", cs)
	}
}

// TestKeyCanonicalization: a nil Mem must hash identically to an explicit
// default config, and every knob must move the digest.
func TestKeyCanonicalization(t *testing.T) {
	base := testOpt()
	k1 := cellKey("mcf", core.GRPVar, base, 42)

	withDefault := base
	cfg := sim.DefaultMemConfig()
	withDefault.Mem = &cfg
	if k2 := cellKey("mcf", core.GRPVar, withDefault, 42); k2.Digest != k1.Digest {
		t.Error("explicit default MemConfig hashes differently from nil")
	}

	distinct := map[string]core.Options{}
	o := base
	o.RecursionDepth = 3
	distinct["depth"] = o
	o = base
	o.OpenPageFirst = true
	distinct["openpage"] = o
	o = base
	o.Metrics = true
	distinct["metrics"] = o
	o = base
	mem2 := sim.DefaultMemConfig()
	mem2.L2.SizeBytes = 512 << 10
	o.Mem = &mem2
	distinct["l2.size"] = o

	seen := map[string]string{k1.Digest: "base"}
	for name, opt := range distinct {
		k := cellKey("mcf", core.GRPVar, opt, 42)
		if prev, dup := seen[k.Digest]; dup {
			t.Errorf("option %s collides with %s", name, prev)
		}
		seen[k.Digest] = name
	}
	if k := cellKey("mcf", core.SRP, base, 42); seen[k.Digest] != "" {
		t.Error("scheme does not move the digest")
	}
	if k := cellKey("mcf", core.GRPVar, base, 43); seen[k.Digest] != "" {
		t.Error("program hash does not move the digest")
	}
}

// TestProgramHash pins the hash to compiled content: stable across calls,
// different across benches, policies, and factors.
func TestProgramHash(t *testing.T) {
	h1, err := programHash("mcf", workloads.Test, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := programHash("mcf", workloads.Test, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("program hash is not deterministic")
	}
	if h3, _ := programHash("art", workloads.Test, 0, false); h3 == h1 {
		t.Error("different benches share a program hash")
	}
	if h4, _ := programHash("mcf", workloads.Small, 0, false); h4 == h1 {
		t.Error("different factors share a program hash")
	}
}

// TestSpecParse exercises the sweep grammar.
func TestSpecParse(t *testing.T) {
	g, err := ParseSpec("schemes=base,srp,grp/var × kernels=mcf,art × l2.size=512K,1M", testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 2 * 2; len(g.Cells) != want {
		t.Fatalf("want %d cells, got %d", want, len(g.Cells))
	}
	// Canonical order: overlays slowest, then bench, then scheme.
	first := g.Cells[0]
	if first.Bench != "mcf" || first.Scheme != core.NoPrefetch || first.OverlayString() != "l2.size=512K" {
		t.Errorf("unexpected first cell %+v", first)
	}
	if first.Opt.Mem == nil || first.Opt.Mem.L2.SizeBytes != 512<<10 {
		t.Error("overlay did not resolve into options")
	}
	last := g.Cells[len(g.Cells)-1]
	if last.Bench != "art" || last.Scheme != core.GRPVar || last.OverlayString() != "l2.size=1M" {
		t.Errorf("unexpected last cell %+v", last)
	}

	// Aliases, "x" separators, and all-expansion.
	g2, err := ParseSpec("schemes=NoPF,GRPVar x kernels=all", testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Cells) != 2*len(workloads.Names()) {
		t.Errorf("kernels=all expanded to %d cells", len(g2.Cells))
	}
	if g2.Schemes[0] != core.NoPrefetch || g2.Schemes[1] != core.GRPVar {
		t.Errorf("aliases resolved to %v", g2.Schemes)
	}

	for _, bad := range []string{
		"schemes=warp",              // unknown scheme
		"kernels=nosuch",            // unknown bench
		"l2.size=banana",            // unparsable size
		"frobnicate=1",              // unknown axis
		"schemes",                   // not key=value
		"depth=4096 × schemes=base", // out of range
		"corun=nosuch",              // unknown co-runner
		"corun=art+nosuch",          // unknown core-2 co-runner
		"corun=+",                   // empty co-runner list
	} {
		if _, err := ParseSpec(bad, testOpt()); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestSpecSRPRegionAxis: srp.region takes 0 and the powers of two in
// [2, 64], and rejects every other size when the spec is parsed, naming
// the field and value.
func TestSpecSRPRegionAxis(t *testing.T) {
	g, err := ParseSpec("schemes=srp × kernels=wupwise × srp.region=0,2,16,64", testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 2, 16, 64} {
		if got := g.Cells[i].Opt.SRPRegionBlocks; got != want {
			t.Errorf("cell %d: SRPRegionBlocks %d, want %d", i, got, want)
		}
	}
	for _, bad := range []string{"1", "3", "48", "100", "128", "-1"} {
		_, err := ParseSpec("schemes=srp × kernels=wupwise × srp.region="+bad, testOpt())
		if err == nil {
			t.Errorf("srp.region=%s parsed without error", bad)
		} else if !strings.Contains(err.Error(), "SRPRegionBlocks "+bad) {
			t.Errorf("srp.region=%s: error %q does not name the field and value", bad, err)
		}
	}
}

// TestSpecSizeAxesBounded: rob, l1.size and l2.size values the core or a
// cache cannot be built with are rejected when the spec is parsed, before
// a cell asks for gigabytes of host memory; grpsweep and grpserve parse
// through ParseSpec, and grpconform's -overlay through ApplyAxis. A
// geometry that only a later axis makes valid still parses.
func TestSpecSizeAxesBounded(t *testing.T) {
	g, err := ParseSpec("schemes=base × kernels=mcf × rob=32,4096 × l2.size=512K,64M", testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 4 || g.Cells[3].Opt.CPU.ROBSize != 4096 || g.Cells[3].Opt.Mem.L2.SizeBytes != 64<<20 {
		t.Fatalf("bounded values resolved to %d cells, last %+v", len(g.Cells), g.Cells[len(g.Cells)-1].Overlay)
	}
	if _, err := ParseSpec("schemes=base × kernels=mcf × l2.size=768K × l2.assoc=3", testOpt()); err != nil {
		t.Errorf("768K over 3 ways: %v", err)
	}
	for _, bad := range []string{
		"rob=2000000000", "rob=4097", "rob=0",
		"l1.size=64G", "l2.size=64G", "l2.size=128M",
		"l2.size=768K", // 1536 sets at the default 8 ways
	} {
		if _, err := ParseSpec("schemes=base × kernels=mcf × "+bad, testOpt()); err == nil {
			t.Errorf("%s parsed without error", bad)
		}
	}
	var o core.Options
	if err := ApplyAxis(&o, "rob", "2000000000"); err == nil {
		t.Error("ApplyAxis accepted rob=2000000000")
	}
}

// TestSpecCoRunAxis: the corun axis lands in Options.CoRun ('+'-joined
// for 3+ cores, "none" = solo) and corun=all expands to the full
// co-runner column, so kernels=all × corun=all is the co-run matrix.
func TestSpecCoRunAxis(t *testing.T) {
	g, err := ParseSpec("schemes=grp/var × kernels=mcf × corun=none,art,art+equake", testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 3 {
		t.Fatalf("want 3 cells, got %d", len(g.Cells))
	}
	if g.Cells[0].Opt.CoRun != nil {
		t.Errorf("corun=none cell has CoRun %v", g.Cells[0].Opt.CoRun)
	}
	if got := g.Cells[1].Opt.CoRun; len(got) != 1 || got[0] != "art" {
		t.Errorf("corun=art cell has CoRun %v", got)
	}
	if got := g.Cells[2].Opt.CoRun; len(got) != 2 || got[0] != "art" || got[1] != "equake" {
		t.Errorf("corun=art+equake cell has CoRun %v", got)
	}

	all, err := ParseSpec("schemes=grp/var × kernels=all × corun=all", testOpt())
	if err != nil {
		t.Fatal(err)
	}
	n := len(workloads.Names())
	if len(all.Cells) != n*n {
		t.Fatalf("co-run matrix expanded to %d cells, want %d", len(all.Cells), n*n)
	}
}

// TestOverlayDoesNotAliasBase: two cells overlaying Mem must never share
// the base's (or each other's) MemConfig.
func TestOverlayDoesNotAliasBase(t *testing.T) {
	base := testOpt()
	cfg := sim.DefaultMemConfig()
	base.Mem = &cfg
	g, err := ParseSpec("schemes=base × kernels=mcf × l2.size=512K,2M", base)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells[0].Opt.Mem == g.Cells[1].Opt.Mem || g.Cells[0].Opt.Mem == base.Mem {
		t.Fatal("grid cells alias a shared MemConfig")
	}
	if base.Mem.L2.SizeBytes != cfg.L2.SizeBytes {
		t.Error("expansion mutated the caller's MemConfig")
	}
}

// TestParallelFor covers the pool: full coverage, bounded concurrency,
// and first-error propagation.
func TestParallelFor(t *testing.T) {
	const n = 100
	var ran [n]int32
	var active, peak int32
	err := ParallelFor(context.Background(), n, 4, func(i int) error {
		a := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if a <= p || atomic.CompareAndSwapInt32(&peak, p, a) {
				break
			}
		}
		atomic.AddInt32(&ran[i], 1)
		atomic.AddInt32(&active, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if peak > 4 {
		t.Errorf("concurrency peaked at %d with jobs=4", peak)
	}

	sentinel := errors.New("boom")
	var after int32
	err = ParallelFor(context.Background(), n, 4, func(i int) error {
		if i == 10 {
			return sentinel
		}
		if i > 50 {
			atomic.AddInt32(&after, 1)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
}

// TestLRUEviction keeps the memory layer bounded while the disk layer
// still serves evicted cells.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 2)
	r := &core.Result{Bench: "wupwise", Scheme: core.NoPrefetch}
	keys := make([]CellKey, 3)
	for i := range keys {
		keys[i] = CellKey{Bench: "wupwise", Scheme: core.NoPrefetch,
			Digest: strings.Repeat("0", 63) + string(rune('a'+i))}
		if err := s.Put(keys[i], r); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.lru.Len(); got != 2 {
		t.Fatalf("LRU holds %d entries with cap 2", got)
	}
	// keys[0] was evicted from memory but must still hit from disk.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("evicted entry lost from disk layer")
	}
	st := s.Stats()
	if st.MemHits != 0 || st.Hits != 1 {
		t.Errorf("want 1 disk hit, got %+v", st)
	}
}

// TestRunSuiteErrors propagates a bad bench name out of the engine.
func TestRunSuiteErrors(t *testing.T) {
	if _, err := RunSuite([]string{"nosuch"}, testSchemes, testOpt(), Config{Jobs: 4}); err == nil {
		t.Fatal("want error for unknown benchmark")
	}
}

// TestProgressMonotonic: the progress callback sees every completion
// exactly once, serialized and monotonically.
func TestProgressMonotonic(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	cfg := Config{Jobs: 4, Progress: func(done, total, hits int) {
		mu.Lock()
		calls = append(calls, done)
		mu.Unlock()
		if total != 4 {
			t.Errorf("total = %d", total)
		}
	}}
	if _, err := RunSuite([]string{"wupwise", "mcf"}, []core.Scheme{core.NoPrefetch, core.StridePF}, testOpt(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 {
		t.Fatalf("progress called %d times for 4 cells", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress not monotonic: %v", calls)
		}
	}
}

// TestParallelForLowestIndexError: when several cells fail, the reported
// error must be the lowest-index one regardless of worker scheduling. A
// slow failure at index 10 races a fast one at index 55; the slow one
// must win every time.
func TestParallelForLowestIndexError(t *testing.T) {
	errSlow := errors.New("slow failure at 10")
	errFast := errors.New("fast failure at 55")
	for round := 0; round < 20; round++ {
		err := ParallelFor(context.Background(), 100, 8, func(i int) error {
			switch i {
			case 10:
				time.Sleep(2 * time.Millisecond)
				return errSlow
			case 55:
				return errFast
			}
			return nil
		})
		if !errors.Is(err, errSlow) {
			t.Fatalf("round %d: want the index-10 error, got %v", round, err)
		}
	}
}

// TestParallelForContextCancel: a cancelled context stops new work and is
// returned when no cell itself erred.
func TestParallelForContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ParallelFor(ctx, 1000, 4, func(i int) error {
		if ran.Add(1) == 8 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop new work (%d cells ran)", n)
	}
}

// TestRunContextCancel cancels an engine run mid-sweep: Run must return
// the cancellation, not a partial result set.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	cfg := Config{Jobs: 2, Progress: func(d, total, hits int) {
		if done.Add(1) == 2 {
			cancel()
		}
	}}
	eng := New(cfg)
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, Job{Bench: "wupwise", Scheme: core.NoPrefetch, Opt: testOpt()})
	}
	_, err := eng.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCellTimeoutRetries: a cell whose every attempt overruns its
// deadline must surface a DeadlineExceeded-wrapped CellError after
// exhausting the retry budget.
func TestCellTimeoutRetries(t *testing.T) {
	eng := New(Config{
		Jobs:        1,
		CellTimeout: 1 * time.Nanosecond, // every attempt overruns
		Retry:       RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
	})
	_, err := eng.Run(context.Background(), []Job{{Bench: "mcf", Scheme: core.GRPVar, Opt: testOpt()}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Attempts != 2 {
		t.Fatalf("want CellError with 2 attempts, got %v", err)
	}
	if st := eng.CacheStats(); st.Retries != 1 {
		t.Fatalf("want 1 recorded retry, got %+v", st)
	}
}
