package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/metrics"
	"time"

	"grp/internal/campaign"
	"grp/internal/compiler"
	"grp/internal/conformance"
	"grp/internal/core"
	"grp/internal/mem"
	"grp/internal/progen"
	"grp/internal/workloads"
)

// The traced run covers a fixed, seed-chosen subset of paper-grid and
// corun and of two operations no timed workload runs, whichever
// workload is named: conformance checks of generated programs (fleet)
// and sweep submissions to an in-process grpserve (serve). No single
// workload reaches every layer (the ledger and the oracle run only in
// fleet, the server only in serve), and every traced run reports every
// per-layer metric.
const (
	tracedKernels     = 3  // paper-grid: mcf and two seed-chosen kernels, under every scheme
	tracedWarmPasses  = 5  // paper-grid: warm passes over the traced cells
	tracedPrograms    = 24 // fleet: the seed's first generated programs
	tracedCoRuns      = 3  // corun: the first pairs of the run's list
	tracedSubmissions = 30 // serve: the first submissions of the seed's mix
)

// interpMaxSteps is the conformance harness's default oracle step bound.
const interpMaxSteps = 300_000

// timedBackend wraps the campaign store with spans around each call.
type timedBackend struct {
	b   campaign.Backend
	rec *recorder
}

func (t *timedBackend) Get(k campaign.CellKey) (*core.Result, bool) {
	id := t.rec.begin("campaign.get")
	defer t.rec.end(id)
	return t.b.Get(k)
}

func (t *timedBackend) Put(k campaign.CellKey, r *core.Result) error {
	id := t.rec.begin("campaign.put")
	defer t.rec.end(id)
	return t.b.Put(k, r)
}

func (t *timedBackend) Stats() campaign.CacheStats { return t.b.Stats() }

// runtimeSample is a reading of the Go runtime's allocation and CPU
// accounting.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// tracer carries the traced run's state across its sections.
type tracer struct {
	e   *env
	rec *recorder
	o   *outcome

	tracedNs, untracedNs time.Duration // the same cells and checks, traced and not
	rt                   runtimeSample // over the untraced reference cells
	rtCells              int
	timerNs              float64 // what timing one interval adds to it
}

// section marks the spans one part of the traced run recorded.
type section struct{ lo, hi int }

func (t *tracer) mark() int            { return len(t.rec.spans) }
func (t *tracer) since(lo int) section { return section{lo, len(t.rec.spans)} }

// self sums the self time of the spans called name in s, and counts them.
func (t *tracer) self(self []time.Duration, s section, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for i := s.lo; i < s.hi; i++ {
		if t.rec.spans[i].Name == name {
			d += self[i]
			n++
		}
	}
	return d, n
}

// meanSelf notes the mean self time of the spans called name in s and,
// when metric is not empty, records it in the given unit.
func (t *tracer) meanSelf(self []time.Duration, s section, where, name, metric string, unit time.Duration) {
	d, n := t.self(self, s, name)
	if n > 0 && metric != "" {
		t.o.set(metric, float64(d)/float64(n)/float64(unit))
	}
	mean := 0.0
	if n > 0 {
		mean = float64(d) / float64(n) / float64(time.Microsecond)
	}
	t.o.note("%-10s %-18s %5d spans, mean self %10.2f us", where, name, n, mean)
}

// timerCost estimates what timing an interval adds to it: about one
// time.Now call, half of a back-to-back time.Now/time.Since pair.
func timerCost() float64 {
	const n = 2000
	var xs []float64
	for b := 0; b < 21; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			_ = time.Since(t)
		}
		xs = append(xs, float64(time.Since(start))/n/2)
	}
	return median(xs)
}

// runTraced is the --trace 1 run: one worker, spans around the public
// calls into every layer, written as Chrome trace-event JSON at exit.
func runTraced(e *env, workload string) (*outcome, error) {
	t := &tracer{e: e, rec: newRecorder(), o: newOutcome(), timerNs: timerCost()}
	t.o.note("traced run: a fixed seed-chosen subset of every workload, 1 worker; one timing costs %.1f ns", t.timerNs)
	pg, err := t.paperGrid()
	if err != nil {
		return nil, fmt.Errorf("paper-grid: %w", err)
	}
	fl, err := t.fleet()
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if err := t.coRun(); err != nil {
		return nil, fmt.Errorf("corun: %w", err)
	}
	sv, err := t.serve()
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}

	self := selfTimes(t.rec.spans)
	for _, l := range []string{"workloads.build", "compiler.compile", "mem.image", "core.construct"} {
		t.meanSelf(self, pg, "paper-grid", l, "", 0)
	}
	for _, l := range []string{"workloads.build", "compiler.compile", "mem.image", "core.construct",
		"attrib.fold", "compiler.oracle", "progen.generate"} {
		t.meanSelf(self, fl, "fleet", l, l+"_us", time.Microsecond)
	}
	t.meanSelf(self, pg, "paper-grid", "campaign.get", "campaign.get_us", time.Microsecond)
	t.meanSelf(self, pg, "paper-grid", "campaign.put", "campaign.put_us", time.Microsecond)
	for _, l := range []string{"serve.submit", "serve.wait", "serve.artifact"} {
		t.meanSelf(self, sv, "serve", l, l+"_ms", time.Millisecond)
	}
	t.meanSelf(self, sv, "serve", "serve.stream", "", 0)

	// Untraced cell time is the engine's cell span minus its store calls.
	cellNs, _ := t.self(self, pg, "campaign.cell")
	t.untracedNs += cellNs
	t.o.set("bench.trace_overhead_frac", float64(t.tracedNs)/float64(t.untracedNs)-1)
	t.o.set("runtime.gc_cpu_frac", t.rt.gcCPU/t.rt.totalCPU)
	t.o.set("runtime.alloc_kb_per_op", float64(t.rt.allocBytes)/1024/float64(t.rtCells))
	t.o.set("runtime.allocs_per_op", float64(t.rt.allocObjects)/float64(t.rtCells))
	t.o.note("overhead: traced %.3f s, untraced %.3f s; runtime over %d untraced cells", t.tracedNs.Seconds(), t.untracedNs.Seconds(), t.rtCells)

	path := filepath.Join(e.workDir, fmt.Sprintf("perfbench-trace-%s-seed%d.json", workload, e.seed))
	if err := t.rec.writeChrome(path); err != nil {
		return nil, err
	}
	t.o.note("spans: %d written to %s", len(t.rec.spans), path)
	return t.o, nil
}

// hotPath accumulates the shim counts of traced single-core cells and
// splits their simulate time into core, memory-system and engine time.
// Every timed interval contains about one timer cost c, and each engine
// call timed inside a sampled memory call adds two more timer reads (2c)
// to that memory call; the split takes both out.
type hotPath struct {
	c                                              float64
	instrs, memCalls, memSampled, pfCalls, pfTimed uint64
	cpuNs, memNs, pfNs                             float64
}

func (h *hotPath) add(r *core.Result, p *probe, run time.Duration) {
	c := h.c
	h.instrs += r.CPU.Instrs
	h.memCalls += p.memCalls
	h.memSampled += p.memSampled
	h.pfCalls += p.pfCalls
	h.pfTimed += p.pfTimed
	ms, pt := float64(p.memSampled), float64(p.pfTimed)
	h.memNs += float64(p.memNs-p.pfNs) - c*ms - c*pt
	h.pfNs += float64(p.pfNs) - c*pt
	if p.memSampled == 0 {
		h.cpuNs += float64(run) - float64(p.drainNs)
		return
	}
	perCall := (float64(p.memNs) - c*ms - 2*c*pt) / ms
	h.cpuNs += float64(run) - float64(p.drainNs) - perCall*float64(p.memCalls) - 2*c*(ms+pt)
}

// paperGrid traces mcf and two seed-chosen kernels under every scheme:
// a cold pass through a campaign engine over a timed store, the same
// cells rebuilt with shims, then warm passes from fresh engines.
func (t *tracer) paperGrid() (section, error) {
	lo := t.mark()
	names := []string{"mcf"}
	for _, k := range rand.New(rand.NewSource(t.e.seed)).Perm(len(workloads.Names())) {
		if n := workloads.Names()[k]; n != "mcf" && len(names) < tracedKernels {
			names = append(names, n)
		}
	}
	var jobs []campaign.Job
	for _, c := range core.SuiteCells(names, core.AllSchemes()) {
		jobs = append(jobs, campaign.Job{Bench: c.Bench, Scheme: c.Scheme, Opt: core.Options{Factor: workloads.Small}})
	}
	dir, err := t.e.tempDir()
	if err != nil {
		return section{}, err
	}
	ctx := context.Background()
	var hits, lookups, retries, keyed uint64
	var keyNs time.Duration

	eng := campaign.New(campaign.Config{Jobs: 1, Backend: &timedBackend{campaign.NewStore(dir, 0), t.rec}})
	op := t.rec.beginOp("campaign.cold_pass")
	id := t.rec.begin("campaign.key")
	if _, err := eng.Keys(jobs); err != nil {
		return section{}, err
	}
	t.rec.end(id)
	keyNs += t.rec.spans[id].dur()
	keyed += uint64(len(jobs))
	cold := make([]*core.Result, len(jobs))
	before := readRuntime()
	for i, j := range jobs {
		id := t.rec.begin("campaign.cell")
		r, _, _, err := eng.RunOne(ctx, i, j)
		t.rec.end(id)
		if err != nil {
			return section{}, err
		}
		cold[i] = r
	}
	t.rt = t.rt.plus(readRuntime().minus(before))
	t.rtCells += len(jobs)
	t.rec.end(op)
	st := eng.CacheStats()
	hits, lookups, retries = st.Hits, st.Hits+st.Misses, st.Retries
	t.o.attempted += len(jobs)
	t.o.breakAll(checkCrossScheme(cold))

	hp := hotPath{c: t.timerNs}
	traced := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		spec, err := workloads.ByName(j.Bench)
		if err != nil {
			return section{}, err
		}
		t.rec.op++
		start := t.mark()
		r, p, err := tracedCell(t.rec, spec, j.Scheme, j.Opt)
		if err != nil {
			return section{}, err
		}
		traced[i] = r
		t.tracedNs += t.rec.spans[start].dur()
		for k := start; k < t.mark(); k++ {
			if t.rec.spans[k].Name == "cpu.run" {
				hp.add(r, p, t.rec.spans[k].dur())
			}
		}
	}
	t.o.attempted += len(jobs)
	t.o.breakAll(checkSame("traced paper-grid cells vs core.Run", cold, traced))

	var warmCells int
	var warmNs time.Duration
	for w := 0; w < tracedWarmPasses; w++ {
		op := t.rec.beginOp("campaign.warm_pass")
		we := campaign.New(campaign.Config{Jobs: 1, Backend: &timedBackend{campaign.NewStore(dir, 0), t.rec}})
		id := t.rec.begin("campaign.key")
		_, err := we.Keys(jobs)
		t.rec.end(id)
		if err != nil {
			return section{}, err
		}
		rs, err := we.Run(ctx, jobs)
		t.rec.end(op)
		if err != nil {
			return section{}, err
		}
		keyNs += t.rec.spans[id].dur()
		keyed += uint64(len(jobs))
		warmNs += t.rec.spans[op].dur()
		warmCells += len(rs)
		st := we.CacheStats()
		hits, lookups, retries = hits+st.Hits, lookups+st.Hits+st.Misses, retries+st.Retries
		t.o.attempted += len(jobs)
		t.o.breakAll(checkSame(fmt.Sprintf("traced warm pass %d vs cold pass", w+1), cold, rs))
	}

	var issued, useful, l2acc, l2miss, dreq, rowHits, rowMisses uint64
	for _, r := range cold {
		issued += r.Mem.PrefetchesIssued
		useful += r.L2.UsefulPrefetches
		l2acc += r.L2.Accesses
		l2miss += r.L2.Misses
		dreq += r.Dram.DemandReads + r.Dram.PrefetchReads + r.Dram.Writebacks
		rowHits += r.Dram.RowHits
		rowMisses += r.Dram.RowMisses
	}
	o := t.o
	o.set("cpu.instrs", float64(hp.instrs))
	o.set("sim.accesses", float64(hp.memCalls))
	o.set("prefetch.calls", float64(hp.pfCalls))
	o.set("cpu.self_ns_per_instr", hp.cpuNs/float64(hp.instrs))
	o.set("sim.self_ns_per_access", hp.memNs/float64(hp.memSampled))
	o.set("prefetch.ns_per_call", hp.pfNs/float64(hp.pfTimed))
	o.set("prefetch.issued", float64(issued))
	o.set("prefetch.useful", float64(useful))
	o.set("prefetch.accuracy", float64(useful)/float64(issued))
	o.set("cache.l2_miss_ratio", float64(l2miss)/float64(l2acc))
	o.set("dram.requests", float64(dreq))
	o.set("dram.row_hit_ratio", float64(rowHits)/float64(rowHits+rowMisses))
	o.set("campaign.key_us", float64(keyNs)/float64(keyed)/float64(time.Microsecond))
	o.set("campaign.warm_cells_per_s", float64(warmCells)/warmNs.Seconds())
	o.set("campaign.hit_ratio", float64(hits)/float64(lookups))
	o.set("campaign.retries", float64(retries))
	o.note("paper-grid: %d cells of %v; %d memory calls (%d sampled), %d prefetch calls (%d timed); %d warm passes",
		len(jobs), names, hp.memCalls, hp.memSampled, hp.pfCalls, hp.pfTimed, tracedWarmPasses)
	o.note("paper-grid: prefetch.accuracy %d useful of %d issued; campaign.hit_ratio %d hits of %d lookups",
		useful, issued, hits, lookups)
	return t.since(lo), nil
}

// fleet traces the seed's first generated programs. Each is checked
// once untraced through conformance.CheckSeed, then rebuilt with spans:
// generation, the interpreter oracle, and every cell with shims.
func (t *tracer) fleet() (section, error) {
	lo := t.mark()
	cfg := fleetConfig()
	skipped := 0
	for _, s := range fleetSeeds(t.e.seed, tracedPrograms) {
		before := readRuntime()
		start := time.Now()
		pr := conformance.CheckSeed(cfg, s)
		t.untracedNs += time.Since(start)
		t.rt = t.rt.plus(readRuntime().minus(before))
		t.rtCells += pr.Cells
		t.o.attempted++
		if len(pr.Failures) > 0 {
			t.o.failed++
			t.o.breakAll([]error{fmt.Errorf("program %d: %v", s, pr.Failures[0])})
		}

		op := t.rec.beginOp("fleet.check")
		res, spec, steps, err := t.tracedCheck(s, cfg)
		t.rec.endThrough(op)
		t.tracedNs += t.rec.spans[op].dur()
		if err != nil {
			t.o.failed++
			t.o.breakAll([]error{fmt.Errorf("traced program %d: %w", s, err)})
			continue
		}
		if spec == nil {
			skipped++
		}
		if spec == nil != pr.Skipped || steps != pr.Steps || len(res) != pr.Cells {
			t.o.breakAll([]error{fmt.Errorf("traced program %d: skipped %v, %d steps, %d cells; CheckSeed: skipped %v, %d steps, %d cells",
				s, spec == nil, steps, len(res), pr.Skipped, pr.Steps, pr.Cells)})
		}
		// Untimed: the same cells through core.Run must match the rebuilt ones.
		var ref []*core.Result
		for _, sc := range fleetSchemes()[:len(res)] {
			r, err := core.Run(spec, sc, fleetCellOptions())
			if err != nil {
				return section{}, err
			}
			ref = append(ref, r)
		}
		t.o.breakAll(checkSame(fmt.Sprintf("traced program %d cells vs core.Run", s), ref, res))
	}
	t.o.set("conformance.skipped_frac", float64(skipped)/float64(tracedPrograms))
	t.o.note("fleet: %d programs, %d skipped by the oracle", tracedPrograms, skipped)
	return t.since(lo), nil
}

// tracedCheck is CheckWorkload rebuilt with spans: generate, run the
// oracle, then every cell, holding each to the oracle, to the other
// schemes and to the perfect-L2 cycle bound. A nil spec means the oracle
// skipped the program.
func (t *tracer) tracedCheck(seed int64, cfg conformance.Config) ([]*core.Result, *workloads.Spec, int, error) {
	id := t.rec.begin("progen.generate")
	w := progen.Generate(seed, cfg.Gen)
	t.rec.end(id)

	id = t.rec.begin("compiler.oracle")
	verr := w.Prog.Validate()
	var ip *compiler.Interp
	var runErr error
	om := mem.New()
	if verr == nil {
		lay := compiler.Place(w.Prog, om)
		w.Init(om, func(name string) uint64 { return lay.Addr[name] })
		ip = compiler.NewInterp(w.Prog, lay, om, interpMaxSteps)
		runErr = ip.Run()
	}
	t.rec.end(id)
	if verr != nil {
		return nil, nil, 0, verr
	}
	if runErr != nil {
		return nil, nil, 0, nil
	}
	oracle := om.Digest()
	spec := fleetSpec(seed, w, ip.Steps())
	var res []*core.Result
	for _, sc := range fleetSchemes() {
		r, _, err := tracedCell(t.rec, spec, sc, fleetCellOptions())
		if err != nil {
			return nil, nil, 0, err
		}
		switch {
		case !r.CPU.Halted:
			return nil, nil, 0, fmt.Errorf("%s: instruction budget exhausted", sc)
		case r.MemDigest != oracle:
			return nil, nil, 0, fmt.Errorf("%s: memory digest %016x, oracle %016x", sc, r.MemDigest, oracle)
		case len(res) > 0 && r.CPU.Cycles < res[0].CPU.Cycles:
			return nil, nil, 0, fmt.Errorf("%s: %d cycles beats perfect-L2 %d", sc, r.CPU.Cycles, res[0].CPU.Cycles)
		}
		res = append(res, r)
	}
	if errs := checkCrossScheme(res); len(errs) > 0 {
		return nil, nil, 0, errs[0]
	}
	return res, spec, ip.Steps(), nil
}

// coRun times the first pairs of the corun list at the core.RunCoRun
// boundary and sums the cross-core pollution they cause.
func (t *tracer) coRun() error {
	var pollution uint64
	for _, p := range coRunPairs(t.e.seed)[:tracedCoRuns] {
		op := t.rec.beginOp("core.corun")
		cr, err := core.RunCoRun(p[:], coRunScheme, coRunOptions())
		t.rec.end(op)
		t.o.attempted++
		if err != nil {
			return err
		}
		for _, r := range cr.Results {
			pollution += r.CoRun.PollutionCaused
		}
	}
	t.o.set("sim.corun_pollution", float64(pollution))
	return nil
}

// serve times the first submissions of the seed's mix against a fresh
// single-worker server, at the HTTP boundary, after a fixed warm-up
// submission that fills its store.
func (t *tracer) serve() (section, error) {
	lo := t.mark()
	dir, err := t.e.tempDir()
	if err != nil {
		return section{}, err
	}
	ls, err := startServer(dir, 1)
	if err != nil {
		return section{}, err
	}
	defer ls.stop()
	warm, err := ls.submit(warmupSubmission, "warmup", nil)
	if err != nil {
		return section{}, err
	}
	requested, rejected := warm.cells, 0
	lr := newLocalRenderer()
	mix := newServeMix(t.e.seed)
	for i := 0; i < tracedSubmissions; i++ {
		sub := mix.next()
		op := t.rec.beginOp("serve.submission")
		got, err := ls.submit(sub, "tenant-0", t.rec)
		t.rec.endThrough(op)
		t.o.attempted++
		if err != nil {
			t.o.failed++
			if err == errRejected {
				rejected++
			}
			t.o.breakAll([]error{err})
			continue
		}
		requested += got.cells
		want, err := lr.render(sub)
		if err != nil {
			return section{}, err
		}
		if !bytes.Equal(want, got.artifact) {
			t.o.failed++
			t.o.breakAll([]error{fmt.Errorf("served %s artifact of %q differs from the local render", sub.Format, sub.Spec)})
		}
	}
	sims, deduped, err := ls.counters()
	if err != nil {
		return section{}, err
	}
	t.o.set("serve.dedup_ratio", 1-float64(sims)/float64(requested))
	t.o.set("serve.rejected", float64(rejected))
	t.o.note("serve: %d submissions after the warm-up; %d cells requested, %d simulated, %d joined in flight; %d server warnings",
		tracedSubmissions, requested, sims, deduped, ls.warns.Load())
	return t.since(lo), nil
}
