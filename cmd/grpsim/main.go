// Command grpsim runs one benchmark proxy under one prefetching scheme and
// prints the measured statistics.
//
// Usage:
//
//	grpsim -bench mcf -scheme grp/var [-factor full] [-policy default]
//	grpsim -hints -bench mcf|all [-factor full] [-policy default]
//
// Telemetry: -metrics collects the run's gauge/histogram registry and
// cycle-sampled time series (latency percentiles join the report);
// -metrics-out dumps the full snapshot as JSON; -perfetto writes a Chrome
// trace-event timeline loadable at ui.perfetto.dev. With -corun they
// observe core 0 (-bench), and the timeline's DRAM bank spans include the
// co-runners' traffic.
//
// Attribution: -attrib attaches the prefetch lifecycle ledger
// (internal/attrib) — every issued prefetch is followed to a terminal
// outcome and the report gains the outcome taxonomy plus per-region and
// per-trigger-PC breakdowns; -attrib-out dumps the summary as JSON.
//
// Robustness: -faults arms deterministic fault injection (see
// internal/faults for the spec grammar; presets light, heavy, chaos) and
// -check-invariants audits the memory hierarchy as it runs. Faults perturb
// timing only — architectural results are identical to a fault-free run.
//
// Hints: -hints compiles -bench at -factor and -policy without simulating
// and prints the compiler's analysis (the hint of each memory reference),
// the static hint census and the annotated assembly; with -bench all it
// prints the census of every benchmark as one table.
//
// A bad flag value exits 2 before any work starts; a failed run exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"grp/internal/campaign"
	"grp/internal/compiler"
	"grp/internal/core"
	"grp/internal/faults"
	"grp/internal/isa"
	"grp/internal/mem"
	"grp/internal/stats"
	"grp/internal/trace"
	"grp/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("grpsim: ")
	var (
		bench      = flag.String("bench", "wupwise", "benchmark name ("+strings.Join(workloads.Names(), ", ")+"; all with -hints)")
		scheme     = flag.String("scheme", "grp/var", "scheme (base, perfectL1, perfectL2, stride, ghb, srp, grp/fix, grp/var, grp-adaptive, ptr, swpf)")
		factor     = flag.String("factor", "small", "workload scale: test, small, full")
		policy     = flag.String("policy", "default", "compiler spatial policy: default, conservative, aggressive")
		compare    = flag.Bool("compare", false, "also run the no-prefetch baseline and report speedup/traffic")
		corun      = flag.String("corun", "", "comma-separated co-runner kernels: simulate -bench (core 0) plus these on one shared L2+DRAM and print the per-core slowdown table")
		metricsOn  = flag.Bool("metrics", false, "collect the telemetry registry and sampled time series")
		metricsOut = flag.String("metrics-out", "", "write the metrics snapshot as JSON to this file (\"-\" for stdout; implies -metrics)")
		sampleInt  = flag.Int64("sample-interval", 4096, "sampler period in cycles when -metrics is on (must be positive)")
		perfetto   = flag.String("perfetto", "", "write a Chrome trace-event timeline JSON to this file")
		attribOn   = flag.Bool("attrib", false, "attach the prefetch-attribution ledger (outcome/region/PC tables join the report)")
		attribOut  = flag.String("attrib-out", "", "write the attribution summary as JSON to this file (\"-\" for stdout; implies -attrib)")
		faultSpec  = flag.String("faults", "", "fault plan: preset[,key=value,...] (presets "+strings.Join(faults.PresetNames(), ", ")+"); empty = no faults")
		checkInv   = flag.Bool("check-invariants", false, "audit memory-hierarchy invariants during the run")
		jobs       = flag.Int("jobs", 0, "simulation worker goroutines (default GOMAXPROCS; matters with -compare)")
		cacheOn    = flag.Bool("cache", false, "reuse unchanged simulations from the result cache")
		cacheDir   = flag.String("cache-dir", campaign.DefaultCacheDir, "result cache directory")
		hints      = flag.Bool("hints", false, "print the compiler's hints and annotated assembly for -bench instead of simulating")
	)
	flag.Parse()

	// Validate everything up front: a bad flag must be a clear error and
	// exit 2 before the run starts, not a mid-run panic or a simulation
	// wasted on an unwritable output path.
	f, err := workloads.ParseFactor(*factor)
	usageIf(err)
	pol, err := compiler.ParsePolicy(*policy)
	usageIf(err)
	if *hints {
		var simOnly []string
		flag.Visit(func(fl *flag.Flag) {
			switch fl.Name {
			case "hints", "bench", "factor", "policy":
			default:
				simOnly = append(simOnly, "-"+fl.Name)
			}
		})
		if len(simOnly) > 0 {
			usageIf(fmt.Errorf("-hints does not combine with %s", strings.Join(simOnly, ", ")))
		}
		printHints(*bench, f, pol)
		return
	}
	spec, err := workloads.ByName(*bench)
	usageIf(err)
	sc, err := core.SchemeByName(*scheme)
	usageIf(err)
	if *sampleInt <= 0 {
		usageIf(fmt.Errorf("-sample-interval must be positive, got %d", *sampleInt))
	}
	plan, err := faults.Parse(*faultSpec)
	usageIf(err)
	opt := core.Options{
		Factor:          f,
		Policy:          pol,
		Metrics:         *metricsOn || *metricsOut != "",
		SampleInterval:  uint64(*sampleInt),
		Attrib:          *attribOn || *attribOut != "",
		CheckInvariants: *checkInv,
	}
	if plan.Active() {
		opt.Faults = &plan
	}
	usageIf(opt.Validate())
	var benches []string
	if *corun != "" {
		if *compare || *cacheOn {
			usageIf(errors.New("-corun does not combine with -compare or -cache"))
		}
		benches = []string{spec.Name}
		for _, b := range strings.Split(*corun, ",") {
			b = strings.TrimSpace(b)
			if b == "" {
				usageIf(fmt.Errorf("-corun: empty kernel in %q", *corun))
			}
			_, err := workloads.ByName(b)
			usageIf(err)
			benches = append(benches, b)
		}
	}
	var tl *trace.Timeline
	if *perfetto != "" {
		tl = trace.NewTimeline()
		opt.Timeline = tl
	}
	metricsFile := openOut(*metricsOut)
	perfettoFile := openOut(*perfetto)
	attribFile := openOut(*attribOut)
	// writeTelemetry dumps a run's metrics snapshot and the timeline.
	writeTelemetry := func(r *core.Result) {
		if metricsFile != nil {
			writeOut(metricsFile, r.Metrics.WriteJSON)
		}
		if perfettoFile != nil {
			writeOut(perfettoFile, tl.WriteJSON)
			fmt.Printf("wrote %d timeline events to %s\n", tl.Len(), *perfetto)
		}
	}
	if benches != nil {
		// Co-run mode replaces the single-cell campaign path entirely:
		// RunCoRun drives all cores over the shared fabric and the report
		// is the per-core slowdown table. Telemetry and the timeline
		// observe core 0; a fault plan arms one injector for the whole
		// system.
		runCoRun(benches, sc, opt, attribFile, writeTelemetry)
		return
	}

	// Both the main run and the -compare baseline go through the campaign
	// engine: with -cache an unchanged cell (the baseline in particular)
	// is a cache hit instead of a re-simulation, and with -compare the
	// two cells run in parallel.
	eng := campaign.New(campaign.Config{Jobs: *jobs, Cache: *cacheOn, CacheDir: *cacheDir})
	jobsList := []campaign.Job{{Bench: spec.Name, Scheme: sc, Opt: opt}}
	if *compare && sc != core.NoPrefetch {
		// The baseline run must not append to the main run's timeline or
		// pay for metrics nobody reads.
		baseOpt := opt
		baseOpt.Timeline = nil
		baseOpt.Metrics = false
		baseOpt.Attrib = false
		jobsList = append(jobsList, campaign.Job{Bench: spec.Name, Scheme: core.NoPrefetch, Opt: baseOpt})
	}
	// SIGINT/SIGTERM cancel the run: the simulation polls the context from
	// its commit loop, so even one long cell stops promptly and cleanly.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	results, err := eng.Run(ctx, jobsList)
	if err != nil {
		log.Fatal(err)
	}
	r := results[0]
	core.FprintResult(os.Stdout, r)
	if opt.Faults != nil {
		fmt.Printf("faults injected: %v, cancelled=%d\n", r.FaultCounts, r.Mem.PrefetchesCancelled)
	}
	// Faults perturb timing only: a faulted run prints its fault-free
	// run's digest.
	fmt.Printf("arch digest %#016x\n", r.ArchDigest)
	if len(results) > 1 {
		core.FprintCompare(os.Stdout, r, results[1])
	}
	if cs := eng.CacheStats(); *cacheOn && cs.Hits > 0 {
		fmt.Printf("cache: %d of %d runs served from %s\n", cs.Hits, len(jobsList), *cacheDir)
	}

	if attribFile != nil {
		writeOut(attribFile, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(r.Attrib)
		})
	}
	writeTelemetry(r)
}

// runCoRun is the -corun driver: simulate benches[0] (core 0) plus the
// co-runners on one shared L2+DRAM, run each workload solo for the
// slowdown reference, and print the per-core table. With -attrib each
// core's lifecycle ledger joins the report (and -attrib-out dumps the
// per-core summaries as a JSON array). Telemetry observes core 0: -metrics
// adds its latency percentiles, and -metrics-out and -perfetto dump its
// snapshot and timeline.
func runCoRun(benches []string, sc core.Scheme, opt core.Options, attribFile *os.File, writeTelemetry func(*core.Result)) {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opt.Cancel = ctx.Err

	cr, err := core.RunCoRun(benches, sc, opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := cr.ComputeSlowdowns(opt); err != nil {
		log.Fatal(err)
	}
	core.FprintCoRun(os.Stdout, cr)
	if opt.Faults != nil {
		fmt.Printf("faults injected: %v\n", cr.Results[0].FaultCounts)
	}
	for _, r := range cr.Results {
		fmt.Printf("core %d (%s) arch digest %#016x\n", r.CoRun.Core, r.Bench, r.ArchDigest)
	}
	if r := cr.Results[0]; r.Metrics != nil {
		fmt.Printf("core 0 (%s) latencies:\n", r.Bench)
		core.FprintLatencies(os.Stdout, r.Metrics)
	}
	if opt.Attrib {
		for _, r := range cr.Results {
			fmt.Printf("\ncore %d (%s):", r.CoRun.Core, r.Bench)
			core.FprintAttrib(os.Stdout, r.Attrib)
		}
	}
	if attribFile != nil {
		writeOut(attribFile, func(w io.Writer) error {
			summaries := make([]interface{}, len(cr.Results))
			for i, r := range cr.Results {
				summaries[i] = r.Attrib
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(summaries)
		})
	}
	writeTelemetry(cr.Results[0])
}

// openOut opens an output path before the run so an unwritable path fails
// fast. "" means no output (nil); "-" means stdout.
func openOut(path string) *os.File {
	switch path {
	case "":
		return nil
	case "-":
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// writeOut streams a JSON dump to an already-open file.
func writeOut(f *os.File, write func(io.Writer) error) {
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if f != os.Stdout {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

// printHints compiles bench (every benchmark for "all") and prints what
// the compiler derived, without simulating.
func printHints(bench string, f workloads.Factor, pol compiler.Policy) {
	if bench == "all" {
		printCensus(f, pol)
		return
	}
	spec, err := workloads.ByName(bench)
	usageIf(err)
	prog, _, an, err := compiler.CompileWorkload(spec.Build(f).Prog, mem.New(), pol)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark %s (policy %s)\n\n", spec.Name, pol)
	fmt.Printf("reference hints:\n%s\n", an.Describe())
	h := prog.CountHints()
	fmt.Printf("static census: %d mem instructions, %d spatial, %d pointer, %d recursive, %d indirect, %d variable-size (%.1f%% hinted)\n",
		h.MemInsts, h.Spatial, h.Pointer, h.Recursive, h.Indirect, h.Variable, h.HintRatio())
	fmt.Printf("\nassembly (%d instructions):\n%s", len(prog.Instrs), isa.Disassemble(prog))
}

// printCensus compiles every benchmark and prints the static hint
// population of each, one row per benchmark in presentation order.
func printCensus(f workloads.Factor, pol compiler.Policy) {
	t := &stats.Table{
		Title:   fmt.Sprintf("static hint census (policy %s)", pol),
		Headers: []string{"benchmark", "mem insts", "spatial", "pointer", "recursive", "indirect", "variable", "ratio(%)"},
	}
	for _, spec := range workloads.All() {
		prog, _, _, err := compiler.CompileWorkload(spec.Build(f).Prog, mem.New(), pol)
		if err != nil {
			log.Fatal(err)
		}
		h := prog.CountHints()
		t.Add(spec.Name, fmt.Sprint(h.MemInsts), fmt.Sprint(h.Spatial), fmt.Sprint(h.Pointer),
			fmt.Sprint(h.Recursive), fmt.Sprint(h.Indirect), fmt.Sprint(h.Variable), stats.Fmt(h.HintRatio(), 1))
	}
	fmt.Print(t)
}

// usageIf exits 2, the flag package's usage status, on a bad flag value.
func usageIf(err error) {
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
}
