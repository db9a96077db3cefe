// Command grpsim runs one benchmark proxy under one prefetching scheme and
// prints the measured statistics.
//
// Usage:
//
//	grpsim -bench mcf -scheme grp/var [-factor full] [-policy default]
//
// Telemetry: -metrics collects the run's counter/gauge/histogram registry
// and cycle-sampled time series (latency percentiles join the report);
// -metrics-out dumps the full snapshot as JSON; -perfetto writes a Chrome
// trace-event timeline loadable at ui.perfetto.dev.
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
package main

import (
	"context"
	"encoding/json"
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
	"grp/internal/trace"
	"grp/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("grpsim: ")
	var (
		bench      = flag.String("bench", "wupwise", "benchmark name ("+strings.Join(workloads.Names(), ", ")+")")
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
	)
	flag.Parse()

	// Validate everything up front: a bad flag must be a clear error and a
	// non-zero exit before the run starts, not a mid-run panic or a
	// simulation wasted on an unwritable output path.
	spec, err := workloads.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := core.SchemeByName(*scheme)
	if err != nil {
		log.Fatal(err)
	}
	if *sampleInt <= 0 {
		log.Fatalf("-sample-interval must be positive, got %d", *sampleInt)
	}
	plan, err := faults.Parse(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	opt := core.Options{
		Factor:          parseFactor(*factor),
		Policy:          parsePolicy(*policy),
		Metrics:         *metricsOn || *metricsOut != "",
		SampleInterval:  uint64(*sampleInt),
		Attrib:          *attribOn || *attribOut != "",
		CheckInvariants: *checkInv,
	}
	if plan.Active() {
		opt.Faults = &plan
	}
	if err := opt.Validate(); err != nil {
		log.Fatal(err)
	}
	if *corun != "" {
		// Co-run mode replaces the single-cell campaign path entirely:
		// RunCoRun drives all cores over the shared fabric and the report
		// is the per-core slowdown table. Telemetry describes one core, so
		// the engine rejects it with two or more; a fault plan arms one
		// injector for the whole system.
		if *compare || *cacheOn || *perfetto != "" {
			log.Fatal("-corun does not combine with -compare, -cache, or -perfetto")
		}
		runCoRun(spec.Name, *corun, sc, opt, openOut(*attribOut))
		return
	}
	var tl *trace.Timeline
	if *perfetto != "" {
		tl = trace.NewTimeline()
		opt.Timeline = tl
	}
	metricsFile := openOut(*metricsOut)
	perfettoFile := openOut(*perfetto)
	attribFile := openOut(*attribOut)

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

	if metricsFile != nil {
		writeOut(metricsFile, r.Metrics.WriteJSON)
	}
	if attribFile != nil {
		writeOut(attribFile, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(r.Attrib)
		})
	}
	if perfettoFile != nil {
		writeOut(perfettoFile, tl.WriteJSON)
		fmt.Printf("wrote %d timeline events to %s\n", tl.Len(), *perfetto)
	}
}

// runCoRun is the -corun driver: simulate bench (core 0) plus the
// comma-separated co-runners on one shared L2+DRAM, run each workload
// solo for the slowdown reference, and print the per-core table. With
// -attrib each core's lifecycle ledger joins the report (and -attrib-out
// dumps the per-core summaries as a JSON array).
func runCoRun(bench, list string, sc core.Scheme, opt core.Options, attribFile *os.File) {
	benches := []string{bench}
	for _, b := range strings.Split(list, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			log.Fatalf("-corun: empty kernel in %q", list)
		}
		if _, err := workloads.ByName(b); err != nil {
			log.Fatal(err)
		}
		benches = append(benches, b)
	}
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

func parseFactor(s string) workloads.Factor {
	switch s {
	case "test":
		return workloads.Test
	case "small":
		return workloads.Small
	case "full":
		return workloads.Full
	default:
		fmt.Fprintf(os.Stderr, "grpsim: unknown factor %q (want test, small, full)\n", s)
		os.Exit(2)
		return 0
	}
}

func parsePolicy(s string) compiler.Policy {
	switch s {
	case "default":
		return compiler.PolicyDefault
	case "conservative":
		return compiler.PolicyConservative
	case "aggressive":
		return compiler.PolicyAggressive
	default:
		fmt.Fprintf(os.Stderr, "grpsim: unknown policy %q\n", s)
		os.Exit(2)
		return 0
	}
}
