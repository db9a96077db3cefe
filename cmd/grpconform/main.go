// Command grpconform runs the differential conformance campaign: N seeded
// generated programs, each executed by the functional interpreter (the
// oracle) and by the timed simulator under every requested scheme and
// fault variant, asserting architectural equality, metric sanity and the
// timing relations (see internal/conformance).
//
// Usage:
//
//	grpconform -n 500 -seed 1 -jobs 8 [-schemes base,srp,grp/var] \
//	    [-faults 'light;heavy'] [-overlay l2.size=512K] [-arith] \
//	    [-shrink] [-shrink-out repro.txt] [-q] [-listen localhost:6060]
//	grpconform -h2h [-n 50] [-seed 1] [-jobs 8]
//
// The summary on stdout is deterministic: byte-identical across -jobs
// settings. Exit status: 0 all programs conform, 1 conformance failures
// (with -shrink, the first failing program is minimized and printed),
// 2 usage or configuration errors.
//
// With -h2h the tool instead runs the scheme head-to-head comparison
// (internal/conformance.RunHeadToHead): per-class geometric-mean IPC for
// base, stride, ghb, grp/var, and grp-adaptive over clean and hint-hostile
// generated workloads, printed as a table. -n and -seed size and seed the
// fleet; -schemes narrows the columns.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"grp/internal/campaign"
	"grp/internal/conformance"
	"grp/internal/core"
	"grp/internal/obs"
	"grp/internal/progen"
)

// overlayFlags collects repeated -overlay k=v settings.
type overlayFlags []string

func (o *overlayFlags) String() string     { return strings.Join(*o, " ") }
func (o *overlayFlags) Set(v string) error { *o = append(*o, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("grpconform: ")
	var (
		n         = flag.Int("n", 200, "number of generated programs to check")
		seed      = flag.Int64("seed", 1, "base seed; program i uses seed+i")
		jobs      = flag.Int("jobs", 0, "worker goroutines (default GOMAXPROCS)")
		schemes   = flag.String("schemes", "all", "comma-separated schemes to differentiate (default: base,stride,ghb,srp,grp/fix,grp/var,grp-adaptive)")
		faultSpec = flag.String("faults", "", "semicolon-separated fault variants (preset names or key=value specs; empty/none = fault-free only)")
		arith     = flag.Bool("arith", false, "restrict the generator to the arithmetic-only grammar (no heap idioms)")
		maxSteps  = flag.Int("max-steps", 0, "interpreter oracle step cap; longer programs are skipped (0 = default)")
		shrink    = flag.Bool("shrink", false, "on failure, minimize the first failing program and print the reproducer")
		shrinkOut = flag.String("shrink-out", "", "also write the shrunk reproducer to this file")
		quiet     = flag.Bool("q", false, "suppress per-program progress lines")
		listen    = flag.String("listen", "", "serve /metrics (Prometheus text) and /debug/pprof/ on this address during the run, e.g. localhost:6060")
		h2h       = flag.Bool("h2h", false, "run the scheme head-to-head IPC comparison instead of the conformance campaign")
	)
	var overlays overlayFlags
	flag.Var(&overlays, "overlay", "config overlay axis key=value (repeatable; same axes as the campaign spec grammar)")
	flag.Parse()

	scs, err := conformance.ParseSchemes(*schemes)
	if err != nil {
		usageErr(err)
	}
	variants, err := conformance.ParseVariants(*faultSpec)
	if err != nil {
		usageErr(err)
	}
	base := core.Options{}
	for _, ov := range overlays {
		k, v, ok := strings.Cut(ov, "=")
		if !ok {
			usageErr(fmt.Errorf("overlay %q is not key=value", ov))
		}
		if err := campaign.ApplyAxis(&base, strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
			usageErr(err)
		}
	}
	// Each axis checks only its own value; the combination is checked
	// here, so a bad overlay is refused before any cell runs.
	if err := base.Validate(); err != nil {
		usageErr(fmt.Errorf("overlay %s: %w", overlays.String(), err))
	}

	if *h2h {
		h2hCfg := conformance.H2HConfig{N: *n, Seed: *seed, Jobs: *jobs, Base: base}
		if *schemes != "all" {
			h2hCfg.Schemes = scs
		}
		start := time.Now()
		rep, err := conformance.RunHeadToHead(h2hCfg)
		if err != nil {
			log.Printf("error: %v", err)
			os.Exit(2)
		}
		fmt.Print(rep.Table())
		log.Printf("done in %v", time.Since(start).Round(time.Millisecond))
		return
	}

	// SIGINT/SIGTERM cancel the campaign: in-flight programs finish, no
	// new ones start, and the run exits with the cancellation error.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := conformance.Config{
		N:        *n,
		Seed:     *seed,
		Jobs:     *jobs,
		Schemes:  scs,
		Variants: variants,
		Base:     base,
		Gen:      progen.Config{Arith: *arith},
		MaxSteps: *maxSteps,
		Ctx:      ctx,
	}
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reporter := obs.NewReporter(*n, workers)
	if *listen != "" {
		srv, err := obs.NewServer(*listen, reporter, obs.NewBuildInfo(obs.Version, campaign.SchemaVersion()))
		if err != nil {
			log.Printf("error: %v", err)
			os.Exit(2)
		}
		defer srv.Close()
		log.Printf("debug endpoint on http://%s (/metrics, /debug/pprof/)", srv.Addr())
	}
	cfg.OnProgramStart = reporter.CellStart
	cfg.Progress = func(done, total, failed int) {
		reporter.CellDone(false)
		if *quiet {
			return
		}
		s := reporter.Snapshot()
		line := fmt.Sprintf("grpconform: program %d/%d checked (%d failing)  %.1f prog/s  util %.0f%%",
			done, total, failed, s.CellsPerSec, 100*s.Utilization)
		if s.ETA > 0 {
			line += fmt.Sprintf("  eta %s", s.ETA.Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, line)
	}

	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.String()
	}
	log.Printf("checking %d programs from seed %d: schemes [%s], %d fault variants, grammar %s",
		*n, *seed, strings.Join(names, " "), len(variants), grammarName(*arith))

	start := time.Now()
	rep, err := conformance.Run(cfg)
	if err != nil {
		log.Printf("error: %v", err)
		os.Exit(2)
	}
	fmt.Print(rep.Summary())
	log.Printf("done in %v", time.Since(start).Round(time.Millisecond))

	if !rep.Failed() {
		return
	}
	if *shrink {
		shrinkFirst(cfg, rep, *shrinkOut)
	}
	os.Exit(1)
}

// shrinkFirst minimizes the first failing program and prints it.
func shrinkFirst(cfg conformance.Config, rep *conformance.Report, outPath string) {
	fails := rep.Failures()
	first := fails[0]
	// Narrow the shrink predicate to the schemes and variants that failed
	// for this seed: every candidate evaluation replays the whole check.
	schemeSet := map[core.Scheme]bool{}
	variantSet := map[string]bool{}
	for _, f := range fails {
		if f.Seed == first.Seed {
			schemeSet[f.Scheme] = true
			variantSet[f.Variant] = true
		}
	}
	shrinkCfg := cfg
	shrinkCfg.Schemes = nil
	for _, sc := range cfg.Schemes {
		if schemeSet[sc] {
			shrinkCfg.Schemes = append(shrinkCfg.Schemes, sc)
		}
	}
	if len(shrinkCfg.Schemes) == 0 {
		// The failure came from the perfect-L2 reference cell; keep one
		// cheap realistic scheme so the check still exercises it.
		shrinkCfg.Schemes = []core.Scheme{core.NoPrefetch}
	}
	shrinkCfg.Variants = nil
	for _, v := range cfg.Variants {
		if variantSet[v.Name] {
			shrinkCfg.Variants = append(shrinkCfg.Variants, v)
		}
	}
	shrinkCfg.Progress = nil

	log.Printf("shrinking seed %d (%d failing cells)...", first.Seed, len(schemeSet)*max(1, len(shrinkCfg.Variants)+1))
	sr, err := conformance.Shrink(shrinkCfg, first.Seed, 0)
	if err != nil {
		log.Printf("shrink failed: %v", err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// reproducer: seed %d, %d static instructions, %d shrink evals\n", first.Seed, sr.Instrs, sr.Evals)
	for _, f := range sr.Failures {
		fmt.Fprintf(&b, "// %s\n", f)
	}
	b.WriteString(sr.Prog.String())
	fmt.Fprint(os.Stderr, b.String())
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(b.String()), 0o644); err != nil {
			log.Printf("writing %s: %v", outPath, err)
		} else {
			log.Printf("reproducer written to %s", outPath)
		}
	}
}

func grammarName(arith bool) string {
	if arith {
		return "arith"
	}
	return "full"
}

func usageErr(err error) {
	log.Printf("error: %v", err)
	os.Exit(2)
}
