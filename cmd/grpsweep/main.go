// Command grpsweep runs a campaign: a (workload × scheme × config-overlay)
// sweep grid executed on a parallel worker pool with a content-addressed
// result cache, producing a deterministic per-cell artifact.
//
// Usage:
//
//	grpsweep -spec 'schemes=base,srp,grp/var × kernels=all × l2.size=512K,1M,2M' \
//	    [-factor small] [-policy default] [-jobs N] [-no-cache] \
//	    [-cache-dir .grpcache] [-format ascii|json|csv] [-out file] \
//	    [-resume] [-keep-going] [-cell-timeout 10m] [-retries 3]
//
// A bad flag value, spec included, exits 2 before any cell runs; failed
// cells exit 1, an interrupt 130 and a chaos kill 3.
//
// Cells complete in any order but reduce in canonical grid order, so the
// artifact is byte-identical across -jobs settings and across warm/cold
// cache runs; re-running an unchanged campaign is all cache hits and
// simulates nothing. Progress and cache statistics go to stderr, the
// artifact to stdout or -out. Progress lines carry live fleet telemetry
// (cells/s, worker utilization, cache hit count, retries, ETA); -listen
// additionally serves the same numbers as Prometheus text on /metrics
// alongside net/http/pprof for profiling a running campaign.
//
// The campaign is crash-safe: a sweep journal under the cache directory
// records completions durably, SIGINT/SIGTERM drains in-flight cells and
// exits cleanly, and -resume picks an interrupted (or killed) sweep back
// up — completed cells replay from the cache, only the remainder
// simulates, and the final artifact is byte-identical to an uninterrupted
// run. A lock file guards against two campaigns running the same sweep.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"grp/internal/campaign"
	"grp/internal/compiler"
	"grp/internal/core"
	"grp/internal/obs"
	"grp/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("grpsweep: ")
	var (
		spec      = flag.String("spec", "", "sweep spec, e.g. 'schemes=base,grp/var × kernels=mcf,art × l2.size=512K,1M' (required)")
		factor    = flag.String("factor", "small", "workload scale: test, small, full")
		policy    = flag.String("policy", "default", "compiler spatial policy: default, conservative, aggressive")
		jobs      = flag.Int("jobs", 0, "worker goroutines (default GOMAXPROCS)")
		cacheOn   = flag.Bool("cache", true, "consult and populate the content-addressed result cache")
		noCache   = flag.Bool("no-cache", false, "disable the result cache (overrides -cache)")
		cacheDir  = flag.String("cache-dir", campaign.DefaultCacheDir, "result cache directory")
		format    = flag.String("format", "ascii", "artifact format: ascii, json, csv")
		out       = flag.String("out", "", "write the artifact to this file (default stdout)")
		quiet     = flag.Bool("q", false, "suppress per-cell progress lines")
		listen    = flag.String("listen", "", "serve /metrics (Prometheus text) and /debug/pprof/ on this address during the run, e.g. localhost:6060")
		resume    = flag.Bool("resume", false, "resume an interrupted sweep from its journal (requires the cache)")
		keepGoing = flag.Bool("keep-going", false, "record per-cell failures in the artifact instead of aborting the sweep")
		cellTO    = flag.Duration("cell-timeout", 0, "per-cell attempt deadline, e.g. 10m (0 = none; overruns retry)")
		retries   = flag.Int("retries", 0, "attempts per cell for transient failures (default 3, 1 disables retry)")
		chaosSpec = flag.String("chaos", "", "dev-only fault injection, e.g. 'panic=2,torn=3,kill=5' (see internal/campaign chaos.go)")
		dryRun    = flag.Bool("dry-run", false, "print the expansion summary (cells, axes, estimated cache hit rate) without simulating")
		remote    = flag.String("remote", "", "submit the sweep to a grpserve instance at this base URL (e.g. http://host:8080) instead of simulating locally")
		tenant    = flag.String("tenant", "", "tenant name for -remote fairness accounting")
		weight    = flag.Int("weight", 0, "scheduling weight 1..16 for -remote (default 1)")
	)
	flag.Parse()

	// A bad flag value exits 2 before any file is written or cell runs.
	if *spec == "" {
		usageIf(errors.New("-spec is required (see -h for the grammar)"))
	}
	if *format != "ascii" && *format != "json" && *format != "csv" {
		usageIf(fmt.Errorf("unknown format %q (want ascii, json, or csv)", *format))
	}
	useCache := *cacheOn && !*noCache
	if *resume && !useCache {
		usageIf(errors.New("-resume needs the result cache (it is what replays completed cells)"))
	}
	f, err := workloads.ParseFactor(*factor)
	usageIf(err)
	pol, err := compiler.ParsePolicy(*policy)
	usageIf(err)
	base := core.Options{Factor: f, Policy: pol}
	grid, err := campaign.ParseSpec(*spec, base)
	usageIf(err)
	var chaos *campaign.Chaos
	if *chaosSpec != "" {
		chaos, err = campaign.ParseChaos(*chaosSpec)
		usageIf(err)
	}

	// Open the artifact destination before doing anything expensive so a
	// bad path fails fast (remote mode writes the fetched artifact here
	// too).
	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		dst = f
	}

	if *remote != "" {
		runRemote(remoteRun{
			base:   *remote,
			spec:   *spec,
			factor: *factor,
			policy: *policy,
			tenant: *tenant,
			weight: *weight,
			format: *format,
			dryRun: *dryRun,
			quiet:  *quiet,
			dst:    dst,
		})
		return
	}

	if chaos != nil {
		log.Printf("CHAOS MODE: injecting %q", *chaosSpec)
	}

	// SIGINT/SIGTERM cancel the run context: workers drain their in-flight
	// cells (each simulation polls the context), completed work is already
	// journaled, and the journal closes cleanly on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := campaign.Config{
		Jobs:        *jobs,
		Cache:       useCache,
		CacheDir:    *cacheDir,
		CellTimeout: *cellTO,
		Retry:       campaign.RetryPolicy{MaxAttempts: *retries},
		KeepGoing:   *keepGoing,
		Chaos:       chaos,
		Warnf:       log.Printf,
	}
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The reporter turns cell start/finish events into live throughput,
	// worker utilization, and ETA; -listen additionally serves the same
	// numbers over HTTP for fleet scraping.
	rep := obs.NewReporter(len(grid.Cells), workers)
	if *listen != "" {
		srv, err := obs.NewServer(*listen, rep, obs.NewBuildInfo(obs.Version, campaign.SchemaVersion()))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("debug endpoint on http://%s (/metrics, /debug/pprof/)", srv.Addr())
	}
	cfg.OnCellStart = rep.CellStart
	cfg.OnCellRetry = rep.CellRetry
	cfg.OnCellFail = rep.CellFailed
	prevHits := 0
	cfg.Progress = func(done, total, hits int) {
		rep.CellDone(hits > prevHits) // Progress calls are serialized
		prevHits = hits
		if !*quiet {
			fmt.Fprintf(os.Stderr, "grpsweep: %s\n", rep.Line())
		}
	}
	eng := campaign.New(cfg)
	gridJobs := grid.Jobs()

	if *dryRun {
		d, err := eng.DryRunGrid(grid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(dst, d)
		return
	}

	// The journal makes completions durable and guards the sweep with a
	// lock; it needs the cells' content addresses up front.
	var journal *campaign.Journal
	if useCache {
		keys, err := eng.Keys(gridJobs)
		if err != nil {
			log.Fatal(err)
		}
		journal, err = campaign.OpenJournal(*cacheDir, *spec, keys, *resume)
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		eng.AttachJournal(journal)
		if *resume {
			log.Printf("resuming sweep %s: %d of %d cells already completed",
				journal.ID(), journal.CompletedCount(), len(gridJobs))
		}
	}

	log.Printf("campaign: %d cells (%d benches × %d schemes × %d configs), %d jobs, cache %s",
		len(grid.Cells), len(grid.Benches), len(grid.Schemes),
		len(grid.Cells)/(len(grid.Benches)*len(grid.Schemes)), eng.Jobs(), cacheState(cfg))

	start := time.Now()
	report, err := eng.RunReport(ctx, gridJobs)
	if err != nil {
		journal.Close()
		if errors.Is(err, context.Canceled) {
			log.Printf("interrupted: completed cells are journaled; rerun with -resume to finish")
			os.Exit(130)
		}
		log.Fatal(err)
	}
	wall := time.Since(start)

	// The artifact renders through the same path grpserve uses
	// (campaign.WriteArtifact), which is what keeps a remote artifact
	// byte-identical to a local run of the same grid.
	art := &campaign.Artifact{
		Spec:     *spec,
		Factor:   base.Factor.String(),
		Policy:   base.Policy.String(),
		Grid:     grid,
		Results:  report.Results,
		Failures: report.Failures,
	}
	fatal(campaign.WriteArtifact(dst, *format, art))

	cs := eng.CacheStats()
	extra := ""
	if cs.Retries > 0 || cs.Corrupt > 0 {
		extra = fmt.Sprintf(", %d retries, %d corrupt cells quarantined", cs.Retries, cs.Quarantined)
	}
	log.Printf("done in %v: %d cells, %d cache hits, simulated %d%s",
		wall.Round(time.Millisecond), len(grid.Cells), cs.Hits, uint64(len(grid.Cells))-cs.Hits, extra)
	if n := len(report.Failures); n > 0 {
		for _, f := range report.Failures {
			log.Printf("FAILED cell %s/%s (index %d, %d attempts): %s", f.Bench, f.Scheme, f.Index, f.Attempts, f.Err)
		}
		journal.Close()
		log.Printf("%d of %d cells failed; rerun with -resume to retry them", n, len(grid.Cells))
		os.Exit(1)
	}
}

func cacheState(cfg campaign.Config) string {
	if !cfg.Cache {
		return "off"
	}
	return "on (" + cfg.CacheDir + ")"
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// usageIf exits 2, the flag package's usage status, on a bad flag value.
func usageIf(err error) {
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
}
