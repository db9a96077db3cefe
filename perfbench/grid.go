package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"grp/internal/campaign"
	"grp/internal/core"
	"grp/internal/workloads"
)

// warmPhase is how long paper-grid re-runs the grid warm after its
// timed phase: enough passes to check that warm results equal cold ones
// and to report warm_cells_per_s. No gated metric reads it.
const warmPhase = 1 * time.Second

// gridJobs is the paper's evaluation grid, every kernel under every
// scheme at small scale, in the next order rng draws.
func gridJobs(rng *rand.Rand) []campaign.Job {
	cells := core.SuiteCells(workloads.Names(), core.AllSchemes())
	opt := core.Options{Factor: workloads.Small}
	jobs := make([]campaign.Job, len(cells))
	for i, k := range rng.Perm(len(cells)) {
		jobs[i] = campaign.Job{Bench: cells[k].Bench, Scheme: cells[k].Scheme, Opt: opt}
	}
	return jobs
}

// canonicalOrder returns results in grid order (kernels outer, schemes
// inner), whatever order the seed ran them in.
func canonicalOrder(jobs []campaign.Job, rs []*core.Result) []*core.Result {
	pos := map[core.Cell]int{}
	for i, c := range core.SuiteCells(workloads.Names(), core.AllSchemes()) {
		pos[c] = i
	}
	out := make([]*core.Result, len(rs))
	for i, j := range jobs {
		out[pos[core.Cell{Bench: j.Bench, Scheme: j.Scheme}]] = rs[i]
	}
	return out
}

// coldPass is one pass over the grid on its own engine and empty store.
type coldPass struct {
	eng     *campaign.Engine
	jobs    []campaign.Job
	results []*core.Result // by position in jobs
}

// runPaperGrid runs whole cold passes of the grid for the run's length,
// each on a fresh campaign engine over an empty disk store and in its own
// seed-drawn order, so that over a run the two workers pair up many
// different cells. Then it runs warm passes over the first pass's store,
// each from a fresh engine, as a re-run of grpsweep would.
func runPaperGrid(e *env) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(e.seed))
	jobs := gridJobs(rng)
	var dir string
	var eng *campaign.Engine
	setUp := func(keep bool) error {
		d, err := e.tempDir()
		if err != nil {
			return err
		}
		en := campaign.New(campaign.Config{Jobs: e.workers, Cache: true, CacheDir: d})
		if _, err := en.Keys(jobs); err != nil {
			return err
		}
		// The warm-up cell is fixed, not seed-chosen, so set-up costs the
		// same whatever the seed; it runs outside the engine so the store
		// stays empty for the cold pass.
		spec, err := workloads.ByName(workloads.Names()[0])
		if err != nil {
			return err
		}
		if _, err := core.Run(spec, core.GRPVar, jobs[0].Opt); err != nil {
			return err
		}
		if !keep {
			return os.RemoveAll(d)
		}
		dir, eng = d, en
		return nil
	}
	if err := o.setUpBefore(setUp); err != nil {
		return nil, err
	}

	// The timed phase. Pass 0 runs on the engine set-up keyed; every
	// later pass gets its own engine, store and order when its first cell
	// is claimed, and keys its cells as it goes, as a fresh grpsweep does.
	ctx := context.Background()
	var mu sync.Mutex
	passes := []*coldPass{{eng: eng, jobs: jobs, results: make([]*core.Result, len(jobs))}}
	var instrs uint64
	var broken []error
	n, lat, wall := runFor(e.workers, e.seconds, len(jobs), func(i int) {
		p, k := i/len(jobs), i%len(jobs)
		mu.Lock()
		var err error
		for err == nil && len(passes) <= p {
			var d string
			if d, err = e.tempDir(); err == nil {
				passes = append(passes, &coldPass{
					eng:     campaign.New(campaign.Config{Jobs: e.workers, Cache: true, CacheDir: d}),
					jobs:    gridJobs(rng),
					results: make([]*core.Result, len(jobs)),
				})
			}
		}
		var cp *coldPass
		if err == nil {
			cp = passes[p]
		}
		mu.Unlock()
		var r *core.Result
		if err == nil {
			var hit bool
			r, hit, _, err = cp.eng.RunOne(ctx, k, cp.jobs[k])
			if err == nil && hit {
				err = fmt.Errorf("%s/%s was already in the store", cp.jobs[k].Bench, cp.jobs[k].Scheme)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			o.failed++
			broken = append(broken, fmt.Errorf("cold pass %d: %w", p+1, err))
			return
		}
		cp.results[k] = r
		instrs += r.CPU.Instrs
	})
	o.attempted += n
	o.breakAll(broken)
	if err := o.setTail(lat); err != nil {
		return nil, err
	}
	o.set("sim_minstr_per_s", float64(instrs)/1e6/wall.Seconds())
	o.note("timed phase: %d cold passes of %d cells, %d simulated instructions in %.3f s", len(passes), len(jobs), instrs, wall.Seconds())
	cold := canonicalOrder(jobs, passes[0].results)
	for p := 1; p < len(passes); p++ {
		o.breakAll(checkSame(fmt.Sprintf("cold pass %d vs cold pass 1", p+1), cold, canonicalOrder(passes[p].jobs, passes[p].results)))
	}

	// Warm passes over the first pass's store.
	var warmCells, warmPasses int
	warmStart := time.Now()
	for warmPasses == 0 || time.Since(warmStart) < warmPhase {
		we := campaign.New(campaign.Config{Jobs: e.workers, Cache: true, CacheDir: dir})
		rs, err := we.Run(ctx, jobs)
		warmPasses++
		o.attempted += len(jobs)
		if err != nil {
			o.failed += len(jobs)
			o.breakAll([]error{fmt.Errorf("warm pass %d: %w", warmPasses, err)})
			break
		}
		if st := we.CacheStats(); st.Hits != uint64(len(jobs)) {
			o.breakAll([]error{fmt.Errorf("warm pass %d: %d store hits for %d cells", warmPasses, st.Hits, len(jobs))})
		}
		errs := checkSame(fmt.Sprintf("warm pass %d vs cold pass 1", warmPasses), cold, canonicalOrder(jobs, rs))
		o.failed += len(errs)
		o.breakAll(errs)
		warmCells += len(rs)
	}
	warmTime := time.Since(warmStart)
	o.note("warm_cells_per_s %.1f cells/s (%d passes, %d cells in %.3f s)", float64(warmCells)/warmTime.Seconds(), warmPasses, warmCells, warmTime.Seconds())

	if err := o.setUpAfter(setUp); err != nil {
		return nil, err
	}
	o.breakAll(checkCrossScheme(cold))
	fp := newFingerprint()
	for _, r := range cold {
		if r != nil {
			fp.add(r)
		}
	}
	o.note("sim_fingerprint %s (cold pass 1, grid order)", fp.sum())
	o.note("failed_frac %g (%d of %d)", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	o.setPeakRSS()
	return o, nil
}
