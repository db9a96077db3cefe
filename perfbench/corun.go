package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"grp/internal/campaign"
	"grp/internal/core"
	"grp/internal/workloads"
)

// coRunRounds is how many rounds make up a corun run's list of pairs.
// In a round every kernel runs once on core 0 and once on core 1 (its
// partner comes from a seed-chosen permutation, so self-pairs occur), so
// the simulated work of a round does not depend on the seed. A co-run's
// latency does depend on its pair, so a longer list makes a run's
// latency percentiles depend less on which pairs the seed drew.
const coRunRounds = 6

// coRunScheme and coRunOptions are the configuration of every co-run.
const coRunScheme = core.GRPVar

func coRunOptions() core.Options { return core.Options{Factor: workloads.Small} }

// coRunPairs draws the run's list of kernel pairs from the 18×18 matrix.
func coRunPairs(seed int64) [][2]string {
	names := workloads.Names()
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]string
	for r := 0; r < coRunRounds; r++ {
		partner := rng.Perm(len(names))
		for _, k := range rng.Perm(len(names)) {
			pairs = append(pairs, [2]string{names[k], names[partner[k]]})
		}
	}
	return pairs
}

// runCoRun runs 2-core co-runs of seed-chosen kernel pairs for the run's
// length, in whole passes over the pair list.
func runCoRun(e *env) (*outcome, error) {
	o := newOutcome()
	pairs := coRunPairs(e.seed)
	opt := coRunOptions()
	names := workloads.Names()
	setUp := func(bool) error {
		// A fixed warm-up pair, so set-up costs the same for every seed.
		_, err := core.RunCoRun([]string{names[0], names[1]}, coRunScheme, opt)
		return err
	}
	if err := o.setUpBefore(setUp); err != nil {
		return nil, err
	}

	var mu sync.Mutex
	first := make([]*core.CoRunResult, len(pairs))
	var instrs uint64
	var broken []error
	var opFailed int
	n, lat, wall := runFor(e.workers, e.seconds, len(pairs), func(i int) {
		k := i % len(pairs)
		cr, err := core.RunCoRun(pairs[k][:], coRunScheme, opt)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			opFailed++
			broken = append(broken, fmt.Errorf("co-run %v: %w", pairs[k], err))
			return
		}
		for _, r := range cr.Results {
			instrs += r.CPU.Instrs
		}
		if f := first[k]; f == nil {
			first[k] = cr
		} else {
			broken = append(broken, checkSame(fmt.Sprintf("repeated co-run %v", pairs[k]), f.Results, cr.Results)...)
		}
	})
	if opFailed > 0 {
		return nil, fmt.Errorf("%d of %d co-runs failed, the first: %w", opFailed, n, broken[0])
	}
	o.attempted = n
	o.breakAll(broken)
	if err := o.setTail(lat); err != nil {
		return nil, err
	}
	o.set("sim_minstr_per_s", float64(instrs)/1e6/wall.Seconds())
	o.note("timed phase: %d co-runs (%d passes over %d pairs), %d simulated instructions in %.3f s",
		n, n/len(pairs), len(pairs), instrs, wall.Seconds())

	// Untimed verification: every kernel alone, whose digests each
	// co-run core must reproduce.
	solo := make([]*core.Result, len(names))
	if err := campaign.ParallelFor(context.Background(), len(names), e.workers, func(k int) error {
		spec, err := workloads.ByName(names[k])
		if err == nil {
			solo[k], err = core.Run(spec, coRunScheme, opt)
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := o.setUpAfter(setUp); err != nil {
		return nil, err
	}
	byName := map[string]*core.Result{}
	for _, r := range solo {
		byName[r.Bench] = r
	}
	o.breakAll(checkCoRunDigests(first, byName))

	fp := newFingerprint()
	for _, cr := range first {
		for _, r := range cr.Results {
			fp.add(r)
		}
	}
	o.note("sim_fingerprint %s (%d pairs in list order)", fp.sum(), len(pairs))
	o.note("failed_frac %g (%d of %d)", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	o.setPeakRSS()
	return o, nil
}
