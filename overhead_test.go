// Overhead gates: what attaching the attribution ledger costs a cell, and
// what the crash-safety machinery costs a sweep, each against the same
// work without it. Both share one timing loop and one verdict rule:
//
//	go test -run 'TestAttribOverhead|TestRobustOverhead|TestOverheadRule' -v .
//
// Absolute per-layer costs (attrib.fold_us, campaign.key_us, get_us,
// put_us) are perfbench's; these gates only bound the ratio.
package grp

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"grp/internal/campaign"
	"grp/internal/core"
	"grp/internal/stats"
	"grp/internal/workloads"
)

const (
	// overheadBound is the most an instrument may cost, as a ratio of the
	// instrumented run's time to the plain run's.
	overheadBound = 1.03
	// overheadRounds is the number of paired rounds per kernel.
	overheadRounds = 9
	// overheadResamples is the number of resamples behind the interval.
	overheadResamples = 400
)

// timed runs fn after flushing accumulated garbage, so a collection
// triggered by earlier runs never lands inside the window, and returns
// fn's wall time.
func timed(fn func()) time.Duration {
	runtime.GC()
	start := time.Now()
	fn()
	return time.Since(start)
}

// pairedRounds returns, per kernel, each round's paired ratio of the
// instrumented side's time to the plain side's. run sets one side up and
// times it with timed. The two sides of a round run back to back, so noise
// that covers a whole round cancels, and which side goes first alternates,
// so warm-up and frequency drift hit both alike.
func pairedRounds(kernels []string, run func(kernel string, on bool) time.Duration) [][]float64 {
	ratios := make([][]float64, len(kernels))
	for k, name := range kernels {
		ratios[k] = make([]float64, overheadRounds)
		for r := range ratios[k] {
			var off, on time.Duration
			if r%2 == 0 {
				off = run(name, false)
				on = run(name, true)
			} else {
				on = run(name, true)
				off = run(name, false)
			}
			ratios[k][r] = on.Seconds() / off.Seconds()
		}
	}
	return ratios
}

// overhead is a gate's reading of its paired rounds.
type overhead struct {
	medians []float64 // each kernel's median paired ratio
	// estimate is the median of medians; lo and hi are the quartiles of
	// the same statistic over resamples of each kernel's rounds.
	estimate, lo, hi float64
	// geomean is the geometric mean of medians, logged for comparison: as
	// a verdict it flakes at the bound (see trips).
	geomean float64
}

// trips reports whether the instrument costs more than overheadBound: the
// whole measured interval must lie above it. A point estimate at the
// bound flakes, because where a collection lands can move one kernel by
// 1.7× and the geomean with it.
func (o overhead) trips() bool { return o.lo > overheadBound }

// readOverhead turns per-kernel paired ratios into an overhead reading.
// The resamples draw each kernel's rounds with replacement from a fixed
// seed, so the same rounds always give the same reading.
func readOverhead(ratios [][]float64) overhead {
	o := overhead{medians: make([]float64, len(ratios))}
	for k, r := range ratios {
		o.medians[k] = median(r)
	}
	o.estimate = median(o.medians)
	o.geomean = stats.Geomean(o.medians)

	rng := rand.New(rand.NewSource(1))
	meds := make([]float64, len(ratios))
	boot := make([]float64, overheadResamples)
	for b := range boot {
		for k, r := range ratios {
			draw := make([]float64, len(r))
			for i := range draw {
				draw[i] = r[rng.Intn(len(r))]
			}
			meds[k] = median(draw)
		}
		boot[b] = median(meds)
	}
	sort.Float64s(boot)
	o.lo, o.hi = boot[len(boot)/4], boot[3*len(boot)/4]
	return o
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gateOverhead times every kernel's paired rounds with run, logs the
// reading and fails the test when it trips.
func gateOverhead(t *testing.T, what string, run func(kernel string, on bool) time.Duration) {
	t.Helper()
	kernels := workloads.Names()
	o := readOverhead(pairedRounds(kernels, run))
	per := make([]string, len(kernels))
	for k, name := range kernels {
		per[k] = fmt.Sprintf("%s %.3f", name, o.medians[k])
	}
	t.Logf("%s overhead: %.3fx, interval %.3f–%.3f (old rule, geomean: %.3fx); per kernel: %s",
		what, o.estimate, o.lo, o.hi, o.geomean, strings.Join(per, ", "))
	if o.trips() {
		t.Errorf("%s overhead is %.3fx, interval %.3f–%.3f lies wholly above %.2fx",
			what, o.estimate, o.lo, o.hi, overheadBound)
	}
}

// TestAttribOverhead times every kernel's grp/var cell with the
// attribution ledger detached and attached, and gates what attaching it
// costs.
func TestAttribOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	gateOverhead(t, "attribution", func(bench string, attached bool) time.Duration {
		spec, err := workloads.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{Factor: workloads.Test, Attrib: attached}
		return timed(func() {
			if _, err := core.Run(spec, core.GRPVar, opt); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestRobustOverhead times every kernel's sweep through a campaign engine
// twice per round: plain (cache only) and hardened (a cold journal with
// fsynced completion records, a per-cell deadline whose cancellation hook
// is live in the CPU commit loop, and the retry wrapper). It gates what
// crash safety costs when nothing crashes.
func TestRobustOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	// The hardened path adds the same work to every cell whatever its
	// scheme (a deadline context, the retry wrapper, a journal append), so
	// three schemes show its cost as all ten do, in a third of the time.
	// The serial engine (Jobs: 1) times the cell path, not scheduling.
	schemes := []core.Scheme{core.NoPrefetch, core.SRP, core.GRPVar}
	gateOverhead(t, "robustness", func(bench string, hardened bool) time.Duration {
		dir := t.TempDir()
		cfg := campaign.Config{Jobs: 1, Cache: true, CacheDir: dir}
		if hardened {
			cfg.CellTimeout = time.Hour
			cfg.Retry = campaign.RetryPolicy{MaxAttempts: 3}
		}
		eng := campaign.New(cfg)
		jobs := make([]campaign.Job, len(schemes))
		for i, sc := range schemes {
			jobs[i] = campaign.Job{Bench: bench, Scheme: sc, Opt: core.Options{Factor: workloads.Test}}
		}
		// Both sides hash the kernel's program here, outside the timed
		// window; only the hardened side opens a journal with the keys.
		keys, err := eng.Keys(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if hardened {
			j, err := campaign.OpenJournal(dir, "bench", keys, false)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			eng.AttachJournal(j)
		}
		return timed(func() {
			if _, err := eng.Run(context.Background(), jobs); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestOverheadRule is the verdict rule's known-bad self-test, on synthetic
// rounds shaped like clean runs of the gates: 16 kernels at 1.00–1.02 and
// two at 1.7× in every round, the mark of collections landing on one side.
// The rule must pass them, though their geomean reads about 1.07×, and
// must trip on the same rounds scaled by 1.08.
func TestOverheadRule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clean := make([][]float64, 18)
	for k := range clean {
		level := 1 + 0.02*float64(k)/17
		if k%9 == 4 {
			level = 1.7
		}
		clean[k] = make([]float64, overheadRounds)
		for r := range clean[k] {
			clean[k][r] = level * (1 + 0.03*(2*rng.Float64()-1))
		}
	}
	o := readOverhead(clean)
	if o.geomean <= overheadBound {
		t.Fatalf("clean rounds read a geomean of %.3fx; the fixture must trip the old rule", o.geomean)
	}
	if o.trips() {
		t.Errorf("clean rounds trip: %.3fx, interval %.3f–%.3f", o.estimate, o.lo, o.hi)
	}

	slow := make([][]float64, len(clean))
	for k, r := range clean {
		slow[k] = make([]float64, len(r))
		for i, x := range r {
			slow[k][i] = 1.08 * x
		}
	}
	if o := readOverhead(slow); !o.trips() {
		t.Errorf("rounds 1.08x slower pass: %.3fx, interval %.3f–%.3f", o.estimate, o.lo, o.hi)
	}
}
