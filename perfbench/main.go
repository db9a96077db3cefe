// Command perfbench is the repository's benchmark. It runs one workload
// for one seed, checks the outputs against correctness relations that
// need no stored results, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 180, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones of manifest.json,
// measured untraced with 2 workers; with --trace 1 they are the
// per-layer ones, taken from a separate single-worker run with spans
// around the calls into each layer. Run it through run.sh, which builds
// it from the checkout:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// The exit code is 0 only when every relation held and no operation
// failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workloadRunners maps each workload name to its untraced run.
var workloadRunners = map[string]func(*env) (*outcome, error){
	"paper-grid": runPaperGrid,
	"corun":      runCoRun,
}

// A workload sets up setupsBefore times before its timed phase, keeping
// the state of the last, and setupsAfter times after it; setup_s is the
// median of them all. One set-up takes a few hundred milliseconds, and
// the host's speed drifts over seconds, so set-ups on both sides of the
// timed phase read it over the same stretch of time the other metrics do.
const (
	setupsBefore = 6
	setupsAfter  = 6
)

// minOps is the fewest timed operations a run accepts, so that the p90
// has at least ten samples beyond it.
const minOps = 100

// maxBrokenLines bounds how many broken relations a run prints.
const maxBrokenLines = 20

// env is what every workload run receives.
type env struct {
	seed    int64
	seconds time.Duration
	workers int
	tmp     string // per-process scratch directory, removed at exit
	workDir string
}

// tempDir returns a fresh empty directory under the run's scratch space.
func (e *env) tempDir() (string, error) { return os.MkdirTemp(e.tmp, "store-") }

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             []string  // report lines printed before the result
	broken            []error   // correctness relations that failed
	setups            []float64 // seconds of each set-up so far
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) breakAll(errs []error) { o.broken = append(o.broken, errs...) }

// setTail records op_ms_p50 and op_ms_p90 of the operation latencies.
func (o *outcome) setTail(lat []float64) error {
	p90, beyond, err := tailPercentile(lat, 0.9)
	if err != nil {
		return fmt.Errorf("op_ms_p90: %w", err)
	}
	o.set("op_ms_p50", median(lat))
	o.set("op_ms_p90", p90)
	o.note("op latency: %d samples, p50 %.3f ms, p90 %.3f ms (%d samples beyond)", len(lat), median(lat), p90, beyond)
	return nil
}

// setPeakRSS records the process's peak resident set.
func (o *outcome) setPeakRSS() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		o.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
	}
}

// setUp runs the set-up fn n times, each from nothing and after a
// collection so that the garbage of the one before drops out. fn keeps
// its state only when told to; setUp tells the last of the n when keep
// is true.
func (o *outcome) setUp(n int, keep bool, fn func(keep bool) error) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		if err := fn(keep && i == n-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t).Seconds())
	}
	return nil
}

// setUpBefore runs the set-ups before the timed phase and keeps the
// state of the last.
func (o *outcome) setUpBefore(fn func(keep bool) error) error { return o.setUp(setupsBefore, true, fn) }

// setUpAfter runs the set-ups after the timed phase, discarding their
// state, and records setup_s.
func (o *outcome) setUpAfter(fn func(keep bool) error) error {
	if err := o.setUp(setupsAfter, false, fn); err != nil {
		return err
	}
	o.set("setup_s", median(o.setups))
	o.note("set-up: median %.4f s; %d before the timed phase, median %.4f s; %d after, median %.4f s",
		median(o.setups), setupsBefore, median(o.setups[:setupsBefore]), setupsAfter, median(o.setups[setupsBefore:]))
	return nil
}

// runFor runs op(i) for i = 0, 1, 2, … on workers goroutines until d
// has passed, in whole units of unit operations and at least minOps;
// claimed operations run to completion. An index is claimed, and the
// deadline checked, under one lock, and once a claim is refused none
// follows, so the operations that ran are exactly 0..n-1 and n is a
// multiple of unit. It returns n, every operation's latency in ms (by
// index) and the wall time until the last one finished.
func runFor(workers int, d time.Duration, unit int, op func(i int)) (int, []float64, time.Duration) {
	start := time.Now()
	var mu sync.Mutex
	var lat []float64 // one slot per claimed index
	stopped := false
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		n := len(lat)
		if !stopped && n%unit == 0 && n >= minOps && time.Since(start) >= d {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		lat = append(lat, 0)
		return n, true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				t := time.Now()
				op(i)
				ms := float64(time.Since(t)) / float64(time.Millisecond)
				mu.Lock()
				lat[i] = ms
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return len(lat), lat, time.Since(start)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cat, err := loadCatalogue()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-grid or corun")
	seed := fs.Int64("seed", cat.Seeds.Default, "seed every input of the workload derives from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds, rounded up to a whole pass")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	workDir := fs.String("work-dir", ".bench_build", "directory for temporary stores and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloadRunners[*workload]
	if !ok {
		names := make([]string, 0, len(workloadRunners))
		for n := range workloadRunners {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, names)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	dir, err := filepath.Abs(*workDir)
	if err == nil {
		err = os.MkdirAll(filepath.Join(dir, "tmp"), 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(dir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workers: cat.Workers, tmp: tmp, workDir: dir}
	defs := cat.EndToEnd
	mode := fmt.Sprintf("untraced, %d s, %d workers", *seconds, e.workers)
	if *trace == 1 {
		runner, defs, mode = func(e *env) (*outcome, error) { return runTraced(e, *workload) }, cat.PerLayer, "traced, 1 worker"
	}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %s\n", *workload, *seed, mode)
	out, err := runner(e)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "  "+n)
	}
	for _, d := range defs {
		if v, ok := out.values[d.Name]; ok {
			fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for i, b := range out.broken {
		if i == maxBrokenLines {
			fmt.Fprintf(stdout, "  BROKEN: ... and %d more\n", len(out.broken)-i)
			break
		}
		fmt.Fprintln(stdout, "  BROKEN:", b)
	}
	correct := len(out.broken) == 0 && out.failed == 0
	res, err := finalLine(defs, out.values, out.attempted, out.failed, correct)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}
