// Package campaign is the parallel experiment engine: it fans
// (workload × scheme × config-overlay) cells out over a bounded pool of
// goroutines with a content-addressed result cache in front, and reduces
// completed cells in canonical order so parallel output is byte-identical
// to the serial path.
//
// Each cell is keyed by a SHA-256 digest of the canonicalized effective
// core.Options plus a hash of the compiled workload program (see key.go),
// so re-running a campaign after editing one workload, the compiler, or a
// single scheme (bump its schemeVersions entry) only re-simulates the
// dirty cells. Results persist as JSON under .grpcache/ with an in-memory
// LRU in front.
//
// The engine is crash-safe: every cell runs under recover() so one panic
// becomes a structured PanicError instead of a dead sweep, transient
// failures retry with capped backoff, a cancelled context drains cleanly,
// and an attached Journal (see journal.go) plus the cache make a killed
// campaign resumable with byte-identical output.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"grp/internal/core"
	"grp/internal/workloads"
)

// Config configures a campaign engine.
type Config struct {
	// Jobs is the worker-pool width; <= 0 uses GOMAXPROCS.
	Jobs int
	// Cache enables the content-addressed result cache.
	Cache bool
	// CacheDir overrides the cache root (default .grpcache).
	CacheDir string
	// Backend overrides the result store entirely (Cache and CacheDir are
	// then ignored). A *Store gets the engine's chaos and warning hooks
	// wired in; any other Backend is used as given.
	Backend Backend
	// Dedup collapses concurrent identical in-flight cells through a
	// singleflight layer in front of the store: each unique cell digest
	// simulates exactly once and every subscriber shares the result.
	// Off by default — a single grid never contains duplicate cells, so
	// only multi-sweep drivers (grpserve) pay for the layer.
	Dedup bool
	// CellTimeout bounds one attempt of one cell; 0 means no deadline.
	// An overrun cancels the simulation (polled in the CPU commit loop)
	// and counts as a transient failure, so it retries.
	CellTimeout time.Duration
	// Retry bounds the response to transient cell failures; the zero
	// value uses the defaults (3 attempts, 10ms base backoff).
	Retry RetryPolicy
	// KeepGoing records per-cell failures in the report instead of
	// aborting the sweep on the first one.
	KeepGoing bool
	// Chaos, when non-nil, injects deterministic infrastructure faults
	// (dev/test only; see chaos.go).
	Chaos *Chaos
	// Progress, when non-nil, is called after every completed cell with
	// the completion count, the grid size, and how many of the completed
	// cells were cache hits. Calls are serialized.
	Progress func(done, total, hits int)
	// OnCellStart, when non-nil, is called as each cell begins processing
	// (cache lookup included). Unlike Progress it is NOT serialized: it
	// runs on the worker goroutine, so fleet reporters (internal/obs) see
	// live worker occupancy. The callee must be safe for concurrent use.
	OnCellStart func()
	// OnCellRetry, when non-nil, is called on each retry of a failed
	// attempt (concurrent, like OnCellStart).
	OnCellRetry func()
	// OnCellFail, when non-nil, is called when a cell fails for good
	// under KeepGoing (concurrent, like OnCellStart).
	OnCellFail func()
	// Warnf, when non-nil, receives non-fatal infrastructure warnings
	// (cache degradation, quarantined files, journal write errors).
	Warnf func(format string, args ...interface{})
}

// Engine runs campaigns. One engine may run several grids; the cache and
// its statistics persist across runs, which is what makes a -compare
// baseline a cache hit when the main run already warmed it.
type Engine struct {
	cfg     Config
	store   Backend      // nil when caching is off
	flight  *flightGroup // nil unless cfg.Dedup
	memo    *hashMemo
	journal *Journal // nil unless AttachJournal was called
	retries atomic.Uint64
	sims    atomic.Uint64
	dedups  atomic.Uint64
}

// New builds an engine from the configuration.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, memo: newHashMemo()}
	switch {
	case cfg.Backend != nil:
		e.store = cfg.Backend
	case cfg.Cache:
		e.store = NewStore(cfg.CacheDir, 0)
	}
	// The local-directory store carries engine-level hooks (chaos
	// injection, warning sink); other backends are self-contained.
	if s, ok := e.store.(*Store); ok {
		s.chaos = cfg.Chaos
		s.warnf = e.warnf
	}
	if cfg.Dedup {
		e.flight = newFlightGroup()
	}
	return e
}

// Jobs returns the effective worker-pool width.
func (e *Engine) Jobs() int {
	if e.cfg.Jobs > 0 {
		return e.cfg.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// CacheStats reports cache traffic so far; zero when caching is off
// (cell retries are counted even then).
func (e *Engine) CacheStats() CacheStats {
	var st CacheStats
	if e.store != nil {
		st = e.store.Stats()
	}
	st.Retries = e.retries.Load()
	st.Deduped = e.dedups.Load()
	return st
}

// Simulations counts cell simulation attempts actually executed by this
// engine — cache hits and deduped subscribers are excluded, retries of a
// failing cell are included. It is the run counter the exactly-once
// dedup guarantee is verified against.
func (e *Engine) Simulations() uint64 { return e.sims.Load() }

// AttachJournal makes the engine record cell completions durably. Open
// the journal with the keys from Keys on the same job list, attach it,
// then Run; the caller owns Close.
func (e *Engine) AttachJournal(j *Journal) { e.journal = j }

// warnf routes a non-fatal warning to the configured sink (or drops it).
func (e *Engine) warnf(format string, args ...interface{}) {
	if e.cfg.Warnf != nil {
		e.cfg.Warnf(format, args...)
	}
}

// Job is one fully resolved simulation: a bench, a scheme, and the exact
// options to run it under (grid cells carry per-cell overlays).
type Job struct {
	Bench  string
	Scheme core.Scheme
	Opt    core.Options
}

// Keys computes the content address of every job, positionally. This is
// what a sweep journal is opened with. Building, initializing and
// digesting a program's memory image is nearly all the cost of keying, so
// Keys hashes each distinct program the jobs name (co-runners included)
// once, on the worker pool, then forms the cell keys there too. At most
// Jobs() images are alive at once, as when the cells run. A failure
// returns the error of the lowest failing job, at any pool width.
func (e *Engine) Keys(jobs []Job) ([]CellKey, error) {
	var progs []program
	seen := map[program]bool{}
	for _, j := range jobs {
		for _, p := range programsOf(j) {
			if !seen[p] {
				seen[p] = true
				progs = append(progs, p)
			}
		}
	}
	// Programs are listed in the order the jobs first name them, so the
	// lowest failing program is the one the lowest failing job meets first.
	ctx := context.Background()
	if err := ParallelFor(ctx, len(progs), e.Jobs(), func(i int) error {
		_, err := e.memo.get(progs[i])
		return err
	}); err != nil {
		return nil, err
	}
	keys := make([]CellKey, len(jobs))
	err := ParallelFor(ctx, len(jobs), e.Jobs(), func(i int) error {
		var err error
		keys[i], err = e.memo.key(jobs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return keys, nil
}

// Report is the full outcome of a campaign: positional results plus, in
// keep-going mode, the cells that failed for good (results[i] is nil for
// a failed cell i). Failures are ordered by grid index, so a failing
// sweep reports identically at any worker count.
type Report struct {
	Results  []*core.Result
	Failures []CellFailure
}

// Run executes the jobs on the worker pool and returns results
// positionally: results[i] belongs to jobs[i], whatever order the workers
// finished in. The lowest-index error cancels the remaining jobs; in
// keep-going mode the sweep finishes and the error summarizes the
// failures (use RunReport to get them per cell).
//
// Cells with a Timeline attached bypass the cache: a timeline is a side
// effect of simulating, and a cache hit would leave it empty.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]*core.Result, error) {
	rep, err := e.RunReport(ctx, jobs)
	if err != nil {
		return nil, err
	}
	if n := len(rep.Failures); n > 0 {
		f := rep.Failures[0]
		return nil, fmt.Errorf("campaign: %d of %d cells failed (first: %s/%s: %s)",
			n, len(jobs), f.Bench, f.Scheme, f.Err)
	}
	return rep.Results, nil
}

// RunReport is Run with per-cell failure reporting: in keep-going mode a
// failed cell leaves a nil result and a CellFailure record instead of
// aborting the sweep. The returned error covers infrastructure-level
// aborts only (cancellation, or the first cell error without KeepGoing).
func (e *Engine) RunReport(ctx context.Context, jobs []Job) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*core.Result, len(jobs))
	failures := make([]*CellFailure, len(jobs))
	var done, hits int
	var progressMu sync.Mutex
	report := func(hit bool) {
		progressMu.Lock()
		done++
		if hit {
			hits++
		}
		d := done
		if e.cfg.Progress != nil {
			e.cfg.Progress(done, len(jobs), hits)
		}
		progressMu.Unlock()
		// The kill switch fires at an exact completion count, so a chaos
		// run dies at the same sweep state regardless of worker schedule.
		if c := e.cfg.Chaos; c != nil && c.KillAfter > 0 && d == c.KillAfter {
			c.kill()
		}
	}

	err := ParallelFor(ctx, len(jobs), e.Jobs(), func(i int) error {
		if e.cfg.OnCellStart != nil {
			e.cfg.OnCellStart()
		}
		r, hit, key, cerr := e.runCell(ctx, i, jobs[i])
		if cerr != nil {
			if e.cfg.KeepGoing && ctx.Err() == nil && !errors.Is(cerr, context.Canceled) {
				failures[i] = failureRecord(i, jobs[i], cerr)
				e.noteFail(i, key, cerr)
				if e.cfg.OnCellFail != nil {
					e.cfg.OnCellFail()
				}
				report(false)
				return nil
			}
			return cerr
		}
		results[i] = r
		e.noteDone(i, key)
		report(hit)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Results: results}
	for _, f := range failures {
		if f != nil {
			rep.Failures = append(rep.Failures, *f)
		}
	}
	return rep, nil
}

// failureRecord flattens a cell's final error into its serializable form.
func failureRecord(i int, j Job, err error) *CellFailure {
	f := &CellFailure{Index: i, Bench: j.Bench, Scheme: j.Scheme.String(), Err: err.Error(), Attempts: 1}
	var ce *CellError
	if errors.As(err, &ce) {
		f.Attempts = ce.Attempts
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		f.Panic = true
		// The stack is in the logs (via Warnf); the artifact records the
		// panic value, not pages of goroutine frames.
		f.Err = fmt.Sprintf("panic: %s", pe.Value)
	}
	return f
}

// NewCellFailure flattens a cell's final error into its serializable
// form, for external schedulers (grpserve) that drive RunOne directly
// and build their own keep-going reports.
func NewCellFailure(i int, j Job, err error) CellFailure {
	return *failureRecord(i, j, err)
}

// noteDone records a durable completion; journal write errors degrade to
// warnings because the cache already holds the result.
func (e *Engine) noteDone(i int, key CellKey) {
	if e.journal == nil || key.Digest == "" {
		return
	}
	if err := e.journal.RecordDone(i, key.Digest); err != nil {
		e.warnf("campaign: journal: %v", err)
	}
}

// noteFail records a durable failure (resume re-runs the cell).
func (e *Engine) noteFail(i int, key CellKey, cellErr error) {
	if e.journal == nil || key.Digest == "" {
		return
	}
	if err := e.journal.RecordFail(i, key.Digest, cellErr.Error()); err != nil {
		e.warnf("campaign: journal: %v", err)
	}
}

// runCell executes one cell through every engine layer. See RunOne.
func (e *Engine) runCell(ctx context.Context, i int, j Job) (*core.Result, bool, CellKey, error) {
	return e.RunOne(ctx, i, j)
}

// RunOne executes a single job through the cache, singleflight, and
// retry layers: cache lookup first, then — deduped against identical
// in-flight cells when the engine was built with Dedup — up to
// Retry.MaxAttempts isolated simulation attempts with backoff between
// them. hit reports that the result came from the cache or from another
// subscriber's in-flight simulation rather than a fresh run. The
// returned key is the cell's content address when one was computed (""
// otherwise). i tags the cell for error reports and backoff jitter;
// external schedulers (grpserve) pass the cell's grid index.
//
// Unlike Run, RunOne does not touch the engine's attached journal —
// multi-sweep drivers own one journal per sweep and record completions
// themselves.
func (e *Engine) RunOne(ctx context.Context, i int, j Job) (*core.Result, bool, CellKey, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	useCache := e.store != nil && j.Opt.Timeline == nil
	var key CellKey
	if useCache || e.journal != nil || e.flight != nil {
		var err error
		if key, err = e.memo.key(j); err != nil {
			return nil, false, key, err
		}
	}
	if useCache {
		if r, ok := e.store.Get(key); ok {
			return r, true, key, nil
		}
	}
	if e.flight != nil && key.Digest != "" {
		hit := false
		r, shared, err := e.flight.do(ctx, key.Digest, func() (*core.Result, error) {
			// The probe above can miss just before another flight for
			// this cell stores it and ends, which makes this call a new
			// leader; probe again rather than simulate the cell twice.
			if p, ok := e.store.(Prober); ok && useCache && p.Contains(key) {
				if r, ok := e.store.Get(key); ok {
					hit = true
					return r, nil
				}
			}
			return e.simulate(ctx, i, j, key, useCache)
		})
		if shared {
			e.dedups.Add(1)
		}
		return r, shared || hit, key, err
	}
	r, err := e.simulate(ctx, i, j, key, useCache)
	return r, false, key, err
}

// simulate is the cache-miss path of one cell: the retry loop around
// isolated attempts, persisting the result on success.
func (e *Engine) simulate(ctx context.Context, i int, j Job, key CellKey, useCache bool) (*core.Result, error) {
	policy := e.cfg.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			e.retries.Add(1)
			if e.cfg.OnCellRetry != nil {
				e.cfg.OnCellRetry()
			}
			if err := sleepCtx(ctx, policy.backoff(i, attempt)); err != nil {
				return nil, err
			}
		}
		e.sims.Add(1)
		r, err := e.attemptCell(ctx, i, attempt, j, key)
		if err == nil {
			if useCache {
				if perr := e.store.Put(key, r); perr != nil {
					return nil, perr
				}
			}
			return r, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The run itself is over; surface the cancellation, not the
			// cell's collateral error.
			return nil, ctx.Err()
		}
		if !retryableError(err) {
			break
		}
		e.warnf("campaign: cell %s/%s (index %d) attempt %d failed, retrying: %v",
			j.Bench, j.Scheme, i, attempt, err)
	}
	attempts := 1
	if retryableError(lastErr) {
		attempts = policy.MaxAttempts
	}
	return nil, &CellError{Index: i, Bench: j.Bench, Scheme: j.Scheme, Attempts: attempts, Err: lastErr}
}

// attemptCell is one isolated try of one cell: a recover() fence around
// the simulator, the per-cell deadline, and the chaos injection points.
func (e *Engine) attemptCell(ctx context.Context, i, attempt int, j Job, key CellKey) (res *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PanicError{
				Bench: j.Bench, Scheme: j.Scheme.String(), Index: i, Key: key.Digest,
				Attempt: attempt, Value: fmt.Sprint(v), Stack: string(debug.Stack()),
			}
			res, err = nil, pe
		}
	}()

	cellCtx := ctx
	if e.cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, e.cfg.CellTimeout)
		defer cancel()
	}
	if c := e.cfg.Chaos; c != nil {
		if d := c.slowsCell(i, attempt); d > 0 {
			if serr := sleepCtx(cellCtx, d); serr != nil {
				return nil, serr
			}
		}
		if c.panicsCell(i, attempt) {
			panic(fmt.Sprintf("chaos: injected panic (cell %d, attempt %d)", i, attempt))
		}
	}

	opt := j.Opt
	if cellCtx.Done() != nil {
		// The simulator polls this from the commit loop; a plain
		// background context costs nothing (no hook installed).
		opt.Cancel = cellCtx.Err
	}
	spec, werr := workloads.ByName(j.Bench)
	if werr != nil {
		return nil, werr
	}
	r, rerr := core.Run(spec, j.Scheme, opt)
	if rerr != nil {
		if cerr := cellCtx.Err(); cerr != nil {
			// Attribute the abort to its cause so deadline overruns
			// retry and run-level cancellation does not.
			return nil, fmt.Errorf("campaign: cell %s/%s: %w", j.Bench, j.Scheme, cerr)
		}
		return nil, fmt.Errorf("campaign: cell %s/%s: %w", j.Bench, j.Scheme, rerr)
	}
	return r, nil
}

// Runner adapts the engine to core.CellRunner, so core.RunSuiteWith and
// RunSensitivityWith get parallelism and caching for free.
func (e *Engine) Runner() core.CellRunner {
	return func(ctx context.Context, cells []core.Cell, opt core.Options) ([]*core.Result, error) {
		jobs := make([]Job, len(cells))
		for i, c := range cells {
			jobs[i] = Job{Bench: c.Bench, Scheme: c.Scheme, Opt: opt}
		}
		return e.Run(ctx, jobs)
	}
}

// RunSuite is the campaign-engine equivalent of core.RunSuite: the same
// grid, reduced by the same canonical-order reducer, executed in parallel
// with caching.
func (e *Engine) RunSuite(ctx context.Context, benches []string, schemes []core.Scheme, opt core.Options) (*core.Suite, error) {
	return core.RunSuiteWith(ctx, benches, schemes, opt, e.Runner())
}

// RunSuite runs a suite through a one-shot engine with the given config.
func RunSuite(benches []string, schemes []core.Scheme, opt core.Options, cfg Config) (*core.Suite, error) {
	return New(cfg).RunSuite(context.Background(), benches, schemes, opt)
}

// ParallelFor runs fn(i) for i in [0, n) on up to jobs goroutines. An
// error stops new work; in-flight calls finish and the error at the
// LOWEST index is returned, so a failing sweep reports the same cell at
// any worker count. Indices are claimed monotonically, which is what
// makes that deterministic: when the error at index i is recorded, every
// index below i has already been claimed and will run to completion,
// recording its own error if it has one. A cancelled ctx stops new work
// the same way and is returned only when no cell error was recorded.
// With jobs <= 1 it degenerates to a plain loop, so a single-job campaign
// is exactly the serial path.
func ParallelFor(ctx context.Context, n, jobs int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if jobs > n {
		jobs = n
	}
	var (
		next     int64 = -1
		stop     atomic.Bool
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || stop.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
