package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The sweep journal is the durable record of a campaign: a manifest of
// the grid's cell keys in canonical order plus an append-only completion
// log under <cacheDir>/journal/<sweepID>/. The result cache makes a
// completed cell cheap to replay; the journal makes the *campaign state*
// survive a crash — which cells are done, which failed, and whether
// another process is already running this sweep (the lock file). A
// killed sweep resumes by reopening the same journal: completed cells
// come back as cache hits and only the remainder simulates.
//
// Log appends are group-committed: each record is written immediately
// and fsynced only when the last sync is at least journalSyncInterval
// old, so the sync rides on a later append (or Close). A crash can
// therefore lose at most the last interval's completions — which resume
// simply re-runs, since the cache already holds most of them — in
// exchange for not paying one fsync per cell on fast sweeps. The sync an
// append starts runs on a background goroutine, so the cell that crosses
// the interval does not wait for the disk either.

// journalSchemaVersion invalidates journals across layout changes.
const journalSchemaVersion = 1

// journalSyncInterval bounds how stale the on-disk log may be. 100ms
// keeps the steady-state fsync cost of a serial sweep under 2% even on
// filesystems where a sync costs milliseconds, and a crash re-runs at
// most 100ms worth of cells.
const journalSyncInterval = 100 * time.Millisecond

// ErrLocked reports that another live campaign holds the sweep's lock.
var ErrLocked = fmt.Errorf("campaign: sweep is locked by another running campaign")

// SweepID content-addresses a campaign: the SHA-256 over its cells' keys
// in canonical grid order (truncated for filenames). Two campaigns with
// the same grid and configuration share an ID — which is exactly when
// resuming one from the other's journal is sound.
func SweepID(keys []CellKey) string {
	h := sha256.New()
	fmt.Fprintf(h, "journal-schema=%d\n", journalSchemaVersion)
	for _, k := range keys {
		h.Write([]byte(k.Digest))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// journalManifest is the on-disk description of the sweep grid.
type journalManifest struct {
	Schema int            `json:"schema"`
	ID     string         `json:"id"`
	Spec   string         `json:"spec,omitempty"`
	Cells  []manifestCell `json:"cells"`
}

type manifestCell struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	Key    string `json:"key"`
}

// logRecord is one line of the completion log.
type logRecord struct {
	I      int    `json:"i"`
	Key    string `json:"key"`
	Status string `json:"s"` // "done" or "fail"
	Err    string `json:"err,omitempty"`
}

// Journal is the durable campaign state. All methods are safe for
// concurrent use by the worker pool.
type Journal struct {
	dir      string
	id       string
	lockPath string
	lockFile *os.File // holds the flock while the journal is open

	mu        sync.Mutex
	f         *os.File
	done      map[string]bool // completed cell digests
	failed    map[string]string
	lastSync  time.Time
	dirty     bool
	syncEvery time.Duration
	inSync    bool           // a background group commit is running
	syncing   sync.WaitGroup // tracks it, for Close
	syncErr   error          // its failure, reported by the next append or Close
}

// OpenJournal opens (or, with resume, reopens) the journal for a sweep
// under cacheDir. keys is the grid's cell keys in canonical order; spec
// is recorded in the manifest for humans. Without resume any previous
// journal for this sweep is discarded. With resume the manifest must
// match the current grid exactly — a changed spec or configuration is a
// different sweep and cannot resume this one.
func OpenJournal(cacheDir, spec string, keys []CellKey, resume bool) (*Journal, error) {
	if cacheDir == "" {
		cacheDir = DefaultCacheDir
	}
	id := SweepID(keys)
	dir := filepath.Join(cacheDir, "journal", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: creating journal dir: %w", err)
	}
	j := &Journal{
		dir:       dir,
		id:        id,
		lockPath:  filepath.Join(dir, "lock"),
		done:      map[string]bool{},
		failed:    map[string]string{},
		syncEvery: journalSyncInterval,
	}
	if err := j.acquireLock(); err != nil {
		return nil, err
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	logPath := filepath.Join(dir, "log")
	if resume {
		if err := j.loadManifest(manifestPath, keys); err != nil {
			j.releaseLock()
			return nil, err
		}
		if err := j.loadLog(logPath, keys); err != nil {
			j.releaseLock()
			return nil, err
		}
	} else {
		os.Remove(logPath)
		if err := writeManifest(manifestPath, id, spec, keys); err != nil {
			j.releaseLock()
			return nil, err
		}
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.releaseLock()
		return nil, fmt.Errorf("campaign: opening journal log: %w", err)
	}
	j.f = f
	// Start the group-commit clock now: the first completion should
	// coalesce like any other, not pay a guaranteed sync.
	j.lastSync = time.Now()
	return j, nil
}

// OpenOrResumeJournal resumes the sweep's journal when one exists and
// matches the grid, and opens a fresh one otherwise. Long-running
// drivers (grpserve) use it so a resubmitted or restart-recovered sweep
// transparently picks up its prior completions; ErrLocked still means a
// live campaign owns the sweep and passes through unchanged.
func OpenOrResumeJournal(cacheDir, spec string, keys []CellKey) (*Journal, error) {
	j, err := OpenJournal(cacheDir, spec, keys, true)
	if err == nil || errors.Is(err, ErrLocked) {
		return j, err
	}
	// No prior journal (or an unusable one): start fresh. A manifest
	// mismatch cannot happen here — the journal directory is keyed by
	// the sweep's content address — so anything unreadable is debris.
	return OpenJournal(cacheDir, spec, keys, false)
}

// ID returns the sweep's content address.
func (j *Journal) ID() string { return j.id }

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// acquireLock takes the sweep lock: an exclusive non-blocking flock on
// the lock file, with the owner's pid written inside for diagnostics.
// The kernel releases a flock the instant its holder dies — kill -9
// included — so a lock left by a dead owner is acquirable immediately
// and "stealing" it is just overwriting the stale pid; there is no
// read-check-remove window in which two stealers can both win, which
// the old pid-probing scheme had under concurrent openers.
//
// The open-flock-stat loop closes the remaining hole: a releaser
// unlinks the lock path while holding the flock, so an acquirer that
// opened the old inode can win a flock on a file that is no longer the
// lock. Comparing the locked fd's identity against the path detects
// that and retries on the fresh inode.
func (j *Journal) acquireLock() error {
	for attempt := 0; attempt < 8; attempt++ {
		f, err := os.OpenFile(j.lockPath, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("campaign: creating sweep lock: %w", err)
		}
		if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			// A live holder (this process or another) owns the sweep.
			owner := "unknown"
			if data, rerr := os.ReadFile(j.lockPath); rerr == nil {
				if s := strings.TrimSpace(string(data)); s != "" {
					owner = s
				}
			}
			f.Close()
			return fmt.Errorf("%w (owner pid %s, lock %s)", ErrLocked, owner, j.lockPath)
		}
		fi, err := f.Stat()
		var pfi os.FileInfo
		if err == nil {
			pfi, err = os.Stat(j.lockPath)
		}
		if err != nil || !os.SameFile(fi, pfi) {
			// We locked an orphaned inode: the previous owner unlinked the
			// path between our open and our flock. Retry on the new file.
			f.Close()
			continue
		}
		if err := f.Truncate(0); err == nil {
			fmt.Fprintf(io.NewOffsetWriter(f, 0), "%d\n", os.Getpid())
		}
		j.lockFile = f
		return nil
	}
	return fmt.Errorf("%w (lock %s: could not settle under contention)", ErrLocked, j.lockPath)
}

// releaseLock unlinks the lock path and then drops the flock. The order
// matters: removing first means no third party can acquire the path
// while it still appears held, and the stat check in acquireLock
// handles anyone who raced onto the doomed inode.
func (j *Journal) releaseLock() {
	if j.lockFile == nil {
		return
	}
	os.Remove(j.lockPath)
	j.lockFile.Close()
	j.lockFile = nil
}

func writeManifest(path, id, spec string, keys []CellKey) error {
	m := journalManifest{Schema: journalSchemaVersion, ID: id, Spec: spec}
	m.Cells = make([]manifestCell, len(keys))
	for i, k := range keys {
		m.Cells[i] = manifestCell{Bench: k.Bench, Scheme: k.Scheme.String(), Key: k.Digest}
	}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("campaign: encoding journal manifest: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("campaign: writing journal manifest: %w", err)
	}
	if err := fsyncPath(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("campaign: writing journal manifest: %w", err)
	}
	return nil
}

func fsyncPath(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("campaign: syncing %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("campaign: syncing %s: %w", path, err)
	}
	return nil
}

// loadManifest verifies a resumed journal describes exactly this grid.
func (j *Journal) loadManifest(path string, keys []CellKey) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("campaign: no journal to resume for this sweep (%w); run without -resume first", err)
	}
	var m journalManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("campaign: corrupt journal manifest: %w", err)
	}
	if m.Schema != journalSchemaVersion || m.ID != j.id || len(m.Cells) != len(keys) {
		return fmt.Errorf("campaign: journal manifest does not match this sweep (schema %d id %s cells %d; want %d %s %d)",
			m.Schema, m.ID, len(m.Cells), journalSchemaVersion, j.id, len(keys))
	}
	for i, c := range m.Cells {
		if c.Key != keys[i].Digest {
			return fmt.Errorf("campaign: journal cell %d is %.12s, grid has %.12s — the sweep changed; cannot resume", i, c.Key, keys[i].Digest)
		}
	}
	return nil
}

// loadLog replays the completion log, tolerating a torn final line (a
// crash mid-append leaves one; everything before it is intact).
func (j *Journal) loadLog(path string, keys []CellKey) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("campaign: reading journal log: %w", err)
	}
	valid := map[string]bool{}
	for _, k := range keys {
		valid[k.Digest] = true
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec logRecord
		if json.Unmarshal(sc.Bytes(), &rec) != nil || !valid[rec.Key] {
			continue // torn or foreign record: ignore, the cell re-runs
		}
		switch rec.Status {
		case "done":
			j.done[rec.Key] = true
			delete(j.failed, rec.Key)
		case "fail":
			j.failed[rec.Key] = rec.Err
		}
	}
	return nil
}

// Completed reports whether the cell with this digest finished in this
// or a previous (resumed) run.
func (j *Journal) Completed(digest string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[digest]
}

// CompletedCount returns how many distinct cells have completed.
func (j *Journal) CompletedCount() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// RecordDone appends a completion record (group-committed, see above).
func (j *Journal) RecordDone(i int, digest string) error {
	return j.append(logRecord{I: i, Key: digest, Status: "done"})
}

// RecordFail appends a failure record for a -keep-going cell; a resumed
// sweep re-runs it.
func (j *Journal) RecordFail(i int, digest, msg string) error {
	return j.append(logRecord{I: i, Key: digest, Status: "fail", Err: msg})
}

func (j *Journal) append(rec logRecord) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: encoding journal record: %w", err)
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if rec.Status == "done" {
		j.done[rec.Key] = true
		delete(j.failed, rec.Key)
	} else {
		j.failed[rec.Key] = rec.Err
	}
	if j.f == nil {
		return nil
	}
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("campaign: appending journal record: %w", err)
	}
	j.dirty = true
	err = nil
	if j.syncErr != nil {
		err = fmt.Errorf("campaign: syncing journal: %w", j.syncErr)
		j.syncErr = nil
	}
	if now := time.Now(); !j.inSync && now.Sub(j.lastSync) >= j.syncEvery {
		j.startSync(now)
	}
	return err
}

// startSync group-commits every record written so far on a background
// goroutine. The caller holds j.mu.
func (j *Journal) startSync(now time.Time) {
	j.inSync, j.dirty, j.lastSync = true, false, now
	j.syncing.Add(1)
	go func(f *os.File) {
		defer j.syncing.Done()
		err := f.Sync()
		j.mu.Lock()
		j.inSync = false
		if err != nil {
			j.syncErr = err
			j.dirty = true
		}
		j.mu.Unlock()
	}(j.f)
}

// Close syncs any pending records and releases the sweep lock. The
// journal files stay on disk for future resumes.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.inSync {
		j.mu.Unlock()
		j.syncing.Wait()
		j.mu.Lock()
	}
	err := j.syncErr
	j.syncErr = nil
	if j.f != nil {
		if j.dirty {
			if serr := j.f.Sync(); err == nil {
				err = serr
			}
		}
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.f = nil
	}
	j.releaseLock()
	return err
}
