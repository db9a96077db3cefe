package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"grp/internal/core"
)

func testKeys(n int) []CellKey {
	keys := make([]CellKey, n)
	for i := range keys {
		keys[i] = CellKey{Bench: fmt.Sprintf("b%d", i), Scheme: core.GRPVar,
			Digest: fmt.Sprintf("%064d", i)}
	}
	return keys
}

func TestSweepIDStable(t *testing.T) {
	a := SweepID(testKeys(4))
	b := SweepID(testKeys(4))
	if a != b || len(a) != 16 {
		t.Fatalf("SweepID not stable: %q vs %q", a, b)
	}
	if SweepID(testKeys(5)) == a {
		t.Fatal("SweepID ignores the grid")
	}
	// Order matters: the journal is positional.
	rev := testKeys(4)
	rev[0], rev[3] = rev[3], rev[0]
	if SweepID(rev) == a {
		t.Fatal("SweepID ignores cell order")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(5)
	j, err := OpenJournal(dir, "spec", keys, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordDone(0, keys[0].Digest); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordFail(1, keys[1].Digest, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordDone(2, keys[2].Digest); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(dir, "spec", keys, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.CompletedCount(); n != 2 {
		t.Fatalf("want 2 completed after resume, got %d", n)
	}
	if !r.Completed(keys[0].Digest) || r.Completed(keys[1].Digest) || !r.Completed(keys[2].Digest) {
		t.Fatal("completion map wrong after resume")
	}
}

// TestJournalTornTailTolerated: a crash can tear the last log line; the
// resume must keep every whole record and ignore the fragment.
// TestJournalBackgroundSync drives concurrent appends with a zero sync
// interval, so every append that finds no group commit running starts
// one in the background; Close must wait for them and lose nothing.
func TestJournalBackgroundSync(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(64)
	j, err := OpenJournal(dir, "spec", keys, false)
	if err != nil {
		t.Fatal(err)
	}
	j.syncEvery = 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += 4 {
				if err := j.RecordDone(i, keys[i].Digest); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.inSync {
		t.Fatal("Close returned with a group commit still running")
	}
	r, err := OpenJournal(dir, "spec", keys, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.CompletedCount(); got != len(keys) {
		t.Fatalf("resumed journal has %d completions, want %d", got, len(keys))
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(3)
	j, err := OpenJournal(dir, "spec", keys, false)
	if err != nil {
		t.Fatal(err)
	}
	j.RecordDone(0, keys[0].Digest)
	j.RecordDone(1, keys[1].Digest)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, "journal", SweepID(keys), "log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-7] // clip inside the final record
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(dir, "spec", keys, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.CompletedCount(); n != 1 {
		t.Fatalf("want 1 completed (torn record dropped), got %d", n)
	}
}

// TestJournalLockLivePid: a second campaign against the same sweep while
// the first is running must refuse with ErrLocked.
func TestJournalLockLivePid(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(2)
	j, err := OpenJournal(dir, "spec", keys, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := OpenJournal(dir, "spec", keys, true); !errors.Is(err, ErrLocked) {
		t.Fatalf("want ErrLocked for a held lock, got %v", err)
	}
}

// TestJournalLockStaleStolen: a lock left by a dead process is stolen.
func TestJournalLockStaleStolen(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(2)
	j, err := OpenJournal(dir, "spec", keys, false)
	if err != nil {
		t.Fatal(err)
	}
	j.RecordDone(0, keys[0].Digest)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Recreate the lock with a pid that cannot be alive, as a kill -9
	// would leave it.
	lock := filepath.Join(dir, "journal", SweepID(keys), "lock")
	if err := os.WriteFile(lock, []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJournal(dir, "spec", keys, true)
	if err != nil {
		t.Fatalf("stale lock not stolen: %v", err)
	}
	defer r.Close()
	if r.CompletedCount() != 1 {
		t.Fatal("resume after steal lost the log")
	}
}

// TestJournalManifestMismatch: -resume against a different grid (changed
// spec, options, or program) must be rejected, not silently skipped.
func TestJournalManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(3)
	j, err := OpenJournal(dir, "spec", keys, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Same cell count, different digest → same sweep dir is never reused
	// (the id hashes the digests), so resume reports no journal.
	changed := testKeys(3)
	changed[1].Digest = strings.Repeat("f", 64)
	if _, err := OpenJournal(dir, "spec", changed, true); err == nil {
		t.Fatal("resume with a changed grid succeeded")
	}

	// Corrupting the manifest in place must also be caught.
	manifest := filepath.Join(dir, "journal", SweepID(keys), "manifest.json")
	if err := os.WriteFile(manifest, []byte(`{"schema":1,"id":"wrong"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, "spec", keys, true); err == nil {
		t.Fatal("resume with a corrupt manifest succeeded")
	}
}

// TestJournalResumeWithoutJournal: -resume when no journal exists fails
// with a clear error rather than starting silently from scratch.
func TestJournalResumeWithoutJournal(t *testing.T) {
	if _, err := OpenJournal(t.TempDir(), "spec", testKeys(2), true); err == nil {
		t.Fatal("resume without a journal succeeded")
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if j.Completed("x") || j.CompletedCount() != 0 {
		t.Fatal("nil journal not inert")
	}
	if j.RecordDone(0, "x") != nil || j.RecordFail(0, "x", "e") != nil || j.Close() != nil {
		t.Fatal("nil journal methods must be no-ops")
	}
}
