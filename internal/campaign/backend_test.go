package campaign

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"grp/internal/core"
	"grp/internal/workloads"
)

func testJob(bench string) Job {
	return Job{Bench: bench, Scheme: core.GRPVar, Opt: core.Options{Factor: workloads.Test}}
}

// TestMemBackendRoundTrip: the sharded in-memory backend stores and
// returns results by key, keeps shards independent, and counts traffic.
func TestMemBackendRoundTrip(t *testing.T) {
	m := NewMemBackend()
	keys := make([]CellKey, 100)
	for i := range keys {
		keys[i] = CellKey{Digest: fmt.Sprintf("%02x-digest-%d", i%256, i), Bench: "mcf", Scheme: core.GRPVar}
	}
	for i, k := range keys {
		if _, ok := m.Get(k); ok {
			t.Fatalf("key %d hit before Put", i)
		}
		if err := m.Put(k, &core.Result{TrafficBytes: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		r, ok := m.Get(k)
		if !ok {
			t.Fatalf("key %d missing after Put", i)
		}
		if r.TrafficBytes != uint64(i) {
			t.Fatalf("key %d returned wrong result: traffic %d", i, r.TrafficBytes)
		}
		if !m.Contains(k) {
			t.Fatalf("Contains(%d) = false for a stored key", i)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len() = %d, want %d", m.Len(), len(keys))
	}
	st := m.Stats()
	if st.Hits != uint64(len(keys)) || st.Misses != uint64(len(keys)) || st.Stores != uint64(len(keys)) {
		t.Fatalf("stats = %+v, want %d hits/misses/stores", st, len(keys))
	}
	if st.MemHits != st.Hits {
		t.Fatalf("MemHits = %d, want every hit (%d) to be a memory hit", st.MemHits, st.Hits)
	}
}

// TestMemBackendConcurrent hammers one backend from many goroutines
// (run under -race in CI).
func TestMemBackendConcurrent(t *testing.T) {
	m := NewMemBackend()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := CellKey{Digest: fmt.Sprintf("%02x-%d", (w*31+i)%256, i%50)}
				m.Put(k, &core.Result{})
				m.Get(k)
				m.Contains(k)
			}
		}(w)
	}
	wg.Wait()
	if m.Len() == 0 {
		t.Fatal("backend empty after concurrent writes")
	}
}

// TestFlightGroupCollapses: calls that arrive while a leader's fn is in
// flight run fn once and all share the result. (Singleflight dedupes
// in-flight work only — a caller arriving after completion leads its own
// flight; the engine's cache covers that window.)
func TestFlightGroupCollapses(t *testing.T) {
	g := newFlightGroup()
	var runs, shared int32
	var mu sync.Mutex
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup

	// The leader enters first and blocks inside fn until released, so
	// every follower is guaranteed to find it in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, _, err := g.do(context.Background(), "k", func() (*core.Result, error) {
			close(leaderIn)
			<-release
			mu.Lock()
			runs++
			mu.Unlock()
			return &core.Result{TrafficBytes: 7}, nil
		})
		if err != nil || r.TrafficBytes != 7 {
			t.Errorf("leader got %v, %v", r, err)
		}
	}()
	<-leaderIn

	const followers = 15
	var entered sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		entered.Add(1)
		go func() {
			defer wg.Done()
			entered.Done()
			r, sh, err := g.do(context.Background(), "k", func() (*core.Result, error) {
				mu.Lock()
				runs++
				mu.Unlock()
				return &core.Result{TrafficBytes: 7}, nil
			})
			if err != nil || r.TrafficBytes != 7 {
				t.Errorf("follower got %v, %v", r, err)
			}
			if sh {
				mu.Lock()
				shared++
				mu.Unlock()
			}
		}()
	}
	entered.Wait()
	time.Sleep(20 * time.Millisecond) // let followers reach the wait inside do
	close(release)
	wg.Wait()
	if runs != 1 {
		t.Fatalf("fn ran %d times, want exactly 1", runs)
	}
	if shared != followers {
		t.Fatalf("%d callers saw shared=true, want %d", shared, followers)
	}
}

// TestFlightGroupReElection: when the leader's own context is cancelled,
// a waiting follower takes over instead of inheriting the cancellation.
func TestFlightGroupReElection(t *testing.T) {
	g := newFlightGroup()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.do(leaderCtx, "k", func() (*core.Result, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		if err == nil {
			t.Error("cancelled leader returned nil error")
		}
	}()

	<-leaderIn
	followerDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, _, err := g.do(context.Background(), "k", func() (*core.Result, error) {
			return &core.Result{TrafficBytes: 9}, nil
		})
		if err == nil && r.TrafficBytes != 9 {
			err = fmt.Errorf("wrong result after re-election: %+v", r)
		}
		followerDone <- err
	}()

	cancelLeader()
	if err := <-followerDone; err != nil {
		t.Fatalf("follower after abandoned leader: %v", err)
	}
	wg.Wait()
}

// TestEngineDedupExactlyOnce is the engine-level exactly-once contract:
// many concurrent RunOne calls for the same cell on a Dedup engine
// simulate it exactly once; every other caller is a cache hit or a
// singleflight subscriber.
func TestEngineDedupExactlyOnce(t *testing.T) {
	e := New(Config{Backend: NewMemBackend(), Dedup: true})
	job := testJob("mcf")
	const callers = 12
	results := make([]*core.Result, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, _, _, err := e.RunOne(context.Background(), 0, job)
			if err != nil {
				t.Errorf("caller %d: %v", c, err)
				return
			}
			results[c] = r
		}(c)
	}
	wg.Wait()
	if sims := e.Simulations(); sims != 1 {
		t.Fatalf("engine ran %d simulations for one unique cell, want exactly 1", sims)
	}
	for c, r := range results {
		if r == nil || r.ArchDigest != results[0].ArchDigest {
			t.Fatalf("caller %d got a different result", c)
		}
	}
	if st := e.CacheStats(); st.Deduped+st.Hits != callers-1 {
		t.Fatalf("dedup(%d) + hits(%d) should cover the %d non-simulating callers",
			st.Deduped, st.Hits, callers-1)
	}
}

// staleProbeBackend answers the next Get with a miss, as a cache probe
// does when it runs just before another flight stores the cell.
type staleProbeBackend struct {
	*MemBackend
	missNext bool
}

func (b *staleProbeBackend) Get(k CellKey) (*core.Result, bool) {
	if b.missNext {
		b.missNext = false
		return nil, false
	}
	return b.MemBackend.Get(k)
}

// TestEngineDedupStaleProbe: a caller whose cache probe missed a cell
// that a finished flight has since stored becomes the next leader, and
// must find the cell instead of simulating it a second time.
func TestEngineDedupStaleProbe(t *testing.T) {
	b := &staleProbeBackend{MemBackend: NewMemBackend()}
	e := New(Config{Backend: b, Dedup: true})
	job := testJob("mcf")
	first, _, _, err := e.RunOne(context.Background(), 0, job)
	if err != nil {
		t.Fatal(err)
	}
	b.missNext = true
	r, hit, _, err := e.RunOne(context.Background(), 0, job)
	if err != nil {
		t.Fatal(err)
	}
	if sims := e.Simulations(); sims != 1 || !hit || r != first {
		t.Fatalf("after a stale probe: %d simulations, hit %v, same result %v; want 1, true, true",
			sims, hit, r == first)
	}
}

// TestEngineDedupDistinctCells: dedup must not conflate different cells.
func TestEngineDedupDistinctCells(t *testing.T) {
	e := New(Config{Backend: NewMemBackend(), Dedup: true})
	benches := []string{"mcf", "art", "bzip2"}
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			if _, _, _, err := e.RunOne(context.Background(), i, testJob(b)); err != nil {
				t.Errorf("%s: %v", b, err)
			}
		}(i, b)
	}
	wg.Wait()
	if sims := e.Simulations(); sims != uint64(len(benches)) {
		t.Fatalf("%d distinct cells simulated %d times", len(benches), sims)
	}
}
