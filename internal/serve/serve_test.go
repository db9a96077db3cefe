package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"grp/internal/campaign"
)

// newTestServer builds a started server plus an httptest front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Warnf == nil {
		cfg.Warnf = t.Logf
	}
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func postSweep(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitFinished polls a sweep's status until it finishes.
func waitFinished(t *testing.T, base, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st SweepStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Finished {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return SweepStatus{}
}

func fetchArtifact(t *testing.T, base, id, format string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/sweeps/%s/artifact?format=%s", base, id, format))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: %s: %s", resp.Status, data)
	}
	return data
}

// localArtifact runs the same sweep on a fresh local engine — the
// grpsweep CLI path — and renders it through campaign.WriteArtifact.
func localArtifact(t *testing.T, body, format string) []byte {
	t.Helper()
	req, err := DecodeSweepRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}
	eng := campaign.New(campaign.Config{Backend: campaign.NewMemBackend(), KeepGoing: true})
	rep, err := eng.RunReport(context.Background(), grid.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := campaign.WriteArtifact(&buf, format, &campaign.Artifact{
		Spec: req.Spec, Factor: req.Factor, Policy: req.Policy,
		Grid: grid, Results: rep.Results, Failures: rep.Failures,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const (
	specA = `{"spec": "schemes=base,srp × kernels=mcf,art", "factor": "test", "tenant": "alice"}`
	specB = `{"spec": "schemes=srp,grp/var × kernels=mcf,art", "factor": "test", "tenant": "bob"}`
)

// TestConcurrentClientsDedupExactlyOnce is the tentpole acceptance test:
// two clients submit overlapping sweeps (srp/mcf and srp/art appear in
// both) concurrently; every unique cell must simulate exactly once —
// verified by the engine's run counter — and each client's artifact must
// be byte-identical to a solo local run of its sweep.
func TestConcurrentClientsDedupExactlyOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Mem: true, Workers: 4})

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i, body := range []string{specA, specB} {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, data := postSweep(t, ts.URL, body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: status %s: %s", i, resp.Status, data)
				return
			}
			var st SweepStatus
			if err := json.Unmarshal(data, &st); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i, body)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		waitFinished(t, ts.URL, id)
	}

	// 4 + 4 cells with 2 shared: 6 unique simulations, no more, no less.
	if sims := s.eng.Simulations(); sims != 6 {
		t.Errorf("engine ran %d simulations, want exactly 6 (8 submitted cells, 2 shared)", sims)
	}
	cs := s.eng.CacheStats()
	if cs.Deduped+cs.Hits != 2 {
		t.Errorf("dedup(%d) + cache hits(%d) should cover the 2 shared cells", cs.Deduped, cs.Hits)
	}

	// Byte-identical artifacts, all formats, both sweeps.
	for i, body := range []string{specA, specB} {
		for _, format := range campaign.ArtifactFormats {
			got := fetchArtifact(t, ts.URL, ids[i], format)
			want := localArtifact(t, body, format)
			if !bytes.Equal(got, want) {
				t.Errorf("sweep %d %s artifact differs from solo run:\nserved:\n%s\nlocal:\n%s",
					i, format, got, want)
			}
		}
	}
}

// TestIdempotentResubmission: an identical submission joins the existing
// sweep (200, same ID) instead of creating a duplicate.
func TestIdempotentResubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{Mem: true, Workers: 2})
	resp1, data1 := postSweep(t, ts.URL, specA)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %s: %s", resp1.Status, data1)
	}
	resp2, data2 := postSweep(t, ts.URL, specA)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmission: %s, want 200", resp2.Status)
	}
	var st1, st2 SweepStatus
	json.Unmarshal(data1, &st1)
	json.Unmarshal(data2, &st2)
	if st1.ID != st2.ID {
		t.Fatalf("resubmission created a new sweep: %s vs %s", st1.ID, st2.ID)
	}
}

// TestSubmitValidation: malformed submissions get structured 400s,
// including sizes the core or a cache cannot be built with.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Mem: true, Workers: 1})
	for _, body := range []string{``, `{`, `{"spec": ""}`, `{"spec": "schemes=base × kernels=mcf", "weight": 99}`,
		`{"spec": "schemes=base × kernels=mcf × rob=2000000000"}`,
		`{"spec": "schemes=base × kernels=mcf × l2.size=64G"}`} {
		resp, data := postSweep(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %s, want 400", body, resp.Status)
			continue
		}
		var re RequestError
		if err := json.Unmarshal(data, &re); err != nil || re.Msg == "" {
			t.Errorf("body %q: unstructured 400 response %q", body, data)
		}
	}
}

// TestBackpressure429: a submission larger than the admission queue is
// rejected with 429 and a Retry-After header; a smaller one passes.
func TestBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Config{Mem: true, Workers: 1, MaxQueue: 2})
	resp, data := postSweep(t, ts.URL, specA) // 4 cells > queue of 2
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized submit: %s, want 429: %s", resp.Status, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	resp, data = postSweep(t, ts.URL, `{"spec": "schemes=base × kernels=mcf,art", "factor": "test"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("within-capacity submit: %s: %s", resp.Status, data)
	}
	// The rejected sweep must not linger: it is evicted from the
	// registry (not listed) and a resubmission is judged afresh — another
	// clean 429, never a stale "existing sweep" answer for work that was
	// never admitted.
	var st SweepStatus
	json.Unmarshal(data, &st)
	waitFinished(t, ts.URL, st.ID)
	lresp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Sweeps []SweepStatus `json:"sweeps"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != st.ID {
		t.Fatalf("rejected sweep lingers in the registry: %+v", list.Sweeps)
	}
	resp, _ = postSweep(t, ts.URL, specA)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("resubmitted oversized sweep: %s, want a fresh 429", resp.Status)
	}
}

// TestEventStreamAndCursor: the NDJSON stream carries every completion
// exactly once in seq order, and a cursor resumes mid-stream.
func TestEventStreamAndCursor(t *testing.T) {
	_, ts := newTestServer(t, Config{Mem: true, Workers: 4})
	resp, data := postSweep(t, ts.URL, specA)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: %s", resp.Status, data)
	}
	var st SweepStatus
	json.Unmarshal(data, &st)

	// Stream from the start while the sweep runs: the server must hold
	// the stream open until the last cell and then end it.
	sresp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var events []CellEvent
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		var ev CellEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("streamed %d events, want 4", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Total != 4 || ev.Done != i+1 {
			t.Fatalf("event %d progress %d/%d", i, ev.Done, ev.Total)
		}
	}

	// Resume from a mid-stream cursor: exactly the tail, same contents.
	tresp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events?cursor=2")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	tail, err := io.ReadAll(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(tail)), "\n")
	if len(lines) != 2 {
		t.Fatalf("cursor=2 returned %d events, want 2: %q", len(lines), tail)
	}
	var ev CellEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil || ev.Seq != 2 {
		t.Fatalf("cursor=2 first event = %q (seq %d), want seq 2", lines[0], ev.Seq)
	}

	// SSE negotiation.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/sweeps/"+st.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	sse, _ := io.ReadAll(eresp.Body)
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	if !strings.Contains(string(sse), "data: {") || !strings.Contains(string(sse), "id: 0") {
		t.Errorf("SSE framing looks wrong:\n%s", sse)
	}
}

// TestArtifactBeforeFinish: asking for an artifact mid-flight is a 409
// with the sweep's status attached, not a partial render.
func TestArtifactBeforeFinish(t *testing.T) {
	s, ts := newTestServer(t, Config{Mem: true, Workers: 1})
	// Inject a sweep that never finishes: registered, nothing scheduled.
	req, _ := DecodeSweepRequest([]byte(specA))
	grid, _ := req.Grid()
	jobs := grid.Jobs()
	keys, _ := s.eng.Keys(jobs)
	sw := newSweep("stuck000", *req, grid, jobs, keys)
	s.mu.Lock()
	s.sweeps[sw.id] = sw
	s.order = append(s.order, sw.id)
	s.mu.Unlock()

	resp, err := http.Get(ts.URL + "/v1/sweeps/stuck000/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mid-flight artifact: %s, want 409", resp.Status)
	}
}

// TestDryRunEndpoint: dry_run sizes the grid without admitting anything,
// and reflects the store's warmth after a real run.
func TestDryRunEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Mem: true, Workers: 2})
	dry := `{"spec": "schemes=base,srp × kernels=mcf,art", "factor": "test", "dry_run": true}`
	resp, data := postSweep(t, ts.URL, dry)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry run: %s: %s", resp.Status, data)
	}
	var d campaign.DryRun
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Cells != 4 || d.Cached != 0 {
		t.Fatalf("cold dry run = %+v, want 4 cells, 0 cached", d)
	}
	if sims := s.eng.Simulations(); sims != 0 {
		t.Fatalf("dry run simulated %d cells", sims)
	}

	// Warm the store with the real sweep, then dry-run again.
	resp, data = postSweep(t, ts.URL, specA)
	var st SweepStatus
	json.Unmarshal(data, &st)
	waitFinished(t, ts.URL, st.ID)
	_, data = postSweep(t, ts.URL, dry)
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Cached != 4 || d.HitRate != 1 {
		t.Fatalf("warm dry run = %+v, want 4 cached, hit rate 1", d)
	}
}

// TestRestartResume: a server that drains mid-sweep leaves the remainder
// journaled; a new server over the same cache directory resumes it
// unprompted and the final artifact is byte-identical to a solo run.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	body := `{"spec": "schemes=base,srp,grp/var × kernels=mcf,art", "factor": "test", "tenant": "crash"}`

	s1 := New(Config{CacheDir: dir, Workers: 1, Warnf: t.Logf})
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	resp, data := postSweep(t, ts1.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s: %s", resp.Status, data)
	}
	var st SweepStatus
	json.Unmarshal(data, &st)
	// Drain immediately: with one worker, at most a cell or two is in
	// flight; the rest stays queued and journaled-undone.
	ts1.Close()
	s1.Drain()

	// A fresh process over the same cache directory picks the sweep up
	// from its journal without a resubmission.
	s2 := New(Config{CacheDir: dir, Workers: 4, Warnf: t.Logf})
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Drain() }()

	final := waitFinished(t, ts2.URL, st.ID)
	if final.Failed != 0 {
		t.Fatalf("resumed sweep failed cells: %+v", final)
	}
	for _, format := range campaign.ArtifactFormats {
		got := fetchArtifact(t, ts2.URL, st.ID, format)
		want := localArtifact(t, body, format)
		if !bytes.Equal(got, want) {
			t.Errorf("resumed %s artifact differs from solo run:\n%s\nwant:\n%s", format, got, want)
		}
	}
	// Finished: the submit record is gone, so a third start resumes
	// nothing.
	s3 := New(Config{CacheDir: dir, Workers: 1, Warnf: t.Logf})
	s3.Start()
	defer s3.Drain()
	s3.mu.Lock()
	n := len(s3.sweeps)
	s3.mu.Unlock()
	if n != 0 {
		t.Fatalf("finished sweep resubmitted on restart (%d sweeps)", n)
	}
}

// TestMetricsEndpoint: build identity, fleet counters, scheduler load,
// and per-sweep progress all appear in Prometheus text form.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Mem: true, Workers: 2})
	resp, data := postSweep(t, ts.URL, specA)
	var st SweepStatus
	json.Unmarshal(data, &st)
	waitFinished(t, ts.URL, st.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"grpserve_build_info{version=",
		"grpserve_cells_done 4",
		"grpserve_cells_total 4",
		"grpserve_queue_depth 0",
		"grpserve_simulations_total 4",
		fmt.Sprintf("grpserve_sweep_cells_done{sweep=%q,tenant=\"alice\",total=\"4\"} 4", st.ID),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	_ = resp
}

// TestHealthz: liveness endpoint reports load.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Mem: true, Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || !h.OK {
		t.Fatalf("healthz = %v, err %v", h, err)
	}
}
