package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"grp/internal/campaign"
	"grp/internal/core"
	"grp/internal/serve"
	"grp/internal/workloads"
)

// serveFactor is the workload scale of every submission.
const serveFactor = "test"

// warmupSubmission is the fixed, seed-independent submission the traced
// run makes first. It covers every cell a later submission can name, so
// later submissions are answered from the store and their latency does
// not depend on how many of them arrive before the store is full.
var warmupSubmission = submission{Spec: "schemes=all × kernels=all", Format: "json"}

// submission is one sweep request of the serve mix.
type submission struct {
	Spec   string
	Format string
}

// serveMix is a seeded submission sequence: half are small random
// sweeps, half are drawn from a seeded list of popular ones, so sweeps
// overlap earlier sweeps.
type serveMix struct {
	rng     *rand.Rand
	popular []submission
}

func newServeMix(seed int64) *serveMix {
	shared := rand.New(rand.NewSource(seed))
	popular := make([]submission, 64)
	for i := range popular {
		popular[i] = randomSubmission(shared)
	}
	return &serveMix{rng: rand.New(rand.NewSource(seed*31 + 1)), popular: popular}
}

func (m *serveMix) next() submission {
	if m.rng.Intn(2) == 0 {
		return m.popular[m.rng.Intn(len(m.popular))]
	}
	return randomSubmission(m.rng)
}

// Every submission names subKernels kernels under subSchemes schemes.
// One size for all keeps the latency distribution narrow, so its p90
// reads the service, not which sizes the seed happened to draw.
const (
	subKernels = 2
	subSchemes = 3
)

// randomSubmission names seed-chosen kernels and schemes, in one of the
// three artifact formats.
func randomSubmission(rng *rand.Rand) submission {
	names := workloads.Names()
	schemes := core.AllSchemes()
	var ks, ss []string
	for _, i := range rng.Perm(len(names))[:subKernels] {
		ks = append(ks, names[i])
	}
	for _, i := range rng.Perm(len(schemes))[:subSchemes] {
		ss = append(ss, schemes[i].String())
	}
	return submission{
		Spec:   fmt.Sprintf("schemes=%s × kernels=%s", strings.Join(ss, ","), strings.Join(ks, ",")),
		Format: campaign.ArtifactFormats[rng.Intn(len(campaign.ArtifactFormats))],
	}
}

func (s submission) body(tenant string) []byte {
	data, err := json.Marshal(serve.SweepRequest{Spec: s.Spec, Factor: serveFactor, Tenant: tenant})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return data
}

// liveServer is an in-process grpserve on a loopback port.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	warns  atomic.Int64
}

func startServer(dir string, workers int) (*liveServer, error) {
	ls := &liveServer{served: make(chan error, 1), client: &http.Client{}}
	ls.srv = serve.New(serve.Config{
		Workers:  workers,
		CacheDir: dir,
		Mem:      true,
		Warnf:    func(string, ...interface{}) { ls.warns.Add(1) },
	})
	ls.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ls.srv.Drain()
		return nil, err
	}
	ls.base = "http://" + ln.Addr().String()
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop shuts the HTTP server and the worker pool down and waits for both.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ls.hs.Shutdown(ctx) != nil {
		ls.hs.Close()
	}
	<-ls.served
	ls.srv.Drain()
	ls.client.CloseIdleConnections()
}

// errRejected marks a submission the server refused with 429.
var errRejected = errors.New("submission rejected with 429")

// served is what one submission returned.
type served struct {
	cells    int
	artifact []byte
}

// submit runs one submission the way grpsweep -remote does: POST the
// sweep, stream its events to the end, fetch the artifact. rec, when
// non-nil, gets a span per phase.
func (ls *liveServer) submit(sub submission, tenant string, rec *recorder) (*served, error) {
	id := rec.begin("serve.submit")
	resp, err := ls.client.Post(ls.base+"/v1/sweeps", "application/json", bytes.NewReader(sub.body(tenant)))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests:
		return nil, errRejected
	default:
		return nil, fmt.Errorf("POST %s: %s: %s", sub.Spec, resp.Status, data)
	}
	var st serve.SweepStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("decoding sweep status: %w", err)
	}

	id = rec.begin("serve.wait")
	resp, err = ls.client.Get(fmt.Sprintf("%s/v1/sweeps/%s/events", ls.base, st.ID))
	if err != nil {
		return nil, err
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if events == 0 {
			rec.end(id)
			id = rec.begin("serve.stream")
		}
		var ev serve.CellEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("decoding event: %w", err)
		}
		events++
	}
	resp.Body.Close()
	rec.end(id)
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || events != st.Cells {
		return nil, fmt.Errorf("events of %s: %s, %d events for %d cells", st.ID, resp.Status, events, st.Cells)
	}

	id = rec.begin("serve.artifact")
	resp, err = ls.client.Get(fmt.Sprintf("%s/v1/sweeps/%s/artifact?format=%s", ls.base, st.ID, sub.Format))
	if err != nil {
		return nil, err
	}
	art, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("artifact of %s: %s: %s", st.ID, resp.Status, art)
	}
	return &served{cells: st.Cells, artifact: art}, nil
}

// counters reads the server's simulation and dedup counters from /metrics.
func (ls *liveServer) counters() (sims, deduped uint64, err error) {
	resp, err := ls.client.Get(ls.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, perr := strconv.ParseUint(f[1], 10, 64)
		switch {
		case perr != nil:
		case f[0] == "grpserve_simulations_total":
			sims = v
		case f[0] == "grpserve_cells_deduped":
			deduped = v
		}
	}
	return sims, deduped, sc.Err()
}

// localRenderer renders submissions locally through campaign.Engine and
// campaign.WriteArtifact: the reference every served artifact must equal
// byte for byte.
type localRenderer struct {
	eng *campaign.Engine
	got map[submission][]byte
}

func newLocalRenderer() *localRenderer {
	return &localRenderer{
		eng: campaign.New(campaign.Config{Jobs: 1, Backend: campaign.NewMemBackend()}),
		got: map[submission][]byte{},
	}
}

func (lr *localRenderer) render(sub submission) ([]byte, error) {
	if art := lr.got[sub]; art != nil {
		return art, nil
	}
	// Decoding the request the server received applies the same
	// defaults the server applies.
	req, err := serve.DecodeSweepRequest(sub.body("local"))
	if err != nil {
		return nil, err
	}
	grid, err := req.Grid()
	if err != nil {
		return nil, err
	}
	rs, err := lr.eng.Run(context.Background(), grid.Jobs())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	a := &campaign.Artifact{Spec: req.Spec, Factor: req.Factor, Policy: req.Policy, Grid: grid, Results: rs}
	if err := campaign.WriteArtifact(&buf, sub.Format, a); err != nil {
		return nil, err
	}
	lr.got[sub] = buf.Bytes()
	return buf.Bytes(), nil
}
