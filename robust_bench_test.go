// Robustness overhead gate: what the crash-safety machinery of PR 7 —
// per-cell deadline contexts (with the cancellation hook polled in the
// CPU commit loop), the retry wrapper, cell key computation, and the
// fsynced sweep journal — costs on the campaign hot path, and proof it
// stays cheap. Durability must be invisible when nothing goes wrong.
//
//	go test -run TestRobustOverhead          (emits BENCH_robust.json)
//	go test -run TestBenchRobustFormat
//
// BENCH_robust.json format (one object, see DESIGN.md §12):
//
//	{
//	  "factor": "test",             // workload scale the cells ran at
//	  "scheme": "all",              // each kernel sweeps every scheme
//	  "rounds": 9,                  // paired timing rounds (median ratio taken)
//	  "num_cpu": 1,
//	  "kernels": [                  // one entry per kernel, kernel order
//	    {"bench": "mcf",
//	     "plain_ns_per_cell": 1,    // median round, bare cached engine
//	     "hardened_ns_per_cell": 1, // median round, journal+deadline+retry
//	     "overhead": 1.0},          // hardened / plain of that round
//	    ...],
//	  "geomean_overhead": 1.0       // geometric mean of kernel overheads
//	}
package grp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"grp/internal/campaign"
	"grp/internal/core"
	"grp/internal/workloads"
)

// benchRobustKernel is one kernel's row in BENCH_robust.json.
type benchRobustKernel struct {
	Bench             string  `json:"bench"`
	PlainNSPerCell    int64   `json:"plain_ns_per_cell"`
	HardenedNSPerCell int64   `json:"hardened_ns_per_cell"`
	Overhead          float64 `json:"overhead"`
}

// benchRobustReport is the artifact CI archives as BENCH_robust.json.
type benchRobustReport struct {
	Factor          string              `json:"factor"`
	Scheme          string              `json:"scheme"`
	Rounds          int                 `json:"rounds"`
	NumCPU          int                 `json:"num_cpu"`
	Kernels         []benchRobustKernel `json:"kernels"`
	GeomeanOverhead float64             `json:"geomean_overhead"`
}

// parseBenchRobust decodes and sanity-checks a BENCH_robust.json
// document; CI consumers and the format test share this definition.
func parseBenchRobust(data []byte) (*benchRobustReport, error) {
	var r benchRobustReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Factor == "" || r.Scheme == "" {
		return nil, fmt.Errorf("bench_robust: missing factor/scheme")
	}
	if r.Rounds <= 0 || len(r.Kernels) == 0 {
		return nil, fmt.Errorf("bench_robust: %d rounds, %d kernels", r.Rounds, len(r.Kernels))
	}
	if r.GeomeanOverhead <= 0 {
		return nil, fmt.Errorf("bench_robust: geomean_overhead %v not positive", r.GeomeanOverhead)
	}
	for _, k := range r.Kernels {
		if k.Bench == "" || k.PlainNSPerCell <= 0 || k.HardenedNSPerCell <= 0 {
			return nil, fmt.Errorf("bench_robust: kernel %q has non-positive timings", k.Bench)
		}
		if got := float64(k.HardenedNSPerCell) / float64(k.PlainNSPerCell); math.Abs(got-k.Overhead) > 0.01*k.Overhead {
			return nil, fmt.Errorf("bench_robust: kernel %q overhead %v inconsistent with timings (%v)", k.Bench, k.Overhead, got)
		}
	}
	return &r, nil
}

// TestRobustOverhead times every kernel's grp/var cell through the
// campaign engine twice per round — once bare (cache only, as the engine
// ran before the hardening) and once fully hardened (cold journal with
// fsynced completion records, a per-cell deadline whose cancellation
// hook is live in the CPU commit loop, and the retry wrapper) — paired
// rounds, median ratio, and gates the tentpole's headline claim: crash
// safety costs at most 3% geomean when nothing crashes.
func TestRobustOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	const rounds = 9
	rep := benchRobustReport{
		Factor: workloads.Test.String(),
		Scheme: "all",
		Rounds: rounds,
		NumCPU: runtime.NumCPU(),
	}

	// timeSweep runs one kernel's sweep over every scheme on a cold
	// cache — the grid shape a real campaign has, so per-campaign fixed
	// costs (journal open, group-commit syncs) amortize the way they do
	// in production. Both sides pay the cache Puts; only the hardened
	// side pays key+journal+deadline bookkeeping. Serial engine (Jobs:1),
	// so the measurement is the cell path itself, not scheduling.
	schemes := core.AllSchemes()
	timeSweep := func(bench string, hardened bool) time.Duration {
		dir := t.TempDir()
		cfg := campaign.Config{Jobs: 1, Cache: true, CacheDir: dir}
		if hardened {
			cfg.CellTimeout = time.Hour
			cfg.Retry = campaign.RetryPolicy{MaxAttempts: 3}
		}
		eng := campaign.New(cfg)
		jobs := make([]campaign.Job, len(schemes))
		for i, sc := range schemes {
			jobs[i] = campaign.Job{Bench: bench, Scheme: sc,
				Opt: core.Options{Factor: workloads.Test}}
		}
		if hardened {
			keys, err := eng.Keys(jobs)
			if err != nil {
				t.Fatal(err)
			}
			j, err := campaign.OpenJournal(dir, "bench", keys, false)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			eng.AttachJournal(j)
		}
		runtime.GC()
		start := time.Now()
		if _, err := eng.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	logSum := 0.0
	for _, name := range workloads.Names() {
		// Paired rounds with alternating order; the median-ratio round is
		// the kernel's verdict (see obs_bench_test.go for the rationale).
		plains := make([]time.Duration, rounds)
		hards := make([]time.Duration, rounds)
		for r := 0; r < rounds; r++ {
			order := []bool{false, true}
			if r%2 == 1 {
				order = []bool{true, false}
			}
			for _, hardened := range order {
				d := timeSweep(name, hardened)
				if hardened {
					hards[r] = d
				} else {
					plains[r] = d
				}
			}
		}
		byRatio := make([]int, rounds)
		for i := range byRatio {
			byRatio[i] = i
		}
		sort.Slice(byRatio, func(a, b int) bool {
			return float64(hards[byRatio[a]])*float64(plains[byRatio[b]]) <
				float64(hards[byRatio[b]])*float64(plains[byRatio[a]])
		})
		m := byRatio[rounds/2]
		ov := float64(hards[m]) / float64(plains[m])
		logSum += math.Log(ov)
		nCells := int64(len(schemes))
		rep.Kernels = append(rep.Kernels, benchRobustKernel{
			Bench:             name,
			PlainNSPerCell:    plains[m].Nanoseconds() / nCells,
			HardenedNSPerCell: hards[m].Nanoseconds() / nCells,
			Overhead:          ov,
		})
	}
	rep.GeomeanOverhead = math.Exp(logSum / float64(len(rep.Kernels)))

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseBenchRobust(data); err != nil {
		t.Fatalf("emitted report fails its own parser: %v", err)
	}
	if err := os.WriteFile("BENCH_robust.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("robustness overhead: geomean %.3fx over %d kernels", rep.GeomeanOverhead, len(rep.Kernels))

	if rep.GeomeanOverhead > 1.03 {
		t.Errorf("hardened-engine geomean overhead is %.3fx, want <= 1.03x", rep.GeomeanOverhead)
	}
}

// TestBenchRobustFormat pins the BENCH_robust.json schema with a canned
// document, and validates the BENCH_robust.json that TestRobustOverhead
// wrote to the working tree, when one is present.
func TestBenchRobustFormat(t *testing.T) {
	sample := []byte(`{
	  "factor": "test", "scheme": "grp/var", "rounds": 3, "num_cpu": 1,
	  "kernels": [
	    {"bench": "mcf", "plain_ns_per_cell": 5000000, "hardened_ns_per_cell": 5100000,
	     "overhead": 1.02}
	  ],
	  "geomean_overhead": 1.02
	}`)
	rep, err := parseBenchRobust(sample)
	if err != nil {
		t.Fatalf("canned document rejected: %v", err)
	}
	if rep.Kernels[0].Bench != "mcf" || rep.GeomeanOverhead != 1.02 {
		t.Fatalf("canned document misparsed: %+v", rep)
	}
	for _, bad := range []string{
		`{}`,
		`{"factor":"test","scheme":"grp/var","rounds":0,"kernels":[],"geomean_overhead":1}`,
		`{"factor":"test","scheme":"grp/var","rounds":1,"geomean_overhead":1,
		  "kernels":[{"bench":"mcf","plain_ns_per_cell":100,"hardened_ns_per_cell":100,"overhead":3}]}`,
	} {
		if _, err := parseBenchRobust([]byte(bad)); err == nil {
			t.Errorf("parser accepted invalid document %s", bad)
		}
	}
	data, err := os.ReadFile("BENCH_robust.json")
	if err != nil {
		t.Skip("no BENCH_robust.json to validate (TestRobustOverhead writes it)")
	}
	if _, err := parseBenchRobust(data); err != nil {
		t.Errorf("BENCH_robust.json invalid: %v", err)
	}
}
