// Observability overhead gate: how much attaching the prefetch
// attribution ledger (internal/attrib) costs on the single-cell hot path,
// and proof it stays cheap. The ledger is pure bookkeeping — it must never
// show up in a profile.
//
//	go test -bench=BenchmarkCellAttrib -benchtime=3x
//	go test -run TestAttribOverhead          (emits BENCH_obs.json)
//	go test -run TestAttribSteadyStateAllocs
//
// BENCH_obs.json format (one object, see DESIGN.md §11):
//
//	{
//	  "factor": "test",              // workload scale the cells ran at
//	  "scheme": "grp/var",           // prefetch scheme of every cell
//	  "rounds": 9,                   // paired timing rounds (median ratio taken)
//	  "num_cpu": 1,
//	  "kernels": [                   // one entry per kernel, kernel order
//	    {"bench": "mcf",
//	     "detached_ns_per_cell": 1,  // median round, no ledger
//	     "attached_ns_per_cell": 1,  // median round, ledger attached
//	     "overhead": 1.0,            // attached / detached of that round
//	     "issued": 1},               // attributed prefetches of the cell
//	    ...],
//	  "geomean_overhead": 1.0,       // geometric mean of kernel overheads
//	  "attached_steady_allocs_per_op": 0
//	}
package grp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"grp/internal/attrib"
	"grp/internal/core"
	"grp/internal/isa"
	"grp/internal/prefetch"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// measureAttachedSteadyAllocs is measureSteadyAllocs with the attribution
// ledger attached: the same fixed working set, so once the ledger's slab
// and aggregate tables cover it, recording events must allocate nothing.
func measureAttachedSteadyAllocs() float64 {
	ms, err := sim.NewMemSystem(sim.DefaultMemConfig(), prefetch.NewSRP())
	if err != nil {
		panic(err)
	}
	ms.AttachLedger(attrib.NewLedger())
	now := uint64(1000)
	drive := func() {
		for i := 0; i < 256; i++ {
			addr := uint64(0x40000000 + (i%1024)*512)
			done := ms.Load(uint64(i), addr, isa.HintNone, 0, now)
			if done > now {
				now = done
			}
			now++
		}
		ms.Drain()
	}
	drive() // warm: grow the slab, entry map, and aggregate tables
	drive()
	return testing.AllocsPerRun(100, drive)
}

// TestAttribSteadyStateAllocs is the attached-ledger allocation gate on
// its own: timing-independent, runs in every CI tier.
func TestAttribSteadyStateAllocs(t *testing.T) {
	if allocs := measureAttachedSteadyAllocs(); allocs != 0 {
		t.Fatalf("attached-ledger steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkCellAttrib times one representative cell (mcf × grp/var) with
// the ledger detached and attached. TestAttribOverhead writes the
// per-kernel before/after numbers to BENCH_obs.json, an untracked file CI
// archives.
func BenchmarkCellAttrib(b *testing.B) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		attrib bool
	}{{"detached", false}, {"attached", true}} {
		b.Run("ledger="+mode.name, func(b *testing.B) {
			opt := core.Options{Factor: benchFactor(), Attrib: mode.attrib}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(spec, core.GRPVar, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchObsKernel is one kernel's row in BENCH_obs.json.
type benchObsKernel struct {
	Bench             string  `json:"bench"`
	DetachedNSPerCell int64   `json:"detached_ns_per_cell"`
	AttachedNSPerCell int64   `json:"attached_ns_per_cell"`
	Overhead          float64 `json:"overhead"`
	Issued            uint64  `json:"issued"`
}

// benchObsReport is the artifact CI archives as BENCH_obs.json.
type benchObsReport struct {
	Factor                    string           `json:"factor"`
	Scheme                    string           `json:"scheme"`
	Rounds                    int              `json:"rounds"`
	NumCPU                    int              `json:"num_cpu"`
	Kernels                   []benchObsKernel `json:"kernels"`
	GeomeanOverhead           float64          `json:"geomean_overhead"`
	AttachedSteadyAllocsPerOp float64          `json:"attached_steady_allocs_per_op"`
}

// parseBenchObs decodes and sanity-checks a BENCH_obs.json document; CI
// consumers and the format test share this one definition of "valid".
func parseBenchObs(data []byte) (*benchObsReport, error) {
	var r benchObsReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Factor == "" || r.Scheme == "" {
		return nil, fmt.Errorf("bench_obs: missing factor/scheme")
	}
	if r.Rounds <= 0 || len(r.Kernels) == 0 {
		return nil, fmt.Errorf("bench_obs: %d rounds, %d kernels", r.Rounds, len(r.Kernels))
	}
	if r.GeomeanOverhead <= 0 {
		return nil, fmt.Errorf("bench_obs: geomean_overhead %v not positive", r.GeomeanOverhead)
	}
	for _, k := range r.Kernels {
		if k.Bench == "" || k.DetachedNSPerCell <= 0 || k.AttachedNSPerCell <= 0 {
			return nil, fmt.Errorf("bench_obs: kernel %q has non-positive timings", k.Bench)
		}
		if got := float64(k.AttachedNSPerCell) / float64(k.DetachedNSPerCell); math.Abs(got-k.Overhead) > 0.01*k.Overhead {
			return nil, fmt.Errorf("bench_obs: kernel %q overhead %v inconsistent with timings (%v)", k.Bench, k.Overhead, got)
		}
	}
	return &r, nil
}

// TestAttribOverhead times every kernel's grp/var cell with the ledger
// detached and attached — paired rounds, median ratio, so machine noise
// hits both sides alike — emits BENCH_obs.json, and gates the tentpole's
// headline claim: full lifecycle attribution costs at most 3% (geomean
// across kernels) with an allocation-free attached steady state.
func TestAttribOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	const rounds = 9
	rep := benchObsReport{
		Factor: workloads.Test.String(),
		Scheme: core.GRPVar.String(),
		Rounds: rounds,
		NumCPU: runtime.NumCPU(),
	}

	// timeCell runs one cell after flushing accumulated garbage, so a GC
	// cycle triggered by the previous run's allocations never lands inside
	// the timed window of this one.
	timeCell := func(spec *workloads.Spec, attrib bool) (time.Duration, *core.Result) {
		runtime.GC()
		start := time.Now()
		res, err := core.Run(spec, core.GRPVar, core.Options{Factor: workloads.Test, Attrib: attrib})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), res
	}

	logSum := 0.0
	for _, name := range workloads.Names() {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		// Each round times the two sides back to back and yields one
		// paired ratio; the median round is the kernel's verdict. Pairing
		// cancels noise that covers a whole round, and the median discards
		// rounds where a transient hit only one side — the failure mode of
		// best-of-N mins on a busy host.
		offs := make([]time.Duration, rounds)
		ons := make([]time.Duration, rounds)
		var issued uint64
		for r := 0; r < rounds; r++ {
			// Alternate which side runs first so warmup and frequency
			// drift hit both sides alike across the rounds.
			order := []bool{false, true}
			if r%2 == 1 {
				order = []bool{true, false}
			}
			for _, attrib := range order {
				d, res := timeCell(spec, attrib)
				if attrib {
					ons[r] = d
					if res.Attrib != nil {
						issued = res.Attrib.Issued
					}
				} else {
					offs[r] = d
				}
			}
		}
		byRatio := make([]int, rounds)
		for i := range byRatio {
			byRatio[i] = i
		}
		sort.Slice(byRatio, func(a, b int) bool {
			return float64(ons[byRatio[a]])*float64(offs[byRatio[b]]) <
				float64(ons[byRatio[b]])*float64(offs[byRatio[a]])
		})
		m := byRatio[rounds/2]
		ov := float64(ons[m]) / float64(offs[m])
		logSum += math.Log(ov)
		rep.Kernels = append(rep.Kernels, benchObsKernel{
			Bench:             name,
			DetachedNSPerCell: offs[m].Nanoseconds(),
			AttachedNSPerCell: ons[m].Nanoseconds(),
			Overhead:          ov,
			Issued:            issued,
		})
	}
	rep.GeomeanOverhead = math.Exp(logSum / float64(len(rep.Kernels)))
	rep.AttachedSteadyAllocsPerOp = measureAttachedSteadyAllocs()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseBenchObs(data); err != nil {
		t.Fatalf("emitted report fails its own parser: %v", err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("attribution overhead: geomean %.3fx over %d kernels, attached steady allocs/op %.1f",
		rep.GeomeanOverhead, len(rep.Kernels), rep.AttachedSteadyAllocsPerOp)

	if rep.GeomeanOverhead > 1.03 {
		t.Errorf("attached-ledger geomean overhead is %.3fx, want <= 1.03x", rep.GeomeanOverhead)
	}
	if rep.AttachedSteadyAllocsPerOp != 0 {
		t.Errorf("attached-ledger steady state allocates %.1f allocs/op, want 0", rep.AttachedSteadyAllocsPerOp)
	}
}

// TestBenchObsFormat pins the BENCH_obs.json schema with a canned
// document, and validates the BENCH_obs.json that TestAttribOverhead
// wrote to the working tree, when one is present.
func TestBenchObsFormat(t *testing.T) {
	sample := []byte(`{
	  "factor": "test", "scheme": "grp/var", "rounds": 3, "num_cpu": 1,
	  "kernels": [
	    {"bench": "mcf", "detached_ns_per_cell": 5000000, "attached_ns_per_cell": 5100000,
	     "overhead": 1.02, "issued": 1599}
	  ],
	  "geomean_overhead": 1.02,
	  "attached_steady_allocs_per_op": 0
	}`)
	rep, err := parseBenchObs(sample)
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
		  "kernels":[{"bench":"mcf","detached_ns_per_cell":100,"attached_ns_per_cell":100,"overhead":3}]}`,
	} {
		if _, err := parseBenchObs([]byte(bad)); err == nil {
			t.Errorf("parser accepted invalid document %s", bad)
		}
	}
	data, err := os.ReadFile("BENCH_obs.json")
	if err != nil {
		t.Skip("no BENCH_obs.json to validate (TestAttribOverhead writes it)")
	}
	if _, err := parseBenchObs(data); err != nil {
		t.Errorf("BENCH_obs.json invalid: %v", err)
	}
}
