// Hot-path baseline: how much a single simulation cell gained from the
// event-queue/pool overhaul (calendar queue, slab-pooled in-flight lines,
// open-addressed tables, ring slot scheduler), and proof it stays gained.
//
//	go test -bench=BenchmarkCellHotPath -benchtime=3x
//	go test -run TestCellHotPathSpeedup      (emits BENCH_sim.json)
//	go test -run TestHotPathSteadyStateAllocs
//
// BENCH_sim.json format (one object, see DESIGN.md §10):
//
//	{
//	  "factor": "test",            // workload scale the cells ran at
//	  "scheme": "grp/var",         // prefetch scheme of every cell
//	  "rounds": 3,                 // interleaved timing rounds (min taken)
//	  "num_cpu": 1,
//	  "kernels": [                 // one entry per kernel, kernel order
//	    {"bench": "mcf",
//	     "legacy_ns_per_cell": 1,  // best-of-rounds, pre-overhaul engine
//	     "new_ns_per_cell": 1,     // best-of-rounds, overhauled engine
//	     "speedup": 1.0,           // legacy / new
//	     "cycles": 1,              // simulated cycles of the cell
//	     "cycles_per_sec": 1.0},   // cycles / best new-engine seconds
//	    ...],
//	  "geomean_speedup": 1.0,      // geometric mean of kernel speedups
//	  "steady_allocs_per_op": 0    // heap allocs per warmed memsys op
//	}
package grp

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"grp/internal/core"
	"grp/internal/isa"
	"grp/internal/prefetch"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// measureSteadyAllocs drives a warmed memory system through a fixed
// working set — demand misses, L2 hits, prefetch traffic, arrival drain —
// and returns the heap allocations per iteration. The overhaul's contract
// is zero: the pool recycles in-flight lines, the calendar queue's bucket
// slices keep their capacity, and the open-addressed tables stop growing
// once the working set is resident.
func measureSteadyAllocs() float64 {
	ms, err := sim.NewMemSystem(sim.DefaultMemConfig(), prefetch.NewSRP())
	if err != nil {
		panic(err)
	}
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
	drive() // warm: grow pool, tables, and bucket capacities
	drive()
	return testing.AllocsPerRun(100, drive)
}

// TestHotPathSteadyStateAllocs is the allocation gate on its own: it
// runs in every CI tier (no -short skip — it is timing-independent).
func TestHotPathSteadyStateAllocs(t *testing.T) {
	if allocs := measureSteadyAllocs(); allocs != 0 {
		t.Fatalf("steady-state hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkCellHotPath times one representative cell (mcf × grp/var, the
// pointer-chasing kernel the paper's GRP case is built around) on the
// overhauled engine and on the retained legacy engine, with allocation
// counts. TestCellHotPathSpeedup writes the per-kernel before/after
// numbers to BENCH_sim.json, an untracked file CI archives.
func BenchmarkCellHotPath(b *testing.B) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []struct {
		name   string
		legacy bool
	}{{"new", false}, {"legacy", true}} {
		b.Run("engine="+eng.name, func(b *testing.B) {
			opt := core.Options{Factor: benchFactor(), LegacyEngine: eng.legacy}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(spec, core.GRPVar, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSimKernel is one kernel's row in BENCH_sim.json.
type benchSimKernel struct {
	Bench           string  `json:"bench"`
	LegacyNSPerCell int64   `json:"legacy_ns_per_cell"`
	NewNSPerCell    int64   `json:"new_ns_per_cell"`
	Speedup         float64 `json:"speedup"`
	Cycles          uint64  `json:"cycles"`
	CyclesPerSec    float64 `json:"cycles_per_sec"`
}

// benchSimReport is the artifact CI archives as BENCH_sim.json.
type benchSimReport struct {
	Factor            string           `json:"factor"`
	Scheme            string           `json:"scheme"`
	Rounds            int              `json:"rounds"`
	NumCPU            int              `json:"num_cpu"`
	Kernels           []benchSimKernel `json:"kernels"`
	GeomeanSpeedup    float64          `json:"geomean_speedup"`
	SteadyAllocsPerOp float64          `json:"steady_allocs_per_op"`
}

// parseBenchSim decodes and sanity-checks a BENCH_sim.json document; CI
// consumers and the format test share this one definition of "valid".
func parseBenchSim(data []byte) (*benchSimReport, error) {
	var r benchSimReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Factor == "" || r.Scheme == "" {
		return nil, fmt.Errorf("bench_sim: missing factor/scheme")
	}
	if r.Rounds <= 0 || len(r.Kernels) == 0 {
		return nil, fmt.Errorf("bench_sim: %d rounds, %d kernels", r.Rounds, len(r.Kernels))
	}
	if r.GeomeanSpeedup <= 0 {
		return nil, fmt.Errorf("bench_sim: geomean_speedup %v not positive", r.GeomeanSpeedup)
	}
	for _, k := range r.Kernels {
		if k.Bench == "" || k.LegacyNSPerCell <= 0 || k.NewNSPerCell <= 0 {
			return nil, fmt.Errorf("bench_sim: kernel %q has non-positive timings", k.Bench)
		}
		if got := float64(k.LegacyNSPerCell) / float64(k.NewNSPerCell); math.Abs(got-k.Speedup) > 0.01*k.Speedup {
			return nil, fmt.Errorf("bench_sim: kernel %q speedup %v inconsistent with timings (%v)", k.Bench, k.Speedup, got)
		}
	}
	return &r, nil
}

// TestCellHotPathSpeedup times every kernel's grp/var cell on both
// engines — interleaved, best-of-rounds, so machine noise hits both sides
// alike — emits BENCH_sim.json, and gates the overhaul's headline claim:
// the new engine runs single cells at least 2× faster (geomean across
// kernels) with an allocation-free steady state.
func TestCellHotPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	const rounds = 3
	rep := benchSimReport{
		Factor: workloads.Test.String(),
		Scheme: core.GRPVar.String(),
		Rounds: rounds,
		NumCPU: runtime.NumCPU(),
	}

	logSum := 0.0
	for _, name := range workloads.Names() {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		minLegacy, minNew := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		var cycles uint64
		for r := 0; r < rounds; r++ {
			start := time.Now()
			if _, err := core.Run(spec, core.GRPVar, core.Options{Factor: workloads.Test, LegacyEngine: true}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < minLegacy {
				minLegacy = d
			}
			start = time.Now()
			res, err := core.Run(spec, core.GRPVar, core.Options{Factor: workloads.Test})
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < minNew {
				minNew = d
			}
			cycles = res.CPU.Cycles
		}
		sp := float64(minLegacy) / float64(minNew)
		logSum += math.Log(sp)
		rep.Kernels = append(rep.Kernels, benchSimKernel{
			Bench:           name,
			LegacyNSPerCell: minLegacy.Nanoseconds(),
			NewNSPerCell:    minNew.Nanoseconds(),
			Speedup:         sp,
			Cycles:          cycles,
			CyclesPerSec:    float64(cycles) / minNew.Seconds(),
		})
	}
	rep.GeomeanSpeedup = math.Exp(logSum / float64(len(rep.Kernels)))
	rep.SteadyAllocsPerOp = measureSteadyAllocs()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseBenchSim(data); err != nil {
		t.Fatalf("emitted report fails its own parser: %v", err)
	}
	if err := os.WriteFile("BENCH_sim.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("cell hot path: geomean %.2fx over %d kernels, steady allocs/op %.1f",
		rep.GeomeanSpeedup, len(rep.Kernels), rep.SteadyAllocsPerOp)

	if rep.GeomeanSpeedup < 2 {
		t.Errorf("single-cell geomean speedup is %.2fx, want >= 2x", rep.GeomeanSpeedup)
	}
	if rep.SteadyAllocsPerOp != 0 {
		t.Errorf("steady-state hot path allocates %.1f allocs/op, want 0", rep.SteadyAllocsPerOp)
	}
}

// TestBenchSimFormat pins the BENCH_sim.json schema with a canned
// document, and validates the BENCH_sim.json that TestCellHotPathSpeedup
// wrote to the working tree, when one is present.
func TestBenchSimFormat(t *testing.T) {
	sample := []byte(`{
	  "factor": "test", "scheme": "grp/var", "rounds": 3, "num_cpu": 1,
	  "kernels": [
	    {"bench": "mcf", "legacy_ns_per_cell": 10000000, "new_ns_per_cell": 5000000,
	     "speedup": 2.0, "cycles": 118923, "cycles_per_sec": 23784600.0}
	  ],
	  "geomean_speedup": 2.0,
	  "steady_allocs_per_op": 0
	}`)
	rep, err := parseBenchSim(sample)
	if err != nil {
		t.Fatalf("canned document rejected: %v", err)
	}
	if rep.Kernels[0].Bench != "mcf" || rep.GeomeanSpeedup != 2.0 {
		t.Fatalf("canned document misparsed: %+v", rep)
	}
	for _, bad := range []string{
		`{}`,
		`{"factor":"test","scheme":"grp/var","rounds":0,"kernels":[],"geomean_speedup":2}`,
		`{"factor":"test","scheme":"grp/var","rounds":1,"geomean_speedup":2,
		  "kernels":[{"bench":"mcf","legacy_ns_per_cell":100,"new_ns_per_cell":100,"speedup":3}]}`,
	} {
		if _, err := parseBenchSim([]byte(bad)); err == nil {
			t.Errorf("parser accepted invalid document %s", bad)
		}
	}
	data, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Skip("no BENCH_sim.json to validate (TestCellHotPathSpeedup writes it)")
	}
	if _, err := parseBenchSim(data); err != nil {
		t.Errorf("BENCH_sim.json invalid: %v", err)
	}
}
