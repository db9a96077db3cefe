// Hot-path allocation gate and cell benchmark:
//
//	go test -run TestHotPathSteadyStateAllocs
//	go test -bench=BenchmarkCellHotPath -benchtime=3x
//
// Throughput is measured end to end and layer by layer by perfbench
// (sim_minstr_per_s, cpu.self_ns_per_instr, sim.self_ns_per_access).
package grp

import (
	"testing"

	"grp/internal/core"
	"grp/internal/isa"
	"grp/internal/prefetch"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// measureSteadyAllocs drives a warmed memory system through a fixed
// working set — demand misses, L2 hits, prefetch traffic, arrival drain —
// and returns the heap allocations per iteration. The contract is zero:
// the pool recycles in-flight lines, the arrival array keeps its
// capacity, and the open-addressed tables stop growing once the working
// set is resident.
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
	drive() // warm: grow pool, tables, and queue capacity
	drive()
	return testing.AllocsPerRun(100, drive)
}

// TestHotPathSteadyStateAllocs is the allocation gate: it runs in every
// CI tier (no -short skip — it is timing-independent).
func TestHotPathSteadyStateAllocs(t *testing.T) {
	if allocs := measureSteadyAllocs(); allocs != 0 {
		t.Fatalf("steady-state hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkCellHotPath times one representative cell (mcf × grp/var, the
// pointer-chasing kernel the paper's GRP case is built around), with
// allocation counts.
func BenchmarkCellHotPath(b *testing.B) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	opt := core.Options{Factor: benchFactor()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(spec, core.GRPVar, opt); err != nil {
			b.Fatal(err)
		}
	}
}
