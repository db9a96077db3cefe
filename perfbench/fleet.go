package main

import (
	"fmt"

	"grp/internal/compiler"
	"grp/internal/conformance"
	"grp/internal/core"
	"grp/internal/mem"
	"grp/internal/progen"
	"grp/internal/workloads"
)

// fleetSeedStride separates the program seeds of two benchmark seeds.
const fleetSeedStride = 256

// fleetSeeds are the generator seeds of one run's programs: a block of
// consecutive seeds, as grpconform -seed uses.
func fleetSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*fleetSeedStride + int64(i)
	}
	return out
}

// fleetConfig is the conformance configuration of the fleet: the
// realistic schemes plus perfect-L2, no fault variants, ledger and
// invariant audit on (conformance turns both on for every cell).
func fleetConfig() conformance.Config { return conformance.Config{} }

// fleetSchemes lists a check's cells in the order CheckWorkload runs
// them: the perfect-L2 reference, then the differentiated schemes.
func fleetSchemes() []core.Scheme {
	return append([]core.Scheme{core.PerfectL2}, conformance.DefaultSchemes()...)
}

// fleetCellOptions are the options CheckWorkload gives every cell.
func fleetCellOptions() core.Options { return core.Options{CheckInvariants: true, Attrib: true} }

// fleetSpec wraps a generated program as a workload, the way the
// conformance harness does: the instruction budget derives from the
// oracle's step count.
func fleetSpec(seed int64, w *progen.Workload, steps int) *workloads.Spec {
	budget := uint64(steps)*16 + 65536
	return &workloads.Spec{
		Name: fmt.Sprintf("conform%d", seed),
		Build: func(workloads.Factor) *workloads.Built {
			return &workloads.Built{
				Prog: w.Prog,
				Init: func(m *mem.Memory, lay *compiler.Layout) {
					w.Init(m, func(name string) uint64 { return lay.Addr[name] })
				},
				MaxInstrs: budget,
			}
		},
	}
}
