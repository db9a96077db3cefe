package core

import (
	"fmt"
	"strings"
	"testing"

	"grp/internal/workloads"
)

// TestAllWorkloadsRunAllSchemes is the pipeline smoke test: every workload
// must compile, initialize, and simulate to completion under every scheme.
func TestAllWorkloadsRunAllSchemes(t *testing.T) {
	opt := Options{Factor: workloads.Test}
	for _, spec := range workloads.All() {
		for _, sc := range AllSchemes() {
			r, err := Run(spec, sc, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, sc, err)
			}
			if r.CPU.Instrs == 0 || r.CPU.Cycles == 0 {
				t.Errorf("%s/%s: empty result %+v", spec.Name, sc, r.CPU)
			}
		}
	}
}

// TestSchemeOrdering checks the paper's headline ordering on a streaming
// workload: perfectL2 >= SRP/GRP > base, and SRP traffic >= GRP traffic.
func TestSchemeOrdering(t *testing.T) {
	opt := Options{Factor: workloads.Test}
	spec, err := workloads.ByName("wupwise")
	if err != nil {
		t.Fatal(err)
	}
	get := func(sc Scheme) *Result {
		r, err := Run(spec, sc, opt)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		return r
	}
	base := get(NoPrefetch)
	perf := get(PerfectL2)
	srp := get(SRP)
	grp := get(GRPVar)
	t.Logf("base=%d perf=%d srp=%d grp=%d cycles", base.CPU.Cycles, perf.CPU.Cycles, srp.CPU.Cycles, grp.CPU.Cycles)
	t.Logf("traffic base=%d srp=%d grp=%d", base.TrafficBytes, srp.TrafficBytes, grp.TrafficBytes)
	t.Logf("grp hints: %+v", grp.Hints)
	if perf.CPU.Cycles >= base.CPU.Cycles {
		t.Errorf("perfect L2 (%d) not faster than base (%d)", perf.CPU.Cycles, base.CPU.Cycles)
	}
	if srp.CPU.Cycles >= base.CPU.Cycles {
		t.Errorf("SRP (%d) not faster than base (%d)", srp.CPU.Cycles, base.CPU.Cycles)
	}
	if grp.CPU.Cycles >= base.CPU.Cycles {
		t.Errorf("GRP (%d) not faster than base (%d)", grp.CPU.Cycles, base.CPU.Cycles)
	}
	if grp.Hints.Spatial == 0 {
		t.Errorf("wupwise should have spatial hints, got %+v", grp.Hints)
	}
}

// TestValidateSRPRegionBlocks: an SRP region-size override must be 0 (the
// paper's 4 KB) or a power of two in [2, 64]; anything else used to run
// silently as a misaligned region, as 64 blocks, or as no prefetching at
// all, each under its own cache key.
func TestValidateSRPRegionBlocks(t *testing.T) {
	cases := []struct {
		blocks int
		ok     bool
	}{
		{0, true}, {2, true}, {4, true}, {16, true}, {32, true}, {64, true},
		{1, false}, {3, false}, {48, false}, {100, false}, {128, false}, {-1, false}, {-64, false},
	}
	for _, tc := range cases {
		opt := Options{Factor: workloads.Test, SRPRegionBlocks: tc.blocks}
		err := opt.Validate()
		if tc.ok && err != nil {
			t.Errorf("SRPRegionBlocks %d rejected: %v", tc.blocks, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("SRPRegionBlocks %d accepted", tc.blocks)
			} else if !strings.Contains(err.Error(), fmt.Sprintf("SRPRegionBlocks %d", tc.blocks)) {
				t.Errorf("SRPRegionBlocks %d: error %q does not name the field and value", tc.blocks, err)
			}
		}
	}
	spec, err := workloads.ByName("wupwise")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, SRP, Options{Factor: workloads.Test, SRPRegionBlocks: 48}); err == nil {
		t.Error("Run accepted a 48-block SRP region")
	}
}
