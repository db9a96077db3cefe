package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grp/internal/faults"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// The golden-snapshot suite is the simulator's timing-regression net: it
// pins the exact architectural digests, cycle counts, and key memory
// statistics of every kernel × scheme cell at Test factor. Any engineering
// change to the hot path — queue structure, lookup tables, event skipping
// — must reproduce these numbers byte-identically; a legitimate timing-
// semantics change must regenerate them (go test ./internal/core -run
// TestGoldenSnapshots -update) and justify the diff in review.

var updateGolden = flag.Bool("update", false, "regenerate golden snapshot testdata")

// goldenOptions returns the run options for golden cells.
func goldenOptions() Options { return Options{Factor: workloads.Test} }

// goldenSchemes is the snapshot grid's scheme axis: the realistic schemes
// whose timing the paper's tables compare (perfect caches are covered by
// the cycle-bound checks in internal/conformance instead).
func goldenSchemes() []Scheme {
	return []Scheme{NoPrefetch, StridePF, GHB, SRP, GRPFix, GRPVar, GRPAdaptive, PointerOnly}
}

// goldenVariants pins option settings the default-options grid never
// runs: the SRP ablations, open-page-first issue (which ptr ignores,
// popping in index order), a one-level recursion depth, and grp-adaptive
// under dropped hints, which walks its ladder up to the fallback rungs.
var goldenVariants = []struct {
	name   string
	bench  string
	scheme Scheme
	set    func(*Options)
}{
	{"fifo", "mcf", SRP, func(o *Options) { o.SRPFIFO = true }},
	{"region16", "wupwise", SRP, func(o *Options) { o.SRPRegionBlocks = 16 }},
	{"openpage", "wupwise", SRP, openPageFirst},
	{"openpage", "mcf", GRPVar, openPageFirst},
	{"openpage", "parser", PointerOnly, openPageFirst},
	{"depth1", "mcf", GRPVar, func(o *Options) { o.RecursionDepth = 1 }},
	{"drop-hint", "twolf", GRPAdaptive, func(o *Options) { o.Faults = &faults.Plan{Seed: 7, DropHint: 0.95} }},
}

// openPageFirst turns on open-page-first prefetch issue.
func openPageFirst(o *Options) {
	m := sim.DefaultMemConfig()
	m.OpenPageFirst = true
	o.Mem = &m
}

// goldenSnapshot is one committed cell snapshot. Digests are hex strings
// so diffs in testdata are greppable.
type goldenSnapshot struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`

	ArchDigest string `json:"arch_digest"`
	MemDigest  string `json:"mem_digest"`

	Cycles      uint64 `json:"cycles"`
	Instrs      uint64 `json:"instrs"`
	Mispredicts uint64 `json:"mispredicts"`

	Loads            uint64 `json:"loads"`
	Stores           uint64 `json:"stores"`
	InflightMerges   uint64 `json:"inflight_merges"`
	PrefetchLates    uint64 `json:"prefetch_lates"`
	PrefetchesIssued uint64 `json:"prefetches_issued"`
	PrioritizerHolds uint64 `json:"prioritizer_holds"`

	L1Hits          uint64 `json:"l1_hits"`
	L1Misses        uint64 `json:"l1_misses"`
	L2Hits          uint64 `json:"l2_hits"`
	L2Misses        uint64 `json:"l2_misses"`
	L2PrefetchFills uint64 `json:"l2_prefetch_fills"`
	L2Useful        uint64 `json:"l2_useful_prefetches"`
	L2Useless       uint64 `json:"l2_useless_prefetches"`

	DramRowHits   uint64 `json:"dram_row_hits"`
	DramRowMisses uint64 `json:"dram_row_misses"`
	TrafficBytes  uint64 `json:"traffic_bytes"`
}

func snapshotOf(r *Result) goldenSnapshot {
	return goldenSnapshot{
		Bench:  r.Bench,
		Scheme: r.Scheme.String(),

		ArchDigest: fmt.Sprintf("%016x", r.ArchDigest),
		MemDigest:  fmt.Sprintf("%016x", r.MemDigest),

		Cycles:      r.CPU.Cycles,
		Instrs:      r.CPU.Instrs,
		Mispredicts: r.CPU.Mispredicts,

		Loads:            r.Mem.Loads,
		Stores:           r.Mem.Stores,
		InflightMerges:   r.Mem.InflightMerges,
		PrefetchLates:    r.Mem.PrefetchLates,
		PrefetchesIssued: r.Mem.PrefetchesIssued,
		PrioritizerHolds: r.Mem.PrioritizerHolds,

		L1Hits:          r.L1.Hits,
		L1Misses:        r.L1.Misses,
		L2Hits:          r.L2.Hits,
		L2Misses:        r.L2.Misses,
		L2PrefetchFills: r.L2.PrefetchFills,
		L2Useful:        r.L2.UsefulPrefetches,
		L2Useless:       r.L2.UselessPrefetches,

		DramRowHits:   r.Dram.RowHits,
		DramRowMisses: r.Dram.RowMisses,
		TrafficBytes:  r.TrafficBytes,
	}
}

// diffFields returns the names of fields that differ, in declaration
// order, each with got/want values — the first entry is the first
// divergent field.
func diffFields(got, want goldenSnapshot) []string {
	var out []string
	add := func(name string, g, w interface{}) {
		if g != w {
			out = append(out, fmt.Sprintf("%s: got %v, want %v", name, g, w))
		}
	}
	add("bench", got.Bench, want.Bench)
	add("scheme", got.Scheme, want.Scheme)
	add("arch_digest", got.ArchDigest, want.ArchDigest)
	add("mem_digest", got.MemDigest, want.MemDigest)
	add("cycles", got.Cycles, want.Cycles)
	add("instrs", got.Instrs, want.Instrs)
	add("mispredicts", got.Mispredicts, want.Mispredicts)
	add("loads", got.Loads, want.Loads)
	add("stores", got.Stores, want.Stores)
	add("inflight_merges", got.InflightMerges, want.InflightMerges)
	add("prefetch_lates", got.PrefetchLates, want.PrefetchLates)
	add("prefetches_issued", got.PrefetchesIssued, want.PrefetchesIssued)
	add("prioritizer_holds", got.PrioritizerHolds, want.PrioritizerHolds)
	add("l1_hits", got.L1Hits, want.L1Hits)
	add("l1_misses", got.L1Misses, want.L1Misses)
	add("l2_hits", got.L2Hits, want.L2Hits)
	add("l2_misses", got.L2Misses, want.L2Misses)
	add("l2_prefetch_fills", got.L2PrefetchFills, want.L2PrefetchFills)
	add("l2_useful_prefetches", got.L2Useful, want.L2Useful)
	add("l2_useless_prefetches", got.L2Useless, want.L2Useless)
	add("dram_row_hits", got.DramRowHits, want.DramRowHits)
	add("dram_row_misses", got.DramRowMisses, want.DramRowMisses)
	add("traffic_bytes", got.TrafficBytes, want.TrafficBytes)
	return out
}

func goldenPath(bench string, sc Scheme) string {
	name := fmt.Sprintf("%s__%s.json", bench, strings.ReplaceAll(sc.String(), "/", "-"))
	return filepath.Join("testdata", "golden", name)
}

// checkGolden compares r against the snapshot at path, or rewrites the
// snapshot under -update.
func checkGolden(t *testing.T, path string, r *Result) {
	t.Helper()
	got := snapshotOf(r)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update to generate): %v", err)
	}
	var want goldenSnapshot
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden snapshot %s: %v", path, err)
	}
	if diffs := diffFields(got, want); len(diffs) > 0 {
		t.Errorf("%s diverges from golden snapshot; first divergent field:\n  %s",
			path, strings.Join(diffs, "\n  "))
	}
}

// TestGoldenSnapshots simulates every kernel × scheme cell at Test factor
// and compares the result against the committed snapshot. With -update it
// rewrites the testdata instead. On mismatch it names the first divergent
// field (and every further one) so a timing regression reads as "cycles:
// got X, want Y" rather than a JSON blob diff.
func TestGoldenSnapshots(t *testing.T) {
	opt := goldenOptions()
	for _, bench := range workloads.Names() {
		for _, sc := range goldenSchemes() {
			bench, sc := bench, sc
			t.Run(fmt.Sprintf("%s/%s", bench, sc), func(t *testing.T) {
				spec, err := workloads.ByName(bench)
				if err != nil {
					t.Fatal(err)
				}
				r, err := Run(spec, sc, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, goldenPath(bench, sc), r)
			})
		}
	}
}

// TestGoldenVariants checks each goldenVariants cell against its snapshot
// in testdata/golden-variants, kept apart from the grid's directory so
// TestGoldenCoverage's stale-file check still holds.
func TestGoldenVariants(t *testing.T) {
	for _, v := range goldenVariants {
		v := v
		t.Run(fmt.Sprintf("%s/%s/%s", v.bench, v.scheme, v.name), func(t *testing.T) {
			spec, err := workloads.ByName(v.bench)
			if err != nil {
				t.Fatal(err)
			}
			opt := goldenOptions()
			v.set(&opt)
			r, err := Run(spec, v.scheme, opt)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s__%s__%s.json", v.bench, strings.ReplaceAll(v.scheme.String(), "/", "-"), v.name)
			checkGolden(t, filepath.Join("testdata", "golden-variants", name), r)
		})
	}
}

// TestGoldenCoverage pins the grid shape: a snapshot file exists for every
// kernel × scheme cell and no stale file lingers, so a renamed kernel or
// scheme cannot silently shrink the regression net.
func TestGoldenCoverage(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	want := map[string]bool{}
	for _, bench := range workloads.Names() {
		for _, sc := range goldenSchemes() {
			want[filepath.Base(goldenPath(bench, sc))] = true
		}
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden testdata missing (run TestGoldenSnapshots -update): %v", err)
	}
	seen := map[string]bool{}
	for _, e := range ents {
		if !want[e.Name()] {
			t.Errorf("stale golden file %s (no matching kernel × scheme cell)", e.Name())
		}
		seen[e.Name()] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("missing golden file %s", name)
		}
	}
}
