package conformance

import (
	"testing"

	"grp/internal/core"
	"grp/internal/workloads"
)

// TestAttribConservationAcrossFaults is the conservation campaign in
// miniature: every scheme x fault-variant cell runs with the attribution
// ledger attached, core.Run fails any cell whose ledger does not account
// for every issued prefetch exactly once, and checkAttrib reconciles the
// ledger's totals against the counter-based metrics. CI runs the full
// 200-program version through grpconform; this keeps a fast slice in the
// tier-1 suite.
func TestAttribConservationAcrossFaults(t *testing.T) {
	vs, err := ParseVariants("light; heavy")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{N: 10, Seed: 21, Jobs: 4, Variants: vs})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("attribution conformance failures:\n%s", rep.Summary())
	}
	var checked int
	for _, p := range rep.Programs {
		if !p.Skipped {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("every program skipped; campaign checked nothing")
	}
}

// TestCheckAttribDetectsDisagreement proves the reconciliation is not
// vacuous: take a genuinely conserved result from a prefetch-heavy
// workload, corrupt the ledger summary in each reconciled dimension, and
// demand checkAttrib reports each corruption.
func TestCheckAttribDetectsDisagreement(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Attrib: true, MaxInstrs: 200_000}
	r, err := core.Run(spec, core.GRPVar, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Attrib == nil || r.Attrib.Issued == 0 {
		t.Fatalf("grp/var on mcf issued no attributed prefetches: %+v", r.Attrib)
	}

	collect := func(r *core.Result) []Failure {
		var fs []Failure
		fail := func(sc core.Scheme, variant, kind, detail string) {
			fs = append(fs, Failure{Scheme: sc, Variant: variant, Kind: kind, Detail: detail})
		}
		checkAttrib(r, fail, r.Scheme, "")
		return fs
	}

	if fs := collect(r); len(fs) != 0 {
		t.Fatalf("clean result failed reconciliation: %v", fs)
	}

	corruptions := []struct {
		name   string
		mutate func(c *core.Result)
	}{
		{"issued drift", func(c *core.Result) { c.Attrib.Issued++; c.Attrib.Counts.Useful++ }},
		{"conservation break", func(c *core.Result) { c.Attrib.Counts.Useful++ }},
		{"cancelled drift", func(c *core.Result) {
			c.Attrib.Counts.Cancelled++
			c.Attrib.Counts.Useful--
		}},
		{"fills partition break", func(c *core.Result) {
			c.Attrib.Counts.Redundant++
			c.Attrib.Counts.Useful--
		}},
		{"late overcount", func(c *core.Result) {
			c.Mem.PrefetchLates = 0
			c.Attrib.Counts.Late++
			c.Attrib.Counts.Useful--
		}},
		// Every conformance cell attaches the ledger, so a cell without a
		// summary lost it.
		{"missing summary", func(c *core.Result) { c.Attrib = nil }},
	}
	for _, tc := range corruptions {
		cp := *r
		s := *r.Attrib
		cp.Attrib = &s
		tc.mutate(&cp)
		if fs := collect(&cp); len(fs) == 0 {
			t.Errorf("%s: corruption passed reconciliation", tc.name)
		} else {
			for _, f := range fs {
				if f.Kind != "attrib" {
					t.Errorf("%s: failure kind %q, want attrib", tc.name, f.Kind)
				}
			}
		}
	}
}
