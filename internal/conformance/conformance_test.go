package conformance

import (
	"strings"
	"testing"

	"grp/internal/core"
	"grp/internal/mem"
	"grp/internal/prefetch"
)

// lightVariants returns the light fault preset as a variant list.
func lightVariants(t *testing.T) []Variant {
	t.Helper()
	vs, err := ParseVariants("light")
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestConformanceClean runs a small campaign over every default scheme plus
// the light fault preset and expects zero failures: the simulator conforms
// to the oracle on generated programs.
func TestConformanceClean(t *testing.T) {
	rep, err := Run(Config{N: 8, Seed: 1, Jobs: 4, Variants: lightVariants(t)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("conformance failures:\n%s", rep.Summary())
	}
	for _, p := range rep.Programs {
		if p.Skipped {
			continue
		}
		// Every program runs the perfect-L2 reference plus schemes x
		// (fault-free + light).
		want := 1 + len(DefaultSchemes())*2
		if p.Cells != want {
			t.Fatalf("seed %d ran %d cells, want %d", p.Seed, p.Cells, want)
		}
	}
}

// TestConformanceDeterministic checks the report text is byte-identical
// across worker counts: parallelism must not reorder anything observable.
func TestConformanceDeterministic(t *testing.T) {
	cfg := Config{N: 6, Seed: 11, Variants: lightVariants(t)}
	cfg.Jobs = 1
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Jobs = 4
	r4, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1, s4 := r1.Summary(), r4.Summary(); s1 != s4 {
		t.Fatalf("summary differs between jobs=1 and jobs=4:\n%s\nvs\n%s", s1, s4)
	}
}

// corruptFill is the known-bad mutation: it flips bits in the functional
// image of every prefetch-filled block, so any scheme that issues a
// prefetch diverges from the oracle while no-prefetch schemes stay clean.
func corruptFill(m *mem.Memory, block uint64) {
	m.Write64(block, m.Read64(block)^0xdeadbeef)
}

// TestTamperCaught checks the harness detects the seeded known-bad
// mutation: prefetching schemes must report oracle divergence, and the
// no-prefetch baseline must stay clean (its fills are all demand fills).
// The timing relations still run under the tamper: the ideal port once
// per program and the idle co-runner on every cell that matched the
// oracle, since a co-run's core 0 carries the tamper as a solo run does.
func TestTamperCaught(t *testing.T) {
	rep, err := Run(Config{N: 2, Seed: 1, Tamper: corruptFill})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("tampered prefetch fills went undetected:\n%s", rep.Summary())
	}
	var prefetching int
	for _, f := range rep.Failures() {
		if f.Scheme == core.NoPrefetch || f.Scheme == core.PerfectL2 {
			t.Fatalf("non-prefetching scheme failed under fill tamper: %s", f)
		}
		if f.Kind != "oracle-divergence" {
			t.Fatalf("unexpected failure kind under fill tamper: %s", f)
		}
		prefetching++
	}
	if prefetching == 0 {
		t.Fatal("no prefetching scheme reported divergence")
	}
	for _, p := range rep.Programs {
		if want := 1 + len(DefaultSchemes()) - len(p.Failures); !p.Skipped && p.Relations != want {
			t.Errorf("seed %d ran %d relation runs under the tamper, want %d (ideal port + %d clean cells)",
				p.Seed, p.Relations, want, want-1)
		}
	}
}

// TestTamperedLadderCaught is the adaptive-scheme known-bad self-test: a
// transition function that walks the aggressiveness ladder off its rungs
// models a broken adaptivity implementation. The engine must survive
// (parameters clamp, so no panic and no oracle divergence — the bug is
// timing-internal) and the harness's always-on invariant checking must
// flag every program whose run closes an epoch.
func TestTamperedLadderCaught(t *testing.T) {
	prefetch.SetLadderTamper(func(from, to prefetch.LadderState) prefetch.LadderState {
		return prefetch.NumLadderStates + 7 // off the ladder
	})
	defer prefetch.SetLadderTamper(nil)
	rep, err := Run(Config{N: 10, Seed: 1, Schemes: []core.Scheme{core.GRPAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("tampered ladder transition went undetected:\n%s", rep.Summary())
	}
	for _, f := range rep.Failures() {
		if f.Scheme != core.GRPAdaptive {
			t.Fatalf("non-adaptive scheme failed under ladder tamper: %s", f)
		}
		if f.Kind != "run-error" {
			t.Fatalf("unexpected failure kind under ladder tamper: %s", f)
		}
		if !strings.Contains(f.Detail, "ladder") {
			t.Fatalf("failure does not name the ladder invariant: %s", f)
		}
	}
	// And the same fleet with the tamper removed is clean — the failures
	// above are the tamper's, not the scheme's.
	prefetch.SetLadderTamper(nil)
	rep, err = Run(Config{N: 10, Seed: 1, Schemes: []core.Scheme{core.GRPAdaptive}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("untampered grp-adaptive fleet failed:\n%s", rep.Summary())
	}
}

// TestTamperShrink checks the shrinker reduces a tampered failure to the
// issue's reproducer budget: at most 20 static instructions, still failing.
func TestTamperShrink(t *testing.T) {
	cfg := Config{
		Seed:    1,
		Schemes: []core.Scheme{core.GRPVar},
		Tamper:  corruptFill,
	}
	sr, err := Shrink(cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Failures) == 0 {
		t.Fatal("shrunk program has no recorded failures")
	}
	if sr.Instrs > 20 {
		t.Fatalf("shrunk reproducer has %d static instructions (> 20):\n%s",
			sr.Instrs, sr.Prog.String())
	}
	src := sr.Prog.String()
	if !strings.Contains(src, "for") && !strings.Contains(src, "while") {
		t.Logf("note: shrunk reproducer has no loop:\n%s", src)
	}
}

// TestParseSchemes pins the alias handling shared with the campaign
// grammar.
func TestParseSchemes(t *testing.T) {
	got, err := ParseSchemes("NoPF, grpvar ,srp")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Scheme{core.NoPrefetch, core.GRPVar, core.SRP}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := ParseSchemes("swizzle"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	all, err := ParseSchemes("all")
	if err != nil || len(all) != len(DefaultSchemes()) {
		t.Fatalf("all -> %v, %v", all, err)
	}
}

// TestParseVariants pins the semicolon-separated fault grammar.
func TestParseVariants(t *testing.T) {
	vs, err := ParseVariants("light; heavy")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Name != "light" || vs[1].Name != "heavy" {
		t.Fatalf("got %+v", vs)
	}
	if vs[0].Plan == nil || vs[1].Plan == nil {
		t.Fatal("nil plan in parsed variant")
	}
	none, err := ParseVariants("none")
	if err != nil || none != nil {
		t.Fatalf("none -> %v, %v", none, err)
	}
	if _, err := ParseVariants("lr.rate=bogus"); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}
