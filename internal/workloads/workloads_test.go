package workloads

import (
	"testing"

	"grp/internal/compiler"
	"grp/internal/lang"
	"grp/internal/mem"
	"grp/internal/progen"
)

func TestAllBuildValidateCompile(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			b := spec.Build(Test)
			if err := b.Prog.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			m := mem.New()
			prog, lay, _, err := compiler.CompileWorkload(b.Prog, m, compiler.PolicyDefault)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			b.Init(m, lay)
			if err := prog.Validate(); err != nil {
				t.Fatalf("compiled program invalid: %v", err)
			}
			if b.MaxInstrs == 0 {
				t.Error("MaxInstrs must be set")
			}
		})
	}
}

func TestParseFactor(t *testing.T) {
	for _, f := range []Factor{Test, Small, Full} {
		if got, err := ParseFactor(f.String()); err != nil || got != f {
			t.Errorf("ParseFactor(%q) = %v, %v", f.String(), got, err)
		}
	}
	for _, bad := range []string{"", "huge", "Test"} {
		if _, err := ParseFactor(bad); err == nil {
			t.Errorf("ParseFactor(%q) accepted", bad)
		}
	}
}

// TestRunOracle pins the budget rule and the runaway skip.
func TestRunOracle(t *testing.T) {
	w := progen.Generate(1, progen.Config{})
	o, err := RunOracle("gen1", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Steps <= 0 || o.Budget != uint64(o.Steps)*16+65536 {
		t.Errorf("steps %d, budget %d: want budget 16 × steps + 65536", o.Steps, o.Budget)
	}
	if b := o.Spec.Build(Full); o.Spec.Name != "gen1" || b.Prog != w.Prog || b.MaxInstrs != o.Budget {
		t.Errorf("spec %q wraps program %p with budget %d", o.Spec.Name, b.Prog, b.MaxInstrs)
	}
	if _, err := RunOracle("gen1", w, 1); err == nil {
		t.Error("a one-step bound did not stop the interpreter")
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("mcf"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
	if len(Names()) != 18 {
		t.Errorf("expected 18 benchmarks, got %d", len(Names()))
	}
}

// TestExpectedHintClasses asserts each proxy generates the hint classes the
// paper's Table 3 shows for its namesake.
func TestExpectedHintClasses(t *testing.T) {
	type expect struct {
		spatial, pointer, recursive, indirect bool
	}
	cases := map[string]expect{
		"gzip":    {spatial: true},
		"wupwise": {spatial: true},
		"swim":    {spatial: true},
		"mgrid":   {spatial: true},
		"applu":   {spatial: true},
		"vpr":     {spatial: true, indirect: true},
		"mesa":    {spatial: true, pointer: true},
		"art":     {spatial: true},
		"mcf":     {spatial: true, pointer: true, recursive: true},
		"equake":  {spatial: true, pointer: true},
		"ammp":    {pointer: true, recursive: true},
		"parser":  {spatial: true, pointer: true, recursive: true},
		"gap":     {spatial: true, pointer: true},
		"bzip2":   {spatial: true, indirect: true},
		"twolf":   {pointer: true, recursive: true},
		"apsi":    {spatial: true},
		"sphinx":  {spatial: true, pointer: true, recursive: true},
	}
	for name, want := range cases {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b := spec.Build(Test)
		m := mem.New()
		prog, _, _, err := compiler.CompileWorkload(b.Prog, m, compiler.PolicyDefault)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := prog.CountHints()
		if (h.Spatial > 0) != want.spatial {
			t.Errorf("%s: spatial hints = %d, want present=%v", name, h.Spatial, want.spatial)
		}
		if (h.Pointer > 0) != want.pointer {
			t.Errorf("%s: pointer hints = %d, want present=%v", name, h.Pointer, want.pointer)
		}
		if (h.Recursive > 0) != want.recursive {
			t.Errorf("%s: recursive hints = %d, want present=%v", name, h.Recursive, want.recursive)
		}
		if (h.Indirect > 0) != want.indirect {
			t.Errorf("%s: indirect instructions = %d, want present=%v", name, h.Indirect, want.indirect)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	spec, _ := ByName("twolf")
	sum := func() uint64 {
		b := spec.Build(Test)
		m := mem.New()
		_, lay, _, err := compiler.CompileWorkload(b.Prog, m, compiler.PolicyDefault)
		if err != nil {
			t.Fatal(err)
		}
		b.Init(m, lay)
		var s uint64
		start, end := m.HeapRange()
		for a := start; a < end && a < start+1<<16; a += 8 {
			s = s*31 + m.Read64(a)
		}
		return s
	}
	if sum() != sum() {
		t.Error("workload initialization is not deterministic")
	}
}

func TestRNG(t *testing.T) {
	r := newRNG(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[r.next()] = true
	}
	if len(seen) < 990 {
		t.Errorf("rng produced many duplicates: %d distinct", len(seen))
	}
	// perm is a permutation.
	p := newRNG(2).perm(100)
	mark := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || mark[v] {
			t.Fatal("perm is not a permutation")
		}
		mark[v] = true
	}
	// Zero seed is remapped, not a degenerate generator.
	z := newRNG(0)
	if z.next() == z.next() {
		t.Error("zero-seed rng degenerate")
	}
}

func TestFactors(t *testing.T) {
	if Test.String() != "test" || Small.String() != "small" || Full.String() != "full" {
		t.Error("factor strings")
	}
	// Larger factors mean larger programs (check one workload's footprint).
	spec, _ := ByName("wupwise")
	sizes := map[Factor]int64{}
	for _, f := range []Factor{Test, Full} {
		b := spec.Build(f)
		var total int64
		for _, a := range b.Prog.Arrays {
			total += a.Bytes()
		}
		sizes[f] = total
	}
	if sizes[Full] <= sizes[Test] {
		t.Errorf("Full should be larger than Test: %v", sizes)
	}
}

func TestCraftyExcluded(t *testing.T) {
	spec, _ := ByName("crafty")
	if !spec.Exclude {
		t.Error("crafty must be excluded from timing results, as in the paper")
	}
}

func TestLinkList(t *testing.T) {
	m := mem.New()
	st := m.Alloc(64, 8)
	nodes := []uint64{st, st + 16, st + 32}
	linkList(m, nodes, 8)
	if m.Read64(nodes[0]+8) != nodes[1] || m.Read64(nodes[1]+8) != nodes[2] {
		t.Error("links wrong")
	}
	if m.Read64(nodes[2]+8) != 0 {
		t.Error("last node should terminate")
	}
}

func TestAllocNodesShuffleAndGap(t *testing.T) {
	m := mem.New()
	st := mustStruct()
	r := newRNG(5)
	plain := allocNodes(m, st, 16, false, 0, r)
	for i := 1; i < len(plain); i++ {
		if plain[i] <= plain[i-1] {
			t.Fatal("unshuffled nodes should be ascending")
		}
	}
	m2 := mem.New()
	shuffled := allocNodes(m2, st, 64, true, 0, newRNG(5))
	asc := true
	for i := 1; i < len(shuffled); i++ {
		if shuffled[i] <= shuffled[i-1] {
			asc = false
		}
	}
	if asc {
		t.Error("shuffled nodes should not be in address order")
	}
	m3 := mem.New()
	gapped := allocNodes(m3, st, 4, false, 100, newRNG(5))
	if gapped[1]-gapped[0] < uint64(st.Size())+100 {
		t.Error("gap not applied")
	}
}

func mustStruct() *lang.StructT {
	return lang.NewStruct("n", lang.Field{Name: "v", Type: lang.I64})
}
