package compiler

import (
	"testing"

	"grp/internal/isa"
	"grp/internal/lang"
)

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{PolicyDefault, PolicyConservative, PolicyAggressive} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Error("ParsePolicy accepted yolo")
	}
}

// analyzeOne runs the analysis and returns the annotation for ref.
func analyzeOne(t *testing.T, p *lang.Program, pol Policy, ref lang.Expr) *HintInfo {
	t.Helper()
	an, err := Analyze(p, pol)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	h := an.Hints[ref]
	if h == nil {
		return &HintInfo{Coeff: isa.FixedRegion}
	}
	return h
}

// --- Table 2 representative patterns -------------------------------------

// TestTable2Spatial: the canonical spatial reference, a[i] in a loop over i
// (paper Table 2 row "spatial").
func TestTable2Spatial(t *testing.T) {
	a := &lang.Array{Name: "a", Elem: lang.I64, Dims: []int64{1024}}
	ref := lang.Ix(a, lang.S("i"))
	p := &lang.Program{
		Name: "t2spatial", Arrays: []*lang.Array{a}, Scalars: []string{"i", "s"},
		Body: []lang.Stmt{&lang.For{Var: "i", Lo: lang.C(0), Hi: lang.C(1024), Step: 1,
			Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}}}},
	}
	h := analyzeOne(t, p, PolicyDefault, ref)
	if !h.Spatial || h.Scope != "innermost" {
		t.Errorf("a[i] should be spatial(innermost): %+v", h)
	}
	if h.Pointer || h.Recursive {
		t.Errorf("a[i] should not get pointer hints: %+v", h)
	}
}

// TestTable2Size: a spatial reference in a leaf counted loop gets a size
// coefficient and the loop gets SETBOUND (paper Table 2 row "size").
func TestTable2Size(t *testing.T) {
	a := &lang.Array{Name: "a", Elem: lang.I64, Dims: []int64{4096}}
	ref := lang.Ix(a, lang.S("i"))
	loop := &lang.For{Var: "i", Lo: lang.C(0), Hi: lang.C(16), Step: 1,
		Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}}}
	p := &lang.Program{
		Name: "t2size", Arrays: []*lang.Array{a}, Scalars: []string{"i", "s"},
		Body: []lang.Stmt{loop},
	}
	an, err := Analyze(p, PolicyDefault)
	if err != nil {
		t.Fatal(err)
	}
	h := an.Hints[ref]
	if h == nil || !h.Spatial || h.Coeff == isa.FixedRegion {
		t.Fatalf("leaf-loop spatial ref should carry a size coefficient: %+v", h)
	}
	if h.Coeff != 3 { // byte stride 8 → 2^3
		t.Errorf("coeff = %d, want 3", h.Coeff)
	}
	if !an.SetBound[loop] {
		t.Error("loop should be marked for SETBOUND")
	}
}

// TestTable2Indirect: a[b[i]] gets an indirect annotation (paper Table 2
// row "indirect").
func TestTable2Indirect(t *testing.T) {
	b := &lang.Array{Name: "b", Elem: lang.I32, Dims: []int64{1024}}
	a := &lang.Array{Name: "a", Elem: lang.I64, Dims: []int64{4096}}
	inner := lang.Ix(b, lang.S("i"))
	ref := lang.Ix(a, inner)
	p := &lang.Program{
		Name: "t2ind", Arrays: []*lang.Array{b, a}, Scalars: []string{"i", "s"},
		Body: []lang.Stmt{&lang.For{Var: "i", Lo: lang.C(0), Hi: lang.C(1024), Step: 1,
			Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}}}},
	}
	h := analyzeOne(t, p, PolicyDefault, ref)
	if h.Indirect == nil {
		t.Fatalf("a[b[i]] should be indirect: %+v", h)
	}
	if h.Indirect.Inner != inner || h.Indirect.Base != a {
		t.Errorf("indirect info wrong: %+v", h.Indirect)
	}
	if h.Indirect.Shift != 3 { // scale 1 × elem 8 = 8 = 2^3
		t.Errorf("shift = %d, want 3", h.Indirect.Shift)
	}
	if h.Indirect.Guard != "i" {
		t.Errorf("guard = %q, want i", h.Indirect.Guard)
	}
}

// TestTable2Pointer: a field access whose structure has a pointer field
// accessed in the same loop gets the pointer hint (paper Table 2 row
// "pointer", Figure 8).
func TestTable2Pointer(t *testing.T) {
	st := lang.NewStruct("s", lang.Field{Name: "data", Type: lang.I64})
	st.Append("link", lang.PtrT{Elem: lang.I64})
	dataRef := &lang.FieldRef{Ptr: lang.S("p"), Struct: st, Field: "data"}
	linkRef := &lang.FieldRef{Ptr: lang.S("p"), Struct: st, Field: "link"}
	p := &lang.Program{
		Name: "t2ptr", Scalars: []string{"p", "s", "q"},
		Body: []lang.Stmt{&lang.While{Cond: lang.B(lang.Ne, lang.S("p"), lang.C(0)),
			Body: []lang.Stmt{
				&lang.Assign{Dst: lang.S("s"), Src: dataRef},
				&lang.Assign{Dst: lang.S("q"), Src: linkRef},
				&lang.Assign{Dst: lang.S("p"), Src: lang.C(0)},
			}}},
	}
	h := analyzeOne(t, p, PolicyDefault, dataRef)
	if !h.Pointer {
		t.Errorf("field access should be pointer-hinted: %+v", h)
	}
	if h.Recursive {
		t.Errorf("non-recurrent access should not be recursive: %+v", h)
	}
}

// TestTable2Recursive: p = p->next where next points to the same struct
// type gets the recursive hint (paper Table 2 row "recursive pointer",
// Figure 6).
func TestTable2Recursive(t *testing.T) {
	st := lang.NewStruct("t", lang.Field{Name: "f", Type: lang.I64})
	st.Append("next", lang.PtrT{Elem: st})
	nextRef := &lang.FieldRef{Ptr: lang.S("a"), Struct: st, Field: "next"}
	fRef := &lang.FieldRef{Ptr: lang.S("a"), Struct: st, Field: "f"}
	p := &lang.Program{
		Name: "t2rec", Scalars: []string{"a", "s"},
		Body: []lang.Stmt{&lang.While{Cond: lang.B(lang.Ne, lang.S("a"), lang.C(0)),
			Body: []lang.Stmt{
				&lang.Assign{Dst: lang.S("s"), Src: fRef},
				&lang.Assign{Dst: lang.S("a"), Src: nextRef},
			}}},
	}
	h := analyzeOne(t, p, PolicyDefault, nextRef)
	if !h.Recursive {
		t.Errorf("p=p->next load should be recursive: %+v", h)
	}
	hf := analyzeOne(t, p, PolicyDefault, fRef)
	if !hf.Pointer {
		t.Errorf("sibling field access should be pointer-hinted: %+v", hf)
	}
}

// TestInductionPointerSpatial: *p with p += c in a loop is spatial (paper
// Figure 5).
func TestInductionPointerSpatial(t *testing.T) {
	ref := &lang.Deref{Ptr: lang.S("p"), Elem: lang.I64}
	p := &lang.Program{
		Name: "indptr", Scalars: []string{"p", "s", "end"},
		Body: []lang.Stmt{&lang.While{Cond: lang.B(lang.Lt, lang.S("p"), lang.S("end")),
			Body: []lang.Stmt{
				&lang.Assign{Dst: lang.S("s"), Src: ref},
				&lang.Assign{Dst: lang.S("p"), Src: lang.B(lang.Add, lang.S("p"), lang.C(16))},
			}}},
	}
	h := analyzeOne(t, p, PolicyDefault, ref)
	if !h.Spatial {
		t.Errorf("*p with small induction step should be spatial: %+v", h)
	}
}

// TestInductionPointerLargeStepNotSpatial: a big stride defeats the hint.
func TestInductionPointerLargeStepNotSpatial(t *testing.T) {
	ref := &lang.Deref{Ptr: lang.S("p"), Elem: lang.I64}
	p := &lang.Program{
		Name: "indptrbig", Scalars: []string{"p", "s", "end"},
		Body: []lang.Stmt{&lang.While{Cond: lang.B(lang.Lt, lang.S("p"), lang.S("end")),
			Body: []lang.Stmt{
				&lang.Assign{Dst: lang.S("s"), Src: ref},
				&lang.Assign{Dst: lang.S("p"), Src: lang.B(lang.Add, lang.S("p"), lang.C(4096))},
			}}},
	}
	if h := analyzeOne(t, p, PolicyDefault, ref); h.Spatial {
		t.Errorf("*p with 4 KB steps should not be spatial: %+v", h)
	}
}

// TestHeapPointerArray: buf[i] over a heap array of pointers is both
// spatial and pointer (paper Figure 4 / Section 4.5).
func TestHeapPointerArray(t *testing.T) {
	buf := &lang.Array{Name: "buf", Elem: lang.PtrT{Elem: lang.I64}, Dims: []int64{512}, Heap: true}
	ref := lang.Ix(buf, lang.S("i"))
	p := &lang.Program{
		Name: "heaparr", Arrays: []*lang.Array{buf}, Scalars: []string{"i", "s"},
		Body: []lang.Stmt{&lang.For{Var: "i", Lo: lang.C(0), Hi: lang.C(512), Step: 1,
			Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}}}},
	}
	h := analyzeOne(t, p, PolicyDefault, ref)
	if !h.Spatial || !h.Pointer {
		t.Errorf("heap pointer array should be spatial+pointer: %+v", h)
	}
}

// TestSpatialPropagation: uses of a scalar loaded from a spatial reference
// become spatial with the minimal region coefficient (Figure 7 phase 2).
func TestSpatialPropagation(t *testing.T) {
	st := lang.NewStruct("node", lang.Field{Name: "v", Type: lang.I64})
	buf := &lang.Array{Name: "buf", Elem: lang.PtrT{Elem: st}, Dims: []int64{512}, Heap: true}
	use := &lang.FieldRef{Ptr: lang.S("q"), Struct: st, Field: "v"}
	p := &lang.Program{
		Name: "prop", Arrays: []*lang.Array{buf}, Scalars: []string{"i", "q", "s"},
		Body: []lang.Stmt{&lang.For{Var: "i", Lo: lang.C(0), Hi: lang.C(512), Step: 1,
			Body: []lang.Stmt{
				&lang.Assign{Dst: lang.S("q"), Src: lang.Ix(buf, lang.S("i"))},
				&lang.Assign{Dst: lang.S("s"), Src: use},
			}}},
	}
	h := analyzeOne(t, p, PolicyDefault, use)
	if !h.Spatial || h.Scope != "propagated" {
		t.Errorf("q->v should be propagated-spatial: %+v", h)
	}
	if h.Coeff != 0 {
		t.Errorf("propagated hint should request the minimum region, coeff=%d", h.Coeff)
	}
}

// --- policies -------------------------------------------------------------

// transposeProgram walks a[j][i] with j innermost: spatial reuse carried by
// the outer i loop, distance = n·64 bytes.
func transposeProgram(n int64) (*lang.Program, *lang.Index) {
	a := &lang.Array{Name: "a", Elem: lang.I64, Dims: []int64{n, n}}
	ref := lang.Ix(a, lang.S("j"), lang.S("i"))
	p := &lang.Program{
		Name: "transpose", Arrays: []*lang.Array{a}, Scalars: []string{"i", "j", "s"},
		Body: []lang.Stmt{&lang.For{Var: "i", Lo: lang.C(0), Hi: lang.C(n), Step: 1,
			Body: []lang.Stmt{&lang.For{Var: "j", Lo: lang.C(0), Hi: lang.C(n), Step: 1,
				Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}}}}}},
	}
	return p, ref
}

func TestPolicyTransposeSmall(t *testing.T) {
	// Distance 512·64 = 32 KB < L2: default and aggressive mark, the
	// conservative policy (innermost only) does not.
	p, ref := transposeProgram(512)
	if h := analyzeOne(t, p, PolicyDefault, ref); !h.Spatial || h.Scope != "outer" {
		t.Errorf("default should mark small transpose: %+v", h)
	}
	if h := analyzeOne(t, p, PolicyAggressive, ref); !h.Spatial {
		t.Errorf("aggressive should mark small transpose: %+v", h)
	}
	if h := analyzeOne(t, p, PolicyConservative, ref); h.Spatial {
		t.Errorf("conservative should not mark transpose: %+v", h)
	}
}

func TestPolicyTransposeHuge(t *testing.T) {
	// Distance 65536·64 = 4 MB > L2: only the aggressive policy marks.
	p, ref := transposeProgram(65536)
	if h := analyzeOne(t, p, PolicyDefault, ref); h.Spatial {
		t.Errorf("default should reject a > L2 reuse distance: %+v", h)
	}
	if h := analyzeOne(t, p, PolicyAggressive, ref); !h.Spatial {
		t.Errorf("aggressive should mark regardless of distance: %+v", h)
	}
}

func TestPolicyUnknownBound(t *testing.T) {
	// Symbolic loop bound: reuse distance unknown; default falls back to
	// conservative, aggressive still marks (Section 4.1).
	a := &lang.Array{Name: "a", Elem: lang.I64, Dims: []int64{1 << 16, 64}}
	ref := lang.Ix(a, lang.S("j"), lang.S("i"))
	p := &lang.Program{
		Name: "symbound", Arrays: []*lang.Array{a}, Scalars: []string{"i", "j", "s", "nv"},
		Body: []lang.Stmt{&lang.For{Var: "i", Lo: lang.C(0), Hi: lang.C(64), Step: 1,
			Body: []lang.Stmt{&lang.For{Var: "j", Lo: lang.C(0), Hi: lang.S("nv"), Step: 1,
				Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}}}}}},
	}
	if h := analyzeOne(t, p, PolicyDefault, ref); h.Spatial {
		t.Errorf("default should reject unknown distance: %+v", h)
	}
	if h := analyzeOne(t, p, PolicyAggressive, ref); !h.Spatial {
		t.Errorf("aggressive should mark unknown distance: %+v", h)
	}
}

// TestContiguousNestKeepsFixedRegions: a dense a[i][j] nest must not get
// a variable-size coefficient (contiguity check).
func TestContiguousNestKeepsFixedRegions(t *testing.T) {
	a := &lang.Array{Name: "a", Elem: lang.I64, Dims: []int64{256, 256}}
	ref := lang.Ix(a, lang.S("i"), lang.S("j"))
	p := &lang.Program{
		Name: "dense", Arrays: []*lang.Array{a}, Scalars: []string{"i", "j", "s"},
		Body: []lang.Stmt{&lang.For{Var: "i", Lo: lang.C(0), Hi: lang.C(256), Step: 1,
			Body: []lang.Stmt{&lang.For{Var: "j", Lo: lang.C(0), Hi: lang.C(256), Step: 1,
				Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}}}}}},
	}
	h := analyzeOne(t, p, PolicyDefault, ref)
	if !h.Spatial {
		t.Fatalf("dense ref should be spatial: %+v", h)
	}
	if h.Coeff != isa.FixedRegion {
		t.Errorf("dense nest should keep fixed regions, coeff=%d", h.Coeff)
	}
}

// TestScatteredBurstsGetVariableRegions: short bursts at strided bases do
// get a coefficient (the bzip2 pattern of Table 4).
func TestScatteredBurstsGetVariableRegions(t *testing.T) {
	a := &lang.Array{Name: "a", Elem: lang.I64, Dims: []int64{1 << 16}}
	ref := lang.Ix(a, lang.S("j"))
	p := &lang.Program{
		Name: "bursts", Arrays: []*lang.Array{a}, Scalars: []string{"g", "j", "s"},
		Body: []lang.Stmt{&lang.For{Var: "g", Lo: lang.C(0), Hi: lang.C(512), Step: 1,
			Body: []lang.Stmt{&lang.For{Var: "j",
				Lo:   lang.B(lang.Mul, lang.S("g"), lang.C(128)),
				Hi:   lang.B(lang.Add, lang.B(lang.Mul, lang.S("g"), lang.C(128)), lang.C(8)),
				Step: 1,
				Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}}}}}},
	}
	h := analyzeOne(t, p, PolicyDefault, ref)
	if !h.Spatial {
		t.Fatalf("burst ref should be spatial: %+v", h)
	}
	if h.Coeff == isa.FixedRegion || h.Coeff == 0 {
		t.Errorf("scattered bursts should carry a real size coefficient, got %d", h.Coeff)
	}
}

// TestMarksOnlyLoopRefs: references outside loops are never marked.
func TestMarksOnlyLoopRefs(t *testing.T) {
	a := &lang.Array{Name: "a", Elem: lang.I64, Dims: []int64{64}}
	ref := lang.Ix(a, lang.C(3))
	p := &lang.Program{
		Name: "noloop", Arrays: []*lang.Array{a}, Scalars: []string{"s"},
		Body: []lang.Stmt{&lang.Assign{Dst: lang.S("s"), Src: ref}},
	}
	an, err := Analyze(p, PolicyAggressive)
	if err != nil {
		t.Fatal(err)
	}
	if h := an.Hints[ref]; h != nil && (h.Spatial || h.Pointer) {
		t.Errorf("out-of-loop ref should be unmarked: %+v", h)
	}
}

func TestDescribeRendering(t *testing.T) {
	st := lang.NewStruct("t", lang.Field{Name: "f", Type: lang.I64})
	st.Append("next", lang.PtrT{Elem: st})
	nextRef := &lang.FieldRef{Ptr: lang.S("a"), Struct: st, Field: "next"}
	p := &lang.Program{
		Name: "desc", Scalars: []string{"a"},
		Body: []lang.Stmt{&lang.While{Cond: lang.B(lang.Ne, lang.S("a"), lang.C(0)),
			Body: []lang.Stmt{&lang.Assign{Dst: lang.S("a"), Src: nextRef}}}},
	}
	an, err := Analyze(p, PolicyDefault)
	if err != nil {
		t.Fatal(err)
	}
	s := an.Describe()
	if s == "" {
		t.Error("Describe should render the recursive hint")
	}
}
