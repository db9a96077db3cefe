package compiler

import (
	"fmt"
	"sort"

	"grp/internal/isa"
	"grp/internal/lang"
)

// Policy selects the spatial-marking aggressiveness (paper Section 5.4).
type Policy int

// Policies.
const (
	// PolicyDefault marks a reference spatial when its reuse lies in the
	// innermost enclosing loop, or when a computable reuse distance is
	// below the L2 capacity.
	PolicyDefault Policy = iota
	// PolicyConservative marks a reference spatial only when its reuse
	// lies in the innermost enclosing loop.
	PolicyConservative
	// PolicyAggressive marks a reference spatial even when its reuse
	// distance exceeds the L2 capacity or is unknown.
	PolicyAggressive
)

func (p Policy) String() string {
	switch p {
	case PolicyConservative:
		return "conservative"
	case PolicyAggressive:
		return "aggressive"
	default:
		return "default"
	}
}

// ParsePolicy resolves a policy name as printed by String.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range []Policy{PolicyDefault, PolicyConservative, PolicyAggressive} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("compiler: unknown policy %q (want default, conservative, aggressive)", s)
}

// Analysis tunables; these mirror the simulated hardware (Section 5.1).
const (
	// SpatialStrideMax is the largest byte stride treated as having
	// spatial locality (one cache block).
	SpatialStrideMax = 64
	// L2Capacity bounds the reuse distance the compiler will mark
	// (Section 4.1: "we use the level 2 cache size as our upper bound").
	L2Capacity = 1 << 20
	// InductionStepMax is the largest pointer-induction step treated as
	// spatial ("if constant c is small", Section 4.2).
	InductionStepMax = 64
)

// HintInfo is the annotation the analysis attaches to one memory
// reference.
type HintInfo struct {
	Spatial   bool
	Pointer   bool
	Recursive bool
	// Scope records why the reference is spatial: "innermost", "outer",
	// or "" when not spatial; diagnostics only.
	Scope string
	// Coeff is the 3-bit variable-region-size coefficient
	// (isa.FixedRegion when the reference uses fixed-size regions).
	Coeff uint8
	// StrideBytes is the reference's byte stride per iteration of its
	// innermost loop, when the reference is spatial there (0 otherwise).
	// The software-prefetching backend uses it to compute lookahead
	// distances.
	StrideBytes int64
	// Indirect is set on indirect array references a[s*b(i)+e].
	Indirect *IndirectInfo
}

// Hint renders the annotation as ISA hint bits.
func (h *HintInfo) Hint() isa.Hint {
	var v isa.Hint
	if h.Spatial {
		v |= isa.HintSpatial
	}
	if h.Pointer {
		v |= isa.HintPointer
	}
	if h.Recursive {
		v |= isa.HintRecursive
	}
	return v
}

// IndirectInfo describes an indirect array reference a[s*b(i)+e] for which
// the compiler emits a PREFI instruction (Section 4.3): the indexing
// reference b(i), the data array a, the byte offset of the effective base
// (the reference's address with the indirect term zeroed), and
// log2(s · stride · elemsize), the scaling shift the hardware applies.
type IndirectInfo struct {
	Inner *lang.Index
	Base  *lang.Array
	// BaseOffset is a source-language expression for the byte offset of
	// the effective base address within Base.
	BaseOffset lang.Expr
	Shift      uint
	// Guard, when non-nil, is the loop variable to guard PREFI emission on
	// ((var & 15) == 0), so one instruction covers a block of indices.
	Guard string
}

// Annotations is the analysis result consumed by code generation.
type Annotations struct {
	Policy Policy
	// Hints maps memory-reference expression nodes to their annotations.
	Hints map[lang.Expr]*HintInfo
	// SetBound lists loops that need a SETBOUND instruction at entry for
	// variable-size region prefetching.
	SetBound map[*lang.For]bool
}

// hintFor returns (creating if needed) the annotation for ref.
func (an *Annotations) hintFor(ref lang.Expr) *HintInfo {
	h := an.Hints[ref]
	if h == nil {
		h = &HintInfo{Coeff: isa.FixedRegion}
		an.Hints[ref] = h
	}
	return h
}

// ----------------------------------------------------------- loop tree --

type loopInfo struct {
	forStmt   *lang.For
	whileStmt *lang.While
	parent    *loopInfo
	children  []*loopInfo
	depth     int   // 1 = outermost
	trip      int64 // iteration count, -1 unknown
	assigned  map[string]bool
	// indPtr maps recognized induction-pointer scalars to their byte step.
	indPtr map[string]int64
	// spatialScalars are scalars assigned from spatially marked loads in
	// this loop (Figure 7's propagation phase).
	spatialScalars map[string]bool
	refs           []*refSite // refs whose innermost loop is this one
}

func (l *loopInfo) root() *loopInfo {
	c := l
	for c.parent != nil {
		c = c.parent
	}
	return c
}

// innermostFor returns the innermost enclosing counted loop (possibly l).
func (l *loopInfo) innermostFor() *loopInfo {
	for c := l; c != nil; c = c.parent {
		if c.forStmt != nil {
			return c
		}
	}
	return nil
}

type refSite struct {
	e     lang.Expr
	loop  *loopInfo
	store bool
}

// analyzer carries state across passes.
type analyzer struct {
	prog   *lang.Program
	policy Policy
	an     *Annotations

	loops []*loopInfo // all loops, outer before inner
	refs  []*refSite  // all reference sites in loops
	// scalarDefs maps scalar name -> the refs assigned into it, per loop.
	scalarLoads map[*loopInfo]map[string][]lang.Expr
}

// Analyze runs every hint analysis over the program and returns the
// annotations. The program must Validate.
func Analyze(p *lang.Program, policy Policy) (*Annotations, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	a := &analyzer{
		prog:   p,
		policy: policy,
		an: &Annotations{
			Policy:   policy,
			Hints:    map[lang.Expr]*HintInfo{},
			SetBound: map[*lang.For]bool{},
		},
		scalarLoads: map[*loopInfo]map[string][]lang.Expr{},
	}
	a.buildLoopTree(p.Body, nil)
	a.recognizeInductionPointers()
	a.generateSpatialHints() // Figure 7
	a.generatePointerHints() // Figure 8
	a.detectIndirect()       // Section 4.3
	a.variableRegionSizes()  // Section 4.4
	return a.an, nil
}

// ----------------------------------------------------- tree construction --

func (a *analyzer) buildLoopTree(ss []lang.Stmt, parent *loopInfo) {
	for _, s := range ss {
		switch n := s.(type) {
		case *lang.For:
			li := a.newLoop(parent)
			li.forStmt = n
			li.trip = tripCount(n)
			a.collectStmts(n.Body, li)
		case *lang.While:
			li := a.newLoop(parent)
			li.whileStmt = n
			li.trip = -1
			a.collectExpr(n.Cond, li, false)
			a.collectStmts(n.Body, li)
		case *lang.If:
			a.collectExpr(n.Cond, parent, false)
			a.buildLoopTree(n.Then, parent)
			a.buildLoopTree(n.Else, parent)
		case *lang.Assign:
			a.collectAssign(n, parent)
		}
	}
}

func (a *analyzer) newLoop(parent *loopInfo) *loopInfo {
	li := &loopInfo{
		parent:         parent,
		depth:          1,
		assigned:       map[string]bool{},
		indPtr:         map[string]int64{},
		spatialScalars: map[string]bool{},
	}
	if parent != nil {
		li.depth = parent.depth + 1
		parent.children = append(parent.children, li)
	}
	a.loops = append(a.loops, li)
	return li
}

// collectStmts records refs and assignments inside loop li.
func (a *analyzer) collectStmts(ss []lang.Stmt, li *loopInfo) {
	for _, s := range ss {
		switch n := s.(type) {
		case *lang.For:
			inner := a.newLoop(li)
			inner.forStmt = n
			inner.trip = tripCount(n)
			a.markAssigned(li, n.Var)
			a.collectStmts(n.Body, inner)
		case *lang.While:
			inner := a.newLoop(li)
			inner.whileStmt = n
			inner.trip = -1
			a.collectExpr(n.Cond, inner, false)
			a.collectStmts(n.Body, inner)
		case *lang.If:
			a.collectExpr(n.Cond, li, false)
			a.collectStmts(n.Then, li)
			a.collectStmts(n.Else, li)
		case *lang.Assign:
			a.collectAssign(n, li)
		}
	}
}

func (a *analyzer) collectAssign(n *lang.Assign, li *loopInfo) {
	// Destination.
	switch d := n.Dst.(type) {
	case *lang.Scalar:
		if li != nil {
			a.markAssigned(li, d.Name)
			if ld, ok := memRef(n.Src); ok {
				m := a.scalarLoads[li]
				if m == nil {
					m = map[string][]lang.Expr{}
					a.scalarLoads[li] = m
				}
				m[d.Name] = append(m[d.Name], ld)
			}
		}
	default:
		a.collectExpr(n.Dst, li, true)
	}
	a.collectExpr(n.Src, li, false)
}

func (a *analyzer) markAssigned(li *loopInfo, name string) {
	for c := li; c != nil; c = c.parent {
		c.assigned[name] = true
	}
}

// collectExpr registers all memory references within e.
func (a *analyzer) collectExpr(e lang.Expr, li *loopInfo, store bool) {
	if e == nil {
		return
	}
	switch n := e.(type) {
	case *lang.Const, *lang.Scalar:
	case *lang.Bin:
		a.collectExpr(n.L, li, false)
		a.collectExpr(n.R, li, false)
	case *lang.Index:
		a.addRef(n, li, store)
		for _, ix := range n.Idx {
			a.collectExpr(ix, li, false)
		}
	case *lang.AddrOf:
		for _, ix := range n.Idx {
			a.collectExpr(ix, li, false)
		}
	case *lang.PtrIndex:
		a.addRef(n, li, store)
		a.collectExpr(n.Ptr, li, false)
		a.collectExpr(n.Idx, li, false)
	case *lang.FieldRef:
		a.addRef(n, li, store)
		a.collectExpr(n.Ptr, li, false)
	case *lang.Deref:
		a.addRef(n, li, store)
		a.collectExpr(n.Ptr, li, false)
	}
}

func (a *analyzer) addRef(e lang.Expr, li *loopInfo, store bool) {
	if li == nil {
		return // the analysis marks only references enclosed in loops
	}
	r := &refSite{e: e, loop: li, store: store}
	li.refs = append(li.refs, r)
	a.refs = append(a.refs, r)
}

// memRef returns e if it is a memory-reference node.
func memRef(e lang.Expr) (lang.Expr, bool) {
	switch e.(type) {
	case *lang.Index, *lang.PtrIndex, *lang.FieldRef, *lang.Deref:
		return e, true
	}
	return nil, false
}

func tripCount(f *lang.For) int64 {
	lo, okLo := f.Lo.(*lang.Const)
	hi, okHi := f.Hi.(*lang.Const)
	if !okLo || !okHi || f.Step <= 0 {
		return -1
	}
	n := hi.V - lo.V
	if n <= 0 {
		return 0
	}
	return (n + f.Step - 1) / f.Step
}

// ------------------------------------- induction pointer recognition (4.2) --

// recognizeInductionPointers finds scalars updated p = p ± c once per loop,
// used as pointers, and records their byte step; it also notes recursive
// pointer updates p = p->f for Figure 8.
func (a *analyzer) recognizeInductionPointers() {
	for _, li := range a.loops {
		body := a.loopBody(li)
		scan(body, func(s lang.Stmt) {
			as, ok := s.(*lang.Assign)
			if !ok {
				return
			}
			dst, ok := as.Dst.(*lang.Scalar)
			if !ok {
				return
			}
			// p = p + c (or p - c): pointer induction.
			if b, ok := as.Src.(*lang.Bin); ok && (b.Op == lang.Add || b.Op == lang.Sub) {
				if l, ok := b.L.(*lang.Scalar); ok && l.Name == dst.Name {
					if c, ok := b.R.(*lang.Const); ok {
						step := c.V
						if b.Op == lang.Sub {
							step = -step
						}
						li.indPtr[dst.Name] = step
					}
				}
			}
			// p = p->f where f has type *struct(p): recursive update.
			if fr, ok := as.Src.(*lang.FieldRef); ok {
				if base, ok := fr.Ptr.(*lang.Scalar); ok && base.Name == dst.Name {
					f := fr.Struct.FieldByName(fr.Field)
					if pt, ok := f.Type.(lang.PtrT); ok {
						if st, ok := pt.Elem.(*lang.StructT); ok && st == fr.Struct {
							h := a.an.hintFor(fr)
							h.Recursive = true
						}
					}
				}
			}
		})
	}
}

// loopBody returns the loop's statement list.
func (a *analyzer) loopBody(li *loopInfo) []lang.Stmt {
	if li.forStmt != nil {
		return li.forStmt.Body
	}
	return li.whileStmt.Body
}

// scan visits every statement in ss, without descending into nested loops
// (each loop is visited through its own loopInfo).
func scan(ss []lang.Stmt, f func(lang.Stmt)) {
	for _, s := range ss {
		f(s)
		switch n := s.(type) {
		case *lang.If:
			scan(n.Then, f)
			scan(n.Else, f)
		}
	}
}

// -------------------------------------------- spatial hints (Figure 7) --

func (a *analyzer) generateSpatialHints() {
	for _, r := range a.refs {
		switch n := r.e.(type) {
		case *lang.Index:
			a.spatialForIndex(r, n)
		case *lang.Deref:
			a.spatialForPointerUse(r, n.Ptr)
		case *lang.FieldRef:
			a.spatialForPointerUse(r, n.Ptr)
		case *lang.PtrIndex:
			a.spatialForPtrIndex(r, n)
		}
	}
	a.propagateSpatial()
}

// env builds the affine environment for a reference in loop li.
func (a *analyzer) env(li *loopInfo) affineEnv {
	ind := map[string]bool{}
	for c := li; c != nil; c = c.parent {
		if c.forStmt != nil {
			ind[c.forStmt.Var] = true
		}
	}
	root := li.root()
	return affineEnv{
		induction: ind,
		invariant: func(name string) bool { return !root.assigned[name] },
	}
}

// spatialForIndex implements the array half of Figure 7: dependence-based
// spatial-reuse detection with reuse-distance estimation.
func (a *analyzer) spatialForIndex(r *refSite, ix *lang.Index) {
	env := a.env(r.loop)
	off := byteOffset(ix, env)
	if !off.ok {
		return // non-affine; possibly an indirect reference (Section 4.3)
	}
	// Walk enclosing counted loops from innermost outward. The innermost
	// loop with a small nonzero stride carries the spatial reuse; when
	// that loop is not the innermost enclosing one (transpose-style
	// access), the reuse distance and policy decide whether to mark.
	first := true
	for li := r.loop.innermostFor(); li != nil; li = li.parent.innermostForOrNil() {
		v := li.forStmt.Var
		s := off.stride(v) * li.forStmt.Step
		if s < 0 {
			s = -s
		}
		isInnermost := first
		first = false
		if s == 0 || s > SpatialStrideMax {
			continue
		}
		if isInnermost {
			h := a.an.hintFor(ix)
			h.Spatial = true
			h.Scope = "innermost"
			h.StrideBytes = s
			return
		}
		// Spatial reuse carried by an outer loop: decide by policy and
		// reuse distance (bytes touched per iteration of li).
		switch a.policy {
		case PolicyConservative:
			return
		case PolicyAggressive:
			h := a.an.hintFor(ix)
			h.Spatial = true
			h.Scope = "outer"
			return
		default:
			if d := a.reuseDistance(r, li); d >= 0 && d <= L2Capacity {
				h := a.an.hintFor(ix)
				h.Spatial = true
				h.Scope = "outer"
			}
			return
		}
	}
}

// innermostForOrNil is a nil-safe helper.
func (l *loopInfo) innermostForOrNil() *loopInfo {
	if l == nil {
		return nil
	}
	return l.innermostFor()
}

// reuseDistance estimates the bytes touched by one iteration of loop li
// (the loop carrying the spatial reuse), i.e. the volume between
// consecutive touches of the same cache block. -1 means unknown.
func (a *analyzer) reuseDistance(_ *refSite, li *loopInfo) int64 {
	inside := func(l *loopInfo) bool {
		for c := l; c != nil; c = c.parent {
			if c == li {
				return true
			}
		}
		return false
	}
	var total int64
	for _, r := range a.refs {
		if !inside(r.loop) {
			continue
		}
		b := a.refFootprint(r, li)
		if b < 0 {
			return -1
		}
		total += b
		if total > 4*L2Capacity {
			return total // already beyond any threshold; stop growing
		}
	}
	return total
}

// refFootprint estimates the bytes ref r touches during one iteration of
// enclosing loop outer. -1 means unknown.
func (a *analyzer) refFootprint(r *refSite, outer *loopInfo) int64 {
	elem := refElemSize(r.e)
	env := a.env(r.loop)
	var off affine
	if ix, ok := r.e.(*lang.Index); ok {
		off = byteOffset(ix, env)
	} else {
		// Pointer-based refs: assume they advance with their loop.
		off = affine{ok: false}
	}
	elems := int64(1)
	minStride := int64(1 << 30)
	for li := r.loop; li != nil && li != outer; li = li.parent {
		if li.forStmt == nil {
			return -1 // while loop with unknown trip count
		}
		v := li.forStmt.Var
		var s int64
		if off.ok {
			s = off.stride(v) * li.forStmt.Step
		} else {
			s = elem // pointer walk: assume element-sized steps
		}
		if s < 0 {
			s = -s
		}
		if s == 0 {
			continue // invariant in this loop
		}
		if li.trip < 0 {
			return -1
		}
		elems *= li.trip
		if s < minStride {
			minStride = s
		}
	}
	if minStride > SpatialStrideMax {
		minStride = SpatialStrideMax // distinct blocks dominate
	}
	if minStride < elem {
		minStride = elem
	}
	if minStride == 1<<30 {
		minStride = elem
	}
	return elems * minStride
}

func refElemSize(e lang.Expr) int64 {
	switch n := e.(type) {
	case *lang.Index:
		return n.Arr.Elem.Size()
	case *lang.PtrIndex:
		return n.Elem.Size()
	case *lang.FieldRef:
		return n.Struct.FieldByName(n.Field).Type.Size()
	case *lang.Deref:
		return n.Elem.Size()
	}
	return 8
}

// spatialForPointerUse marks *p and p->f spatial when p is a recognized
// loop induction pointer with a small constant step (Figure 5 and the
// first phase of Figure 7).
func (a *analyzer) spatialForPointerUse(r *refSite, ptr lang.Expr) {
	sc, ok := ptr.(*lang.Scalar)
	if !ok {
		return
	}
	for li := r.loop; li != nil; li = li.parent {
		if step, ok := li.indPtr[sc.Name]; ok {
			if step < 0 {
				step = -step
			}
			if step > 0 && step <= InductionStepMax {
				h := a.an.hintFor(r.e)
				h.Spatial = true
				h.Scope = "innermost"
			}
			return
		}
	}
}

// spatialForPtrIndex handles buf[i][j]-style accesses through a loaded
// pointer (paper Figure 4): the access is spatial when the subscript is
// affine with a small stride in the innermost loop and the pointer itself
// does not change with that loop.
func (a *analyzer) spatialForPtrIndex(r *refSite, pi *lang.PtrIndex) {
	inner := r.loop.innermostFor()
	if inner == nil {
		return
	}
	env := a.env(r.loop)
	off := affineOf(pi.Idx, env).scale(pi.Elem.Size())
	if !off.ok {
		return
	}
	v := inner.forStmt.Var
	s := off.stride(v) * inner.forStmt.Step
	if s < 0 {
		s = -s
	}
	if s == 0 || s > SpatialStrideMax {
		return
	}
	if usesVar(pi.Ptr, v) {
		return // the base pointer moves with the loop; not a simple stream
	}
	h := a.an.hintFor(pi)
	h.Spatial = true
	h.Scope = "innermost"
	h.StrideBytes = s
	// Also handle induction-pointer bases p[i] via the pointer rule.
	a.spatialForPointerUse(r, pi.Ptr)
}

// propagateSpatial is the second phase of Figure 7: uses of scalars loaded
// from spatially marked references become spatial, iterating to fixpoint.
func (a *analyzer) propagateSpatial() {
	for {
		changed := false
		for _, li := range a.loops {
			loads := a.scalarLoads[li]
			for name, srcs := range loads {
				if li.spatialScalars[name] {
					continue
				}
				for _, src := range srcs {
					if h := a.an.Hints[src]; h != nil && h.Spatial {
						li.spatialScalars[name] = true
						changed = true
						break
					}
				}
			}
		}
		for _, r := range a.refs {
			var ptr lang.Expr
			switch n := r.e.(type) {
			case *lang.FieldRef:
				ptr = n.Ptr
			case *lang.Deref:
				ptr = n.Ptr
			case *lang.PtrIndex:
				ptr = n.Ptr
			default:
				continue
			}
			sc, ok := ptr.(*lang.Scalar)
			if !ok {
				continue
			}
			marked := false
			for li := r.loop; li != nil; li = li.parent {
				if li.spatialScalars[sc.Name] {
					marked = true
					break
				}
			}
			if !marked {
				continue
			}
			h := a.an.hintFor(r.e)
			if !h.Spatial {
				h.Spatial = true
				h.Scope = "propagated"
				// Propagated locality is speculative — the pointer target's
				// neighborhood, not a proven affine stream — so the
				// compiler requests the minimum region size rather than a
				// full 4 KB region (cf. the paper's sphinx discussion in
				// Section 5.2: "the compiler cannot guarantee that there
				// is spatial locality, so it chooses small prefetch
				// regions").
				h.Coeff = 0
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// ---------------------------------------------- pointer hints (Figure 8) --

func (a *analyzer) generatePointerHints() {
	// Field accesses: mark pointer when a pointer field of the same
	// structure is accessed in the same loop.
	for _, li := range a.loops {
		// Which struct types have a pointer field accessed in this loop?
		ptrStructs := map[*lang.StructT]bool{}
		for _, r := range li.refs {
			fr, ok := r.e.(*lang.FieldRef)
			if !ok {
				continue
			}
			f := fr.Struct.FieldByName(fr.Field)
			if _, isPtr := f.Type.(lang.PtrT); isPtr {
				ptrStructs[fr.Struct] = true
			}
		}
		if len(ptrStructs) == 0 {
			continue
		}
		for _, r := range li.refs {
			fr, ok := r.e.(*lang.FieldRef)
			if !ok || r.store {
				continue
			}
			if ptrStructs[fr.Struct] {
				a.an.hintFor(fr).Pointer = true
			}
		}
	}
	// Spatial references to heap arrays of pointers are marked pointer
	// (the buf[i] case of Figure 4 / Section 4.5).
	for _, r := range a.refs {
		ix, ok := r.e.(*lang.Index)
		if !ok || r.store {
			continue
		}
		h := a.an.Hints[ix]
		if h == nil || !h.Spatial {
			continue
		}
		if _, isPtr := ix.Arr.Elem.(lang.PtrT); isPtr && ix.Arr.Heap {
			h.Pointer = true
		}
	}
}

// -------------------------------------------- indirect references (4.3) --

func (a *analyzer) detectIndirect() {
	for _, r := range a.refs {
		ix, ok := r.e.(*lang.Index)
		if !ok {
			continue
		}
		env := a.env(r.loop)
		if byteOffset(ix, env).ok {
			continue // affine: plain spatial analysis applies
		}
		// Find the one subscript containing an inner array reference of
		// the form s*b(i)+e with everything else affine.
		var info *IndirectInfo
		fail := false
		for d, sub := range ix.Idx {
			inner, scale, ok2 := matchIndirect(sub, env)
			if !ok2 {
				if !affineOf(sub, env).ok {
					fail = true
					break
				}
				continue
			}
			if info != nil {
				fail = true // two indirect dimensions; give up
				break
			}
			// The indexing reference must itself have spatial reuse.
			hInner := a.an.Hints[inner]
			if hInner == nil || !hInner.Spatial {
				fail = true
				break
			}
			if inner.Arr.Elem.Size() != 4 {
				fail = true // hardware assumes 4-byte index elements
				break
			}
			byteScale := scale * ix.Arr.Stride(d) * ix.Arr.Elem.Size()
			if byteScale <= 0 || byteScale&(byteScale-1) != 0 {
				fail = true // non-power-of-two scaling; no PREFI encoding
				break
			}
			shift := uint(0)
			for s := byteScale; s > 1; s >>= 1 {
				shift++
			}
			info = &IndirectInfo{
				Inner:      inner,
				Base:       ix.Arr,
				BaseOffset: baseOffsetExpr(ix, d),
				Shift:      shift,
				Guard:      guardVar(inner, env),
			}
		}
		if info != nil && !fail {
			a.an.hintFor(ix).Indirect = info
		}
	}
}

// matchIndirect matches sub against s*b(i)+e and returns the inner
// reference and s. Only a single inner Index is accepted.
func matchIndirect(sub lang.Expr, env affineEnv) (*lang.Index, int64, bool) {
	switch n := sub.(type) {
	case *lang.Index:
		return n, 1, true
	case *lang.Bin:
		switch n.Op {
		case lang.Add, lang.Sub:
			li, ls, lok := matchIndirect(n.L, env)
			ri, rs, rok := matchIndirect(n.R, env)
			switch {
			case lok && !rok && affineOf(n.R, env).ok:
				return li, ls, true
			case rok && !lok && affineOf(n.L, env).ok && n.Op == lang.Add:
				return ri, rs, true
			}
			return nil, 0, false
		case lang.Mul:
			if c, ok := n.L.(*lang.Const); ok {
				if i, s, ok2 := matchIndirect(n.R, env); ok2 {
					return i, s * c.V, true
				}
			}
			if c, ok := n.R.(*lang.Const); ok {
				if i, s, ok2 := matchIndirect(n.L, env); ok2 {
					return i, s * c.V, true
				}
			}
			return nil, 0, false
		case lang.Shl:
			if c, ok := n.R.(*lang.Const); ok && c.V >= 0 && c.V < 32 {
				if i, s, ok2 := matchIndirect(n.L, env); ok2 {
					return i, s << uint(c.V), true
				}
			}
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// baseOffsetExpr builds a source-level expression for the byte offset of
// the reference's base address: the full subscript expression with the
// indirect dimension's subscript replaced by zero.
func baseOffsetExpr(ix *lang.Index, indirectDim int) lang.Expr {
	elem := ix.Arr.Elem.Size()
	var total lang.Expr = lang.C(0)
	for d, sub := range ix.Idx {
		if d == indirectDim {
			continue
		}
		term := lang.B(lang.Mul, sub, lang.C(ix.Arr.Stride(d)*elem))
		total = lang.B(lang.Add, total, term)
	}
	return total
}

// guardVar returns the loop variable to guard PREFI on when the inner
// reference's flattened subscript is exactly that variable.
func guardVar(inner *lang.Index, env affineEnv) string {
	if len(inner.Idx) != 1 {
		return ""
	}
	a := affineOf(inner.Idx[0], env)
	if !a.ok || a.symbolic || a.konst != 0 || len(a.coef) != 1 {
		return ""
	}
	for v, c := range a.coef {
		if c == 1 {
			return v
		}
	}
	return ""
}

// -------------------------------------- variable region sizes (4.4) --

// variableRegionSizes encodes, for spatial references in singly nested
// loops, a 3-bit coefficient x with 2^x closest to the reference's byte
// stride, and schedules a SETBOUND at loop entry.
func (a *analyzer) variableRegionSizes() {
	for _, li := range a.loops {
		if li.forStmt == nil || len(li.children) != 0 {
			// Only leaf counted loops: their trip count fully describes
			// the spatial run of the references inside. SETBOUND is
			// re-executed at each loop entry, so leaf loops inside nests
			// work like the paper's singly nested case.
			continue
		}
		env := a.env(li)
		v := li.forStmt.Var
		emitted := false
		for _, r := range li.refs {
			var off affine
			switch n := r.e.(type) {
			case *lang.Index:
				off = byteOffset(n, env)
			case *lang.PtrIndex:
				off = affineOf(n.Idx, env).scale(n.Elem.Size())
			default:
				continue
			}
			h := a.an.Hints[r.e]
			if h == nil || !h.Spatial || !off.ok {
				continue
			}
			bs := off.stride(v) * li.forStmt.Step
			if bs < 0 {
				bs = -bs
			}
			if bs == 0 {
				continue
			}
			if a.contiguousAcrossOuter(li, off, bs) {
				// Consecutive leaf-loop footprints abut (a dense nest like
				// a[i][j]); bounding the region to one footprint would just
				// split a long stream, so keep the fixed region size. This
				// mirrors the paper's restriction of size hints to singly
				// nested loops.
				continue
			}
			h.Coeff = encodeCoeff(bs)
			emitted = true
		}
		if emitted {
			a.an.SetBound[li.forStmt] = true
		}
	}
}

// contiguousAcrossOuter reports whether consecutive executions of leaf
// loop li touch abutting memory: the reference's stride in some enclosing
// loop variable is no more than twice the leaf loop's footprint
// (trip · bs). Unknown trips are treated as non-contiguous.
func (a *analyzer) contiguousAcrossOuter(li *loopInfo, off affine, bs int64) bool {
	if li.trip < 0 {
		return false
	}
	foot := li.trip * bs
	for l := li.parent; l != nil; l = l.parent {
		if l.forStmt == nil {
			continue
		}
		s := off.stride(l.forStmt.Var) * l.forStmt.Step
		if s < 0 {
			s = -s
		}
		if s != 0 && s <= 2*foot {
			return true
		}
	}
	return false
}

// encodeCoeff returns x in [1, 6] with 2^x closest to byte stride bs
// (Sec. 4.4); encoding 7 means fixed-size and 0 is reserved for
// minimum-size (propagated) regions.
func encodeCoeff(bs int64) uint8 {
	best := uint8(1)
	bestDiff := int64(1<<62 - 1)
	for x := uint8(1); x < 7; x++ {
		d := int64(1)<<x - bs
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			bestDiff = d
			best = x
		}
	}
	return best
}

// ------------------------------------------------------------- reporting --

// Describe renders the annotations human-readably (grpsim -hints).
func (an *Annotations) Describe() string {
	type row struct{ kind, detail string }
	var rows []row
	for e, h := range an.Hints {
		if !h.Spatial && !h.Pointer && !h.Recursive && h.Indirect == nil {
			continue
		}
		rows = append(rows, row{refName(e), h.describe()})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].kind != rows[j].kind {
			return rows[i].kind < rows[j].kind
		}
		return rows[i].detail < rows[j].detail
	})
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("%-28s %s\n", r.kind, r.detail)
	}
	return s
}

func (h *HintInfo) describe() string {
	s := ""
	add := func(x string) {
		if s != "" {
			s += ","
		}
		s += x
	}
	if h.Spatial {
		add("spatial(" + h.Scope + ")")
		if h.Coeff != isa.FixedRegion {
			add(fmt.Sprintf("size=2^%d", h.Coeff))
		}
	}
	if h.Pointer {
		add("pointer")
	}
	if h.Recursive {
		add("recursive")
	}
	if h.Indirect != nil {
		add("indirect(base=" + h.Indirect.Base.Name + ",idx=" + h.Indirect.Inner.Arr.Name + ")")
	}
	return s
}

func refName(e lang.Expr) string {
	switch n := e.(type) {
	case *lang.Index:
		return n.Arr.Name + subscriptString(len(n.Idx))
	case *lang.PtrIndex:
		return "ptr[" + "]"
	case *lang.FieldRef:
		return exprBase(n.Ptr) + "->" + n.Field
	case *lang.Deref:
		return "*" + exprBase(n.Ptr)
	}
	return "?"
}

func exprBase(e lang.Expr) string {
	if s, ok := e.(*lang.Scalar); ok {
		return s.Name
	}
	return "expr"
}

func subscriptString(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "[]"
	}
	return s
}
