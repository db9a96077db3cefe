package compiler

import (
	"fmt"

	"grp/internal/isa"
	"grp/internal/lang"
	"grp/internal/mem"
)

// Layout assigns base addresses to a program's arrays.
type Layout struct {
	Addr map[string]uint64
}

// Place allocates every array of p in m: heap arrays through the simulated
// malloc (so they fall inside the pointer scanner's base-and-bounds range),
// non-heap arrays in the globals segment.
func Place(p *lang.Program, m *mem.Memory) *Layout {
	// placeSkew staggers consecutive objects by 17 cache blocks so equal
	// subscripts of different arrays do not all land in the same cache
	// set, as real linkers and allocators do.
	const placeSkew = 17 * 64
	l := &Layout{Addr: map[string]uint64{}}
	globals := mem.GlobalBase
	for _, a := range p.Arrays {
		if a.Heap {
			l.Addr[a.Name] = m.Alloc(uint64(a.Bytes()), 64)
			m.Alloc(placeSkew, 64)
			continue
		}
		base := (globals + 63) &^ 63
		l.Addr[a.Name] = base
		globals = base + uint64(a.Bytes()) + placeSkew
	}
	return l
}

// register pool boundaries: persistent scalars grow up from firstScalarReg,
// expression temporaries grow down from lastTempReg.
const (
	firstScalarReg = 1
	lastTempReg    = isa.NumRegs - 1
	numTempRegs    = 12

	// prefiLookaheadIdx is how many index elements ahead of the loop a
	// PREFI targets (two 64-byte blocks of 4-byte indices).
	prefiLookaheadIdx = 32
)

// CodegenOptions selects optional backend behaviors.
type CodegenOptions struct {
	// SoftwarePrefetch inserts Mowry-style PREF instructions ahead of
	// spatial loads instead of relying on hardware prefetching. The paper
	// discusses this approach's limits in Section 2; it is implemented as
	// the comparison foil. Pointer-based references are not prefetched
	// (the compiler cannot compute their addresses in advance, exactly
	// the limitation the paper cites).
	SoftwarePrefetch bool
	// SWPrefetchIters is the lookahead distance in loop iterations
	// (default 16).
	SWPrefetchIters int64
}

type codegen struct {
	prog   *lang.Program
	an     *Annotations
	layout *Layout
	opts   CodegenOptions

	out       []isa.Instr
	scalarReg map[string]uint8
	nextReg   uint8
	tmpTop    uint8 // next temp register to hand out (counts down)

	labels  map[string]int
	fixups  []fixup
	nlabels int
}

type fixup struct {
	instr int
	label string
}

// CompileWithOptions lowers an analyzed program to the ISA with backend
// options. The layout must come from Place on the same program.
func CompileWithOptions(p *lang.Program, layout *Layout, an *Annotations, opts CodegenOptions) (*isa.Program, error) {
	if opts.SWPrefetchIters <= 0 {
		opts.SWPrefetchIters = 16
	}
	g := &codegen{
		prog:      p,
		an:        an,
		layout:    layout,
		opts:      opts,
		scalarReg: map[string]uint8{},
		nextReg:   firstScalarReg,
		tmpTop:    lastTempReg,
		labels:    map[string]int{},
	}
	for _, s := range p.Scalars {
		if _, err := g.scalar(s); err != nil {
			return nil, err
		}
	}
	if err := g.stmts(p.Body); err != nil {
		return nil, err
	}
	g.emit(isa.Instr{Op: isa.OpHalt})
	for _, f := range g.fixups {
		t, ok := g.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("compiler: %s: unresolved label %q", p.Name, f.label)
		}
		g.out[f.instr].Target = t
	}
	ip := &isa.Program{Name: p.Name, Instrs: g.out}
	if err := ip.Validate(); err != nil {
		return nil, err
	}
	return ip, nil
}

// CompileWorkload is the convenience entry: place, analyze, compile.
func CompileWorkload(p *lang.Program, m *mem.Memory, policy Policy) (*isa.Program, *Layout, *Annotations, error) {
	return CompileWorkloadOpts(p, m, policy, CodegenOptions{})
}

// CompileWorkloadOpts is CompileWorkload with backend options.
func CompileWorkloadOpts(p *lang.Program, m *mem.Memory, policy Policy, opts CodegenOptions) (*isa.Program, *Layout, *Annotations, error) {
	layout := Place(p, m)
	an, err := Analyze(p, policy)
	if err != nil {
		return nil, nil, nil, err
	}
	ip, err := CompileWithOptions(p, layout, an, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return ip, layout, an, nil
}

// ------------------------------------------------------------- registers --

func (g *codegen) scalar(name string) (uint8, error) {
	if r, ok := g.scalarReg[name]; ok {
		return r, nil
	}
	if g.nextReg > lastTempReg-numTempRegs {
		return 0, fmt.Errorf("compiler: %s: out of scalar registers (%d scalars)", g.prog.Name, len(g.scalarReg))
	}
	r := g.nextReg
	g.nextReg++
	g.scalarReg[name] = r
	return r, nil
}

func (g *codegen) tmp() (uint8, error) {
	if g.tmpTop <= lastTempReg-numTempRegs {
		return 0, fmt.Errorf("compiler: %s: expression too deep (out of temporaries)", g.prog.Name)
	}
	r := g.tmpTop
	g.tmpTop--
	return r, nil
}

func (g *codegen) tmpMark() uint8        { return g.tmpTop }
func (g *codegen) tmpRelease(mark uint8) { g.tmpTop = mark }
func (g *codegen) isTemp(r uint8) bool   { return r > lastTempReg-numTempRegs }

// ------------------------------------------------------------- emission --

func (g *codegen) emit(in isa.Instr) { g.out = append(g.out, in) }

func (g *codegen) newLabel(prefix string) string {
	g.nlabels++
	return fmt.Sprintf("%s%d", prefix, g.nlabels)
}

func (g *codegen) place(label string) { g.labels[label] = len(g.out) }

func (g *codegen) branch(op isa.Op, rs1, rs2 uint8, label string) {
	g.fixups = append(g.fixups, fixup{len(g.out), label})
	g.emit(isa.Instr{Op: op, Rs1: rs1, Rs2: rs2})
}

// ------------------------------------------------------------ statements --

func (g *codegen) stmts(ss []lang.Stmt) error {
	for _, s := range ss {
		var err error
		switch n := s.(type) {
		case *lang.For:
			err = g.forStmt(n)
		case *lang.While:
			err = g.whileStmt(n)
		case *lang.If:
			err = g.ifStmt(n)
		case *lang.Assign:
			err = g.assign(n)
		default:
			err = fmt.Errorf("compiler: %s: unknown statement %T", g.prog.Name, s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) forStmt(n *lang.For) error {
	rv, err := g.scalar(n.Var)
	if err != nil {
		return err
	}
	// The loop bound lives in a dedicated persistent register.
	rhi, err := g.scalar(fmt.Sprintf("$hi.%p", n))
	if err != nil {
		return err
	}
	mark := g.tmpMark()
	rlo, err := g.expr(n.Lo)
	if err != nil {
		return err
	}
	g.emit(isa.Instr{Op: isa.OpMov, Rd: rv, Rs1: rlo})
	g.tmpRelease(mark)
	rh, err := g.expr(n.Hi)
	if err != nil {
		return err
	}
	g.emit(isa.Instr{Op: isa.OpMov, Rd: rhi, Rs1: rh})
	g.tmpRelease(mark)

	if g.an != nil && g.an.SetBound[n] {
		// trip = (hi - lo) / step, conveyed to the prefetch engine.
		rt, err := g.tmp()
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.OpSub, Rd: rt, Rs1: rhi, Rs2: rv})
		if n.Step > 1 {
			if n.Step&(n.Step-1) == 0 {
				g.emit(isa.Instr{Op: isa.OpShri, Rd: rt, Rs1: rt, Imm: log2(n.Step)})
			} else {
				rs, err := g.tmp()
				if err != nil {
					return err
				}
				g.emit(isa.Instr{Op: isa.OpLi, Rd: rs, Imm: n.Step})
				g.emit(isa.Instr{Op: isa.OpDiv, Rd: rt, Rs1: rt, Rs2: rs})
			}
		}
		g.emit(isa.Instr{Op: isa.OpSetBound, Rs1: rt})
		g.tmpRelease(mark)
	}

	body := g.newLabel("for")
	end := g.newLabel("endfor")
	g.branch(isa.OpBge, rv, rhi, end)
	g.place(body)
	if err := g.stmts(n.Body); err != nil {
		return err
	}
	g.emit(isa.Instr{Op: isa.OpAddi, Rd: rv, Rs1: rv, Imm: n.Step})
	g.branch(isa.OpBlt, rv, rhi, body)
	g.place(end)
	return nil
}

func (g *codegen) whileStmt(n *lang.While) error {
	top := g.newLabel("while")
	end := g.newLabel("endwhile")
	g.place(top)
	mark := g.tmpMark()
	rc, err := g.expr(n.Cond)
	if err != nil {
		return err
	}
	g.branch(isa.OpBeq, rc, 0, end)
	g.tmpRelease(mark)
	if err := g.stmts(n.Body); err != nil {
		return err
	}
	g.branch(isa.OpJmp, 0, 0, top)
	g.place(end)
	return nil
}

func (g *codegen) ifStmt(n *lang.If) error {
	els := g.newLabel("else")
	end := g.newLabel("endif")
	mark := g.tmpMark()
	rc, err := g.expr(n.Cond)
	if err != nil {
		return err
	}
	g.branch(isa.OpBeq, rc, 0, els)
	g.tmpRelease(mark)
	if err := g.stmts(n.Then); err != nil {
		return err
	}
	if len(n.Else) > 0 {
		g.branch(isa.OpJmp, 0, 0, end)
	}
	g.place(els)
	if err := g.stmts(n.Else); err != nil {
		return err
	}
	g.place(end)
	return nil
}

func (g *codegen) assign(n *lang.Assign) error {
	mark := g.tmpMark()
	defer g.tmpRelease(mark)
	switch d := n.Dst.(type) {
	case *lang.Scalar:
		rd, err := g.scalar(d.Name)
		if err != nil {
			return err
		}
		rs, err := g.expr(n.Src)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.OpMov, Rd: rd, Rs1: rs})
		return nil
	default:
		rv, err := g.expr(n.Src)
		if err != nil {
			return err
		}
		// Keep the value register alive across address computation: if it
		// is a temp, it stays allocated until the statement's release.
		ra, disp, size, err := g.addressOf(n.Dst)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: storeOp(size), Rs1: ra, Rs2: rv, Imm: disp})
		return nil
	}
}

// -------------------------------------------------------------- expressions --

// expr evaluates e into a register. Temporaries used remain allocated until
// the caller releases its mark.
func (g *codegen) expr(e lang.Expr) (uint8, error) {
	switch n := e.(type) {
	case *lang.Const:
		r, err := g.tmp()
		if err != nil {
			return 0, err
		}
		g.emit(isa.Instr{Op: isa.OpLi, Rd: r, Imm: n.V})
		return r, nil
	case *lang.Scalar:
		return g.scalar(n.Name)
	case *lang.Bin:
		return g.binExpr(n)
	case *lang.Index, *lang.PtrIndex, *lang.FieldRef, *lang.Deref:
		return g.loadRef(e)
	case *lang.AddrOf:
		ix := &lang.Index{Arr: n.Arr, Idx: n.Idx}
		ra, disp, _, err := g.indexAddress(ix)
		if err != nil {
			return 0, err
		}
		if disp != 0 {
			g.emit(isa.Instr{Op: isa.OpAddi, Rd: ra, Rs1: ra, Imm: disp})
		}
		return ra, nil
	default:
		return 0, fmt.Errorf("compiler: %s: unknown expression %T", g.prog.Name, e)
	}
}

func binOpFor(op lang.BinOp) (isa.Op, bool) {
	switch op {
	case lang.Add:
		return isa.OpAdd, true
	case lang.Sub:
		return isa.OpSub, true
	case lang.Mul:
		return isa.OpMul, true
	case lang.Div:
		return isa.OpDiv, true
	case lang.Rem:
		return isa.OpRem, true
	case lang.And:
		return isa.OpAnd, true
	case lang.Or:
		return isa.OpOr, true
	case lang.Xor:
		return isa.OpXor, true
	case lang.Shl:
		return isa.OpShl, true
	case lang.Shr:
		return isa.OpShr, true
	case lang.Lt:
		return isa.OpSlt, true
	}
	return 0, false
}

func (g *codegen) binExpr(n *lang.Bin) (uint8, error) {
	// Allocate the result register first so every temporary consumed by
	// the operands can be released once the operation is emitted; this
	// keeps register pressure proportional to tree depth.
	rd, err := g.tmp()
	if err != nil {
		return 0, err
	}
	mark := g.tmpMark()
	defer g.tmpRelease(mark)
	rl, err := g.expr(n.L)
	if err != nil {
		return 0, err
	}
	rr, err := g.expr(n.R)
	if err != nil {
		return 0, err
	}
	if op, ok := binOpFor(n.Op); ok {
		g.emit(isa.Instr{Op: op, Rd: rd, Rs1: rl, Rs2: rr})
		return rd, nil
	}
	switch n.Op {
	case lang.Eq:
		rt, err := g.tmp()
		if err != nil {
			return 0, err
		}
		g.emit(isa.Instr{Op: isa.OpSlt, Rd: rd, Rs1: rl, Rs2: rr}) // l<r
		g.emit(isa.Instr{Op: isa.OpSlt, Rd: rt, Rs1: rr, Rs2: rl}) // r<l
		g.emit(isa.Instr{Op: isa.OpOr, Rd: rd, Rs1: rd, Rs2: rt})  // l!=r
		g.emit(isa.Instr{Op: isa.OpXori, Rd: rd, Rs1: rd, Imm: 1}) // l==r
		return rd, nil
	case lang.Ne:
		rt, err := g.tmp()
		if err != nil {
			return 0, err
		}
		g.emit(isa.Instr{Op: isa.OpSlt, Rd: rd, Rs1: rl, Rs2: rr})
		g.emit(isa.Instr{Op: isa.OpSlt, Rd: rt, Rs1: rr, Rs2: rl})
		g.emit(isa.Instr{Op: isa.OpOr, Rd: rd, Rs1: rd, Rs2: rt})
		return rd, nil
	case lang.Ge:
		g.emit(isa.Instr{Op: isa.OpSlt, Rd: rd, Rs1: rl, Rs2: rr})
		g.emit(isa.Instr{Op: isa.OpXori, Rd: rd, Rs1: rd, Imm: 1})
		return rd, nil
	}
	return 0, fmt.Errorf("compiler: %s: unknown operator %d", g.prog.Name, n.Op)
}

// loadRef emits the load for a memory reference, attaching its hints, and
// any PREFI the reference's indirect annotation calls for.
func (g *codegen) loadRef(e lang.Expr) (uint8, error) {
	var h *HintInfo
	if g.an != nil {
		h = g.an.Hints[e]
	}
	if h != nil && h.Indirect != nil {
		if err := g.emitPrefi(h.Indirect); err != nil {
			return 0, err
		}
	}
	rd, err := g.tmp()
	if err != nil {
		return 0, err
	}
	mark := g.tmpMark()
	defer g.tmpRelease(mark)
	ra, disp, size, err := g.addressOf(e)
	if err != nil {
		return 0, err
	}
	if g.opts.SoftwarePrefetch && h != nil && h.StrideBytes != 0 {
		// PREF the address this reference will touch SWPrefetchIters
		// iterations from now. The address register is still live, so the
		// prefetch costs exactly one extra instruction plus a memory port.
		g.emit(isa.Instr{Op: isa.OpPref, Rs1: ra,
			Imm: disp + h.StrideBytes*g.opts.SWPrefetchIters})
	}
	in := isa.Instr{Op: loadOp(size), Rd: rd, Rs1: ra, Imm: disp, Coeff: isa.FixedRegion}
	if h != nil {
		in.Hint = h.Hint()
		in.Coeff = h.Coeff
	}
	g.emit(in)
	return rd, nil
}

// addressOf computes the address of an lvalue/reference as base register +
// displacement, plus the access size.
func (g *codegen) addressOf(e lang.Expr) (reg uint8, disp int64, size int, err error) {
	switch n := e.(type) {
	case *lang.Index:
		return g.indexAddress(n)
	case *lang.PtrIndex:
		rp, err := g.expr(n.Ptr)
		if err != nil {
			return 0, 0, 0, err
		}
		ra, err := g.scaledAdd(rp, n.Idx, n.Elem.Size())
		if err != nil {
			return 0, 0, 0, err
		}
		return ra, 0, int(n.Elem.Size()), nil
	case *lang.FieldRef:
		rp, err := g.expr(n.Ptr)
		if err != nil {
			return 0, 0, 0, err
		}
		f := n.Struct.FieldByName(n.Field)
		return rp, f.Offset, int(f.Type.Size()), nil
	case *lang.Deref:
		rp, err := g.expr(n.Ptr)
		if err != nil {
			return 0, 0, 0, err
		}
		return rp, 0, int(n.Elem.Size()), nil
	}
	return 0, 0, 0, fmt.Errorf("compiler: %s: not an address expression: %T", g.prog.Name, e)
}

// indexAddress computes the address of arr[idx...] with constant subscripts
// folded into the displacement.
func (g *codegen) indexAddress(n *lang.Index) (reg uint8, disp int64, size int, err error) {
	base, ok := g.layout.Addr[n.Arr.Name]
	if !ok {
		return 0, 0, 0, fmt.Errorf("compiler: %s: array %q not placed", g.prog.Name, n.Arr.Name)
	}
	elem := n.Arr.Elem.Size()
	ra, err := g.tmp()
	if err != nil {
		return 0, 0, 0, err
	}
	g.emit(isa.Instr{Op: isa.OpLi, Rd: ra, Imm: int64(base)})
	var cdisp int64
	for d, sub := range n.Idx {
		scale := n.Arr.Stride(d) * elem
		if c, isC := sub.(*lang.Const); isC {
			cdisp += c.V * scale
			continue
		}
		ra, err = g.scaledAddInto(ra, sub, scale)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return ra, cdisp, int(elem), nil
}

// scaledAdd returns a register holding rp + sub*scale.
func (g *codegen) scaledAdd(rp uint8, sub lang.Expr, scale int64) (uint8, error) {
	rd, err := g.tmp()
	if err != nil {
		return 0, err
	}
	g.emit(isa.Instr{Op: isa.OpMov, Rd: rd, Rs1: rp})
	return g.scaledAddInto(rd, sub, scale)
}

// scaledAddInto adds sub*scale into ra (which must be a writable temp).
// Temporaries consumed by the computation are released before returning.
func (g *codegen) scaledAddInto(ra uint8, sub lang.Expr, scale int64) (uint8, error) {
	if !g.isTemp(ra) {
		rd, err := g.tmp()
		if err != nil {
			return 0, err
		}
		g.emit(isa.Instr{Op: isa.OpMov, Rd: rd, Rs1: ra})
		ra = rd
	}
	mark := g.tmpMark()
	defer g.tmpRelease(mark)
	ri, err := g.expr(sub)
	if err != nil {
		return 0, err
	}
	if scale == 1 {
		g.emit(isa.Instr{Op: isa.OpAdd, Rd: ra, Rs1: ra, Rs2: ri})
		return ra, nil
	}
	rs, err := g.tmp()
	if err != nil {
		return 0, err
	}
	if scale > 0 && scale&(scale-1) == 0 {
		g.emit(isa.Instr{Op: isa.OpShli, Rd: rs, Rs1: ri, Imm: log2(scale)})
	} else {
		g.emit(isa.Instr{Op: isa.OpMuli, Rd: rs, Rs1: ri, Imm: scale})
	}
	g.emit(isa.Instr{Op: isa.OpAdd, Rd: ra, Rs1: ra, Rs2: rs})
	return ra, nil
}

// emitPrefi lowers an indirect annotation into a (possibly guarded) PREFI:
// rs1 = &b[i], rs2 = effective base of a, imm = scale shift (Sec. 3.3.3).
func (g *codegen) emitPrefi(info *IndirectInfo) error {
	mark := g.tmpMark()
	defer g.tmpRelease(mark)

	var skip string
	if info.Guard != "" {
		rg, err := g.scalar(info.Guard)
		if err != nil {
			return err
		}
		rt, err := g.tmp()
		if err != nil {
			return err
		}
		// Issue one PREFI per block of the indirection array: 16 4-byte
		// indices per 64-byte block.
		g.emit(isa.Instr{Op: isa.OpAndi, Rd: rt, Rs1: rg, Imm: 15})
		skip = g.newLabel("noprefi")
		g.branch(isa.OpBne, rt, 0, skip)
	}

	// Schedule the PREFI ahead of the demand stream: prefetch the index
	// block two blocks (32 4-byte indices) beyond the current position, so
	// the generated data prefetches have time to cover the memory latency
	// before the loop reaches them.
	idx := make([]lang.Expr, len(info.Inner.Idx))
	copy(idx, info.Inner.Idx)
	last := len(idx) - 1
	idx[last] = lang.B(lang.Add, idx[last], lang.C(prefiLookaheadIdx))
	ridx, err := g.expr(&lang.AddrOf{Arr: info.Inner.Arr, Idx: idx})
	if err != nil {
		return err
	}
	base, ok := g.layout.Addr[info.Base.Name]
	if !ok {
		return fmt.Errorf("compiler: %s: array %q not placed", g.prog.Name, info.Base.Name)
	}
	rbase, err := g.tmp()
	if err != nil {
		return err
	}
	g.emit(isa.Instr{Op: isa.OpLi, Rd: rbase, Imm: int64(base)})
	if c, isC := info.BaseOffset.(*lang.Const); !isC || c.V != 0 {
		roff, err := g.expr(info.BaseOffset)
		if err != nil {
			return err
		}
		g.emit(isa.Instr{Op: isa.OpAdd, Rd: rbase, Rs1: rbase, Rs2: roff})
	}
	g.emit(isa.Instr{Op: isa.OpPrefIndirect, Rs1: ridx, Rs2: rbase, Imm: int64(info.Shift)})
	if skip != "" {
		g.place(skip)
	}
	return nil
}

func loadOp(size int) isa.Op {
	switch size {
	case 1:
		return isa.OpLd1
	case 4:
		return isa.OpLd4
	default:
		return isa.OpLd
	}
}

func storeOp(size int) isa.Op {
	switch size {
	case 1:
		return isa.OpSt1
	case 4:
		return isa.OpSt4
	default:
		return isa.OpSt
	}
}

func log2(v int64) int64 {
	var n int64
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
