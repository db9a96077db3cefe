package compiler

import (
	"fmt"

	"grp/internal/lang"
	"grp/internal/mem"
)

// Interp executes a lang program directly over simulated memory, using the
// same layout the compiler targets. It is the reference semantics for
// differential testing: compiled code run on the CPU model must leave
// memory and scalars in the same state the interpreter computes.
type Interp struct {
	prog    *lang.Program
	lay     *Layout
	mem     *mem.Memory
	scalars map[string]uint64
	steps   int
	maxStep int
}

// NewInterp builds an interpreter. maxSteps bounds execution (0 = 64M).
func NewInterp(p *lang.Program, lay *Layout, m *mem.Memory, maxSteps int) *Interp {
	if maxSteps <= 0 {
		maxSteps = 64 << 20
	}
	return &Interp{
		prog: p, lay: lay, mem: m,
		scalars: make(map[string]uint64),
		maxStep: maxSteps,
	}
}

// Run executes the program body. It returns an error on runaway execution
// or malformed constructs.
func (ip *Interp) Run() error {
	if err := ip.prog.Validate(); err != nil {
		return err
	}
	return ip.stmts(ip.prog.Body)
}

// Steps returns how many interpreter steps Run consumed; the conformance
// harness uses it to derive a simulated-instruction budget for the same
// program.
func (ip *Interp) Steps() int { return ip.steps }

func (ip *Interp) tick() error {
	ip.steps++
	if ip.steps > ip.maxStep {
		return fmt.Errorf("compiler: interpreter exceeded %d steps in %s", ip.maxStep, ip.prog.Name)
	}
	return nil
}

func (ip *Interp) stmts(ss []lang.Stmt) error {
	for _, s := range ss {
		if err := ip.tick(); err != nil {
			return err
		}
		switch n := s.(type) {
		case *lang.For:
			lo, err := ip.eval(n.Lo)
			if err != nil {
				return err
			}
			hi, err := ip.eval(n.Hi)
			if err != nil {
				return err
			}
			// Semantics match the generated code exactly: the loop
			// variable is live after the loop, holding the first value
			// >= hi (or lo when the loop never entered), and body writes
			// to it take effect before the increment.
			v := int64(lo)
			for {
				ip.scalars[n.Var] = uint64(v)
				if v >= int64(hi) {
					break
				}
				if err := ip.stmts(n.Body); err != nil {
					return err
				}
				if err := ip.tick(); err != nil {
					return err
				}
				v = int64(ip.scalars[n.Var]) + n.Step
			}
		case *lang.While:
			for {
				c, err := ip.eval(n.Cond)
				if err != nil {
					return err
				}
				if c == 0 {
					break
				}
				if err := ip.stmts(n.Body); err != nil {
					return err
				}
				if err := ip.tick(); err != nil {
					return err
				}
			}
		case *lang.If:
			c, err := ip.eval(n.Cond)
			if err != nil {
				return err
			}
			if c != 0 {
				if err := ip.stmts(n.Then); err != nil {
					return err
				}
			} else if err := ip.stmts(n.Else); err != nil {
				return err
			}
		case *lang.Assign:
			v, err := ip.eval(n.Src)
			if err != nil {
				return err
			}
			if err := ip.assign(n.Dst, v); err != nil {
				return err
			}
		default:
			return fmt.Errorf("compiler: interp: unknown statement %T", s)
		}
	}
	return nil
}

func (ip *Interp) assign(dst lang.LValue, v uint64) error {
	if sc, ok := dst.(*lang.Scalar); ok {
		ip.scalars[sc.Name] = v
		return nil
	}
	addr, size, err := ip.address(dst)
	if err != nil {
		return err
	}
	ip.mem.Write(addr, size, v)
	return nil
}

// address resolves a memory reference to (address, access size).
func (ip *Interp) address(e lang.Expr) (uint64, int, error) {
	switch n := e.(type) {
	case *lang.Index:
		base, ok := ip.lay.Addr[n.Arr.Name]
		if !ok {
			return 0, 0, fmt.Errorf("compiler: interp: array %q not placed", n.Arr.Name)
		}
		elem := n.Arr.Elem.Size()
		off := int64(0)
		for d, sub := range n.Idx {
			v, err := ip.eval(sub)
			if err != nil {
				return 0, 0, err
			}
			off += int64(v) * n.Arr.Stride(d) * elem
		}
		return base + uint64(off), int(elem), nil
	case *lang.PtrIndex:
		p, err := ip.eval(n.Ptr)
		if err != nil {
			return 0, 0, err
		}
		i, err := ip.eval(n.Idx)
		if err != nil {
			return 0, 0, err
		}
		return p + uint64(int64(i)*n.Elem.Size()), int(n.Elem.Size()), nil
	case *lang.FieldRef:
		p, err := ip.eval(n.Ptr)
		if err != nil {
			return 0, 0, err
		}
		f := n.Struct.FieldByName(n.Field)
		return p + uint64(f.Offset), int(f.Type.Size()), nil
	case *lang.Deref:
		p, err := ip.eval(n.Ptr)
		if err != nil {
			return 0, 0, err
		}
		return p, int(n.Elem.Size()), nil
	}
	return 0, 0, fmt.Errorf("compiler: interp: not an address expression %T", e)
}

func (ip *Interp) eval(e lang.Expr) (uint64, error) {
	switch n := e.(type) {
	case *lang.Const:
		return uint64(n.V), nil
	case *lang.Scalar:
		return ip.scalars[n.Name], nil
	case *lang.Bin:
		l, err := ip.eval(n.L)
		if err != nil {
			return 0, err
		}
		r, err := ip.eval(n.R)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case lang.Add:
			return l + r, nil
		case lang.Sub:
			return l - r, nil
		case lang.Mul:
			return l * r, nil
		case lang.Div:
			if r == 0 {
				return 0, nil
			}
			return uint64(int64(l) / int64(r)), nil
		case lang.Rem:
			if r == 0 {
				return 0, nil
			}
			return uint64(int64(l) % int64(r)), nil
		case lang.And:
			return l & r, nil
		case lang.Or:
			return l | r, nil
		case lang.Xor:
			return l ^ r, nil
		case lang.Shl:
			return l << (r & 63), nil
		case lang.Shr:
			return l >> (r & 63), nil
		case lang.Lt:
			if int64(l) < int64(r) {
				return 1, nil
			}
			return 0, nil
		case lang.Eq:
			if l == r {
				return 1, nil
			}
			return 0, nil
		case lang.Ne:
			if l != r {
				return 1, nil
			}
			return 0, nil
		case lang.Ge:
			if int64(l) >= int64(r) {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("compiler: interp: unknown operator %d", n.Op)
	case *lang.AddrOf:
		base, ok := ip.lay.Addr[n.Arr.Name]
		if !ok {
			return 0, fmt.Errorf("compiler: interp: array %q not placed", n.Arr.Name)
		}
		elem := n.Arr.Elem.Size()
		off := int64(0)
		for d, sub := range n.Idx {
			v, err := ip.eval(sub)
			if err != nil {
				return 0, err
			}
			off += int64(v) * n.Arr.Stride(d) * elem
		}
		return base + uint64(off), nil
	case *lang.Index, *lang.PtrIndex, *lang.FieldRef, *lang.Deref:
		addr, size, err := ip.address(e)
		if err != nil {
			return 0, err
		}
		return ip.mem.Read(addr, size), nil
	}
	return 0, fmt.Errorf("compiler: interp: unknown expression %T", e)
}
