// Package workloads defines the benchmark proxy kernels standing in for
// the paper's SPEC CPU2000 + Sphinx evaluation set (see DESIGN.md for the
// substitution argument). Each kernel is written in the lang mini-language
// so the GRP compiler derives every hint by analysis — nothing is
// hand-annotated — and each reproduces the dominant L2-miss pattern the
// paper reports for its namesake (Table 6 and Section 5.5):
//
//	gzip     sliding-window byte copies                 (spatial)
//	wupwise  dense matrix-vector products               (spatial)
//	swim     transposed 2-D stencil sweeps              (transpose access)
//	mgrid    3-D stencil relaxation                     (spatial)
//	applu    3-D wavefront sweeps over several arrays   (spatial)
//	vpr      routing-cost lookups through a net map     (indirect, spatial)
//	mesa     short vertex bursts in a large vertex pool (variable regions)
//	art      repeated streaming of > L2 f32 arrays      (bandwidth bound)
//	mcf      arc-array resets + tree searches           (tree traversal)
//	equake   heap arrays of row pointers, buf[i][j]     (pointer + spatial)
//	crafty   small bitboard tables, negligible misses   (excluded, as paper)
//	ammp     linked atom list in allocation order       (list traversal)
//	parser   shuffled linked lists + dictionary probes  (list traversal)
//	gap      arena of records walked by embedded ptrs   (pointer + spatial)
//	bzip2    scattered indirect block accesses          (indirect)
//	twolf    shuffled lists and random pointer hops     (irregular pointers)
//	apsi     rank-3 Fortran-style array sweeps          (spatial, mixed)
//	sphinx   hash-table probe bursts + overflow chains  (hash lookup)
package workloads

import (
	"fmt"

	"grp/internal/compiler"
	"grp/internal/lang"
	"grp/internal/mem"
)

// Factor scales working-set sizes and iteration counts.
type Factor int

// Scale levels. Test keeps unit tests fast; Full is used for the paper's
// tables.
const (
	Test Factor = iota
	Small
	Full
)

func (f Factor) String() string {
	switch f {
	case Test:
		return "test"
	case Small:
		return "small"
	default:
		return "full"
	}
}

// ParseFactor resolves a factor name as printed by String.
func ParseFactor(s string) (Factor, error) {
	for _, f := range []Factor{Test, Small, Full} {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("workloads: unknown factor %q (want test, small, full)", s)
}

// pick returns the value for the factor.
func pick[T any](f Factor, test, small, full T) T {
	switch f {
	case Test:
		return test
	case Small:
		return small
	default:
		return full
	}
}

// Built is an instantiated workload: a program plus its data initializer.
type Built struct {
	Prog *lang.Program
	// Init populates simulated memory after placement (heap structures,
	// index arrays, initial values).
	Init func(m *mem.Memory, lay *compiler.Layout)
	// MaxInstrs caps simulation length for this kernel.
	MaxInstrs uint64
}

// Spec describes one benchmark proxy.
type Spec struct {
	Name string
	// FP marks the paper's floating-point benchmarks (Figure 11); the
	// rest are integer benchmarks (Figure 10).
	FP bool
	// CBench marks benchmarks written in C in the paper (Figure 9's
	// pointer-prefetching study applies to these).
	CBench bool
	// Exclude marks benchmarks omitted from timing results (crafty: its
	// L2 miss rate is negligible, paper Section 5.1).
	Exclude bool
	// MissCause is the Table 6 classification of remaining misses.
	MissCause string
	Build     func(f Factor) *Built
}

// All returns every workload in the paper's presentation order.
func All() []*Spec {
	return []*Spec{
		specGzip(), specWupwise(), specSwim(), specMgrid(), specApplu(),
		specVpr(), specMesa(), specArt(), specMcf(), specEquake(),
		specCrafty(), specAmmp(), specParser(), specGap(), specBzip2(),
		specTwolf(), specApsi(), specSphinx(),
	}
}

// ByName returns the named workload spec.
func ByName(name string) (*Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names lists all workload names in order.
func Names() []string {
	var ns []string
	for _, s := range All() {
		ns = append(ns, s.Name)
	}
	return ns
}

// ------------------------------------------------------------------ rng --

// rng is a deterministic xorshift64* generator; workloads must not depend
// on Go's runtime randomness so every simulation is reproducible.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a deterministic permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// --------------------------------------------------------------- helpers --

// allocNodes allocates n structs of type st on the simulated heap and
// returns their addresses in *traversal* order. With shuffle false the
// traversal order equals allocation order (contiguous addresses, the
// regular allocation pattern the paper notes makes spatial prefetching
// work on pointer codes); with shuffle true the addresses are permuted so
// pointer chasing has no spatial locality (twolf, parser). gap inserts
// dead bytes between allocations, modeling the fragmentation of a real
// mixed heap: region prefetchers then fetch mostly dead space.
func allocNodes(m *mem.Memory, st *lang.StructT, n int, shuffle bool, gap uint64, r *rng) []uint64 {
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = m.Alloc(uint64(st.Size()), 8)
		if gap > 0 {
			m.Alloc(gap, 8)
		}
	}
	if shuffle {
		p := r.perm(n)
		out := make([]uint64, n)
		for i := range out {
			out[i] = addrs[p[i]]
		}
		return out
	}
	return addrs
}

// linkList writes next pointers chaining nodes in order, terminating with 0.
func linkList(m *mem.Memory, nodes []uint64, nextOff int64) {
	for i, a := range nodes {
		var nxt uint64
		if i+1 < len(nodes) {
			nxt = nodes[i+1]
		}
		m.Write64(a+uint64(nextOff), nxt)
	}
}
