package sim

import (
	"testing"
	"unsafe"

	"grp/internal/prefetch"
)

// TestHotTypesFillWholeLines pins the host-cache-line rule for every type
// the memory system writes on each access: no two live instances share a
// line, so two simulations on two host threads never write the same one.
// A type of at most 512 bytes gets there by being a whole number of
// lines, which puts it in a size class whose slots start on line
// boundaries; a larger one is isolated by the allocator itself, whose
// size classes above 512 bytes are whole lines. A field added later that
// breaks the rule fails here, not in a benchmark.
func TestHotTypesFillWholeLines(t *testing.T) {
	// Enough live instances that a size class which is not a whole
	// number of lines would place some of them mid-line.
	const n = 16
	var dogs []*Watchdog
	var systems []*CoRunSystem
	var arbs []*Arbiter
	for i := 0; i < n; i++ {
		dogs = append(dogs, newWatchdog(WatchdogConfig{}))
		cs, err := NewCoRunSystem(DefaultMemConfig(), []prefetch.Engine{prefetch.NewNull(), prefetch.NewNull()})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, cs)
		arbs = append(arbs, NewArbiter(2))
	}
	types := []struct {
		name  string
		size  uintptr
		addrs func(i int) uintptr
	}{
		{"Watchdog", unsafe.Sizeof(Watchdog{}), func(i int) uintptr { return uintptr(unsafe.Pointer(dogs[i])) }},
		{"CoRunSystem", unsafe.Sizeof(CoRunSystem{}), func(i int) uintptr { return uintptr(unsafe.Pointer(systems[i])) }},
		{"CorePort", unsafe.Sizeof(CorePort{}), func(i int) uintptr { return uintptr(unsafe.Pointer(systems[i].ports[i%2])) }},
		{"Arbiter", unsafe.Sizeof(Arbiter{}), func(i int) uintptr { return uintptr(unsafe.Pointer(arbs[i])) }},
		{"Arbiter counters", 8 * uintptr(cap(arbs[0].passedOver)+cap(arbs[0].grants)), func(i int) uintptr {
			return uintptr(unsafe.Pointer(&arbs[i].passedOver[0]))
		}},
	}
	for _, ty := range types {
		if ty.size <= 512 {
			if ty.size%lineBytes != 0 {
				t.Errorf("%s is %d bytes, not a whole number of %d-byte lines", ty.name, ty.size, lineBytes)
			}
			for i := 0; i < n; i++ {
				if a := ty.addrs(i); a%lineBytes != 0 {
					t.Errorf("%s instance %d at %#x is not %d-byte aligned", ty.name, i, a, lineBytes)
					break
				}
			}
		}
		lines := map[uintptr]int{}
		for i := 0; i < n; i++ {
			a := ty.addrs(i)
			for l := a / lineBytes; l <= (a+ty.size-1)/lineBytes; l++ {
				if j, ok := lines[l]; ok {
					t.Errorf("%s instances %d and %d share the line at %#x", ty.name, j, i, l*lineBytes)
				}
				lines[l] = i
			}
		}
	}
}
