package cpu

import (
	"testing"
	"unsafe"

	"grp/internal/isa"
	"grp/internal/mem"
)

// TestHotTypesFillWholeLines pins the host-cache-line rule for every type
// the core writes on each committed instruction: its size is a whole
// number of lines and fresh instances start on a line boundary, so two
// simulations on two host threads never write the same line. A field
// added later that breaks the size fails here, not in a benchmark.
func TestHotTypesFillWholeLines(t *testing.T) {
	p, err := isa.Assemble("halt", "halt")
	if err != nil {
		t.Fatal(err)
	}
	// Enough live instances that a size class which is not a whole
	// number of lines would place some of them mid-line.
	const n = 16
	var cores []*Core
	var threads []*Thread
	for i := 0; i < n; i++ {
		c := mustNew(t, Default(), mem.New(), &flatMem{lat: 1})
		th, err := c.Start(p)
		if err != nil {
			t.Fatal(err)
		}
		cores, threads = append(cores, c), append(threads, th)
	}
	types := []struct {
		name  string
		size  uintptr
		addrs func(i int) uintptr
	}{
		{"Core", unsafe.Sizeof(Core{}), func(i int) uintptr { return uintptr(unsafe.Pointer(cores[i])) }},
		{"Thread", unsafe.Sizeof(Thread{}), func(i int) uintptr { return uintptr(unsafe.Pointer(threads[i])) }},
	}
	for _, ty := range types {
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
}
