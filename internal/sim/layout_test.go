package sim

import (
	"testing"
	"unsafe"
)

// TestHotTypesFillWholeLines pins the host-cache-line rule for every type
// the memory system writes on each access: its size is a whole number of
// lines and fresh instances start on a line boundary, so two simulations
// on two host threads never write the same line. A field added later
// that breaks the size fails here, not in a benchmark.
func TestHotTypesFillWholeLines(t *testing.T) {
	// Enough live instances that a size class which is not a whole
	// number of lines would place some of them mid-line.
	const n = 16
	var dogs []*Watchdog
	for i := 0; i < n; i++ {
		dogs = append(dogs, newWatchdog(WatchdogConfig{}))
	}
	types := []struct {
		name  string
		size  uintptr
		addrs func(i int) uintptr
	}{
		{"Watchdog", unsafe.Sizeof(Watchdog{}), func(i int) uintptr { return uintptr(unsafe.Pointer(dogs[i])) }},
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
