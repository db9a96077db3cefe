// Package oamap provides small open-addressed hash tables keyed by
// uint64, used on the simulator's hot paths in place of Go maps: the sim
// package's in-flight line table and the prefetch engines' pointer-scan
// counters sit on the per-access path, where the runtime map's hashing
// and bucket chasing dominated profiles. Linear probing with
// backward-shift deletion keeps probes short without tombstones, and the
// backing arrays are reused across grow cycles, so steady-state
// operation allocates nothing.
//
// The tables are not a general map replacement: values are tiny (uint8
// counters, int32 indices), iteration order is unspecified, and the
// tables are single-goroutine like the rest of the simulator.
package oamap

// fib is the 64-bit Fibonacci hashing multiplier; block addresses are
// near-sequential, and the multiply spreads them across the high bits the
// index uses.
const fib = 0x9E3779B97F4A7C15

const minCap = 16

// sizeFor returns the power-of-two capacity whose 3/4 load bound fits n.
func sizeFor(n int) int {
	c := minCap
	for 4*n >= 3*c {
		c <<= 1
	}
	return c
}

// U8 maps uint64 keys to uint8 values (the prefetch engines' pointer
// counters and issued-block sets). Slots are a single array of structs,
// so a probe touches one cache line, not three parallel arrays.
type U8 struct {
	slots []u8Slot
	n     int
	shift uint
}

type u8Slot struct {
	key  uint64
	val  uint8
	used bool
}

// NewU8 returns an empty table.
func NewU8() *U8 {
	t := &U8{}
	t.init(minCap)
	return t
}

func (t *U8) init(capacity int) {
	t.slots = make([]u8Slot, capacity)
	t.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		t.shift--
	}
}

func (t *U8) idx(k uint64) uint64 { return (k * fib) >> t.shift }

// Len returns the number of live entries.
func (t *U8) Len() int { return t.n }

// Get returns the value for k (zero when absent) and whether it exists.
func (t *U8) Get(k uint64) (uint8, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.idx(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// Set inserts or overwrites k's value.
func (t *U8) Set(k uint64, v uint8) {
	if 4*(t.n+1) >= 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.idx(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			*s = u8Slot{key: k, val: v, used: true}
			t.n++
			return
		}
		if s.key == k {
			s.val = v
			return
		}
	}
}

// Delete removes k if present, backward-shifting the probe chain so no
// tombstones accumulate.
func (t *U8) Delete(k uint64) {
	mask := uint64(len(t.slots) - 1)
	i := t.idx(k)
	for {
		if !t.slots[i].used {
			return
		}
		if t.slots[i].key == k {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if !t.slots[j].used {
			break
		}
		if h := t.idx(t.slots[j].key); (j-h)&mask >= (j-i)&mask {
			t.slots[i].key, t.slots[i].val = t.slots[j].key, t.slots[j].val
			i = j
		}
	}
	t.slots[i].used = false
	t.n--
}

// Reset empties the table in place, keeping its capacity. clear zeroes
// the slot array wholesale — a single memclr, far cheaper than a
// per-slot flag loop when Reset runs once per simulated cell.
func (t *U8) Reset() {
	clear(t.slots)
	t.n = 0
}

func (t *U8) grow() {
	old := t.slots
	t.init(2 * len(old))
	t.n = 0
	for i := range old {
		if old[i].used {
			t.Set(old[i].key, old[i].val)
		}
	}
}

// I32 maps uint64 keys to int32 values (the sim package's block → pooled
// line index table). Like U8, slots are a single array of structs so a
// probe touches one cache line.
type I32 struct {
	slots []i32Slot
	n     int
	shift uint
}

type i32Slot struct {
	key  uint64
	val  int32
	used bool
}

// NewI32 returns an empty table.
func NewI32() *I32 {
	t := &I32{}
	t.init(minCap)
	return t
}

// NewI32Sized returns an empty table pre-sized to hold about n entries
// without growing (one allocation up front instead of log n rehashes).
func NewI32Sized(n int) *I32 {
	t := &I32{}
	t.init(sizeFor(n))
	return t
}

func (t *I32) init(capacity int) {
	t.slots = make([]i32Slot, capacity)
	t.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		t.shift--
	}
}

func (t *I32) idx(k uint64) uint64 { return (k * fib) >> t.shift }

// Len returns the number of live entries.
func (t *I32) Len() int { return t.n }

// Get returns the value for k (zero when absent) and whether it exists.
func (t *I32) Get(k uint64) (int32, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.idx(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == k {
			return s.val, true
		}
	}
}

// Set inserts or overwrites k's value.
func (t *I32) Set(k uint64, v int32) {
	if 4*(t.n+1) >= 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.idx(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			*s = i32Slot{key: k, val: v, used: true}
			t.n++
			return
		}
		if s.key == k {
			s.val = v
			return
		}
	}
}

// Delete removes k if present, backward-shifting the probe chain so no
// tombstones accumulate.
func (t *I32) Delete(k uint64) {
	mask := uint64(len(t.slots) - 1)
	i := t.idx(k)
	for {
		if !t.slots[i].used {
			return
		}
		if t.slots[i].key == k {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if !t.slots[j].used {
			break
		}
		if h := t.idx(t.slots[j].key); (j-h)&mask >= (j-i)&mask {
			t.slots[i].key, t.slots[i].val = t.slots[j].key, t.slots[j].val
			i = j
		}
	}
	t.slots[i].used = false
	t.n--
}

// Reset empties the table in place, keeping its capacity. clear zeroes
// the slot array wholesale — a single memclr, far cheaper than a
// per-slot flag loop when Reset runs once per simulated cell.
func (t *I32) Reset() {
	clear(t.slots)
	t.n = 0
}

func (t *I32) grow() {
	old := t.slots
	t.init(2 * len(old))
	t.n = 0
	for i := range old {
		if old[i].used {
			t.Set(old[i].key, old[i].val)
		}
	}
}
