package oamap

import "testing"

// TestU8AgainstMap drives the table with a deterministic pseudo-random
// op stream and checks every observable against a Go map oracle,
// covering growth, collision chains, and backward-shift deletion.
func TestU8AgainstMap(t *testing.T) {
	tab := NewU8()
	oracle := map[uint64]uint8{}
	rng := uint64(0x1234_5678_9abc_def0)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// Small key space (block-address shaped) to force collisions and
	// delete-of-present cases.
	key := func() uint64 { return (next() % 512) << 6 }
	for op := 0; op < 200000; op++ {
		k := key()
		switch next() % 4 {
		case 0, 1:
			v := uint8(next())
			tab.Set(k, v)
			oracle[k] = v
		case 2:
			tab.Delete(k)
			delete(oracle, k)
		case 3:
			got, ok := tab.Get(k)
			want, wok := oracle[k]
			if ok != wok || got != want {
				t.Fatalf("op %d: Get(%#x) = %d,%v want %d,%v", op, k, got, ok, want, wok)
			}
		}
		if tab.Len() != len(oracle) {
			t.Fatalf("op %d: Len %d, oracle %d", op, tab.Len(), len(oracle))
		}
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Reset left %d entries", tab.Len())
	}
	for k := range oracle {
		if _, ok := tab.Get(k); ok {
			t.Fatalf("Reset left key %#x", k)
		}
	}
}

// TestI32AgainstMap is the same differential drive for the int32 table.
func TestI32AgainstMap(t *testing.T) {
	tab := NewI32()
	oracle := map[uint64]int32{}
	rng := uint64(0xfeed_face_cafe_beef)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	key := func() uint64 { return (next() % 512) << 6 }
	for op := 0; op < 200000; op++ {
		k := key()
		switch next() % 4 {
		case 0, 1:
			v := int32(next())
			tab.Set(k, v)
			oracle[k] = v
		case 2:
			tab.Delete(k)
			delete(oracle, k)
		case 3:
			got, ok := tab.Get(k)
			want, wok := oracle[k]
			if ok != wok || got != want {
				t.Fatalf("op %d: Get(%#x) = %d,%v want %d,%v", op, k, got, ok, want, wok)
			}
		}
		if tab.Len() != len(oracle) {
			t.Fatalf("op %d: Len %d, oracle %d", op, tab.Len(), len(oracle))
		}
	}
}

// TestSteadyStateAllocFree pins the allocation contract: once grown to
// its working size, a churn of Set/Delete/Get allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	tab := NewI32()
	for i := uint64(0); i < 64; i++ {
		tab.Set(i<<6, int32(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tab.Set(0x4000, 7)
		tab.Delete(0x4000)
		tab.Get(0x40)
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocates %.1f allocs/op, want 0", allocs)
	}
}
