package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	// Values on a bound land in that bound's bucket (v <= bound).
	for _, v := range []float64{1, 10} {
		h.Observe(v)
	}
	h.Observe(10.5) // (10,20]
	h.Observe(20)   // (10,20]
	h.Observe(39)   // (20,40]
	h.Observe(41)   // overflow
	h.Observe(1000) // overflow
	want := []uint64{2, 2, 1, 2}
	for i, w := range want {
		if h.counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d", i, h.counts[i], w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if h.min != 1 || h.max != 1000 {
		t.Errorf("min/max = %g/%g, want 1/1000", h.min, h.max)
	}
	if got := h.Sum(); got != 1+10+10.5+20+39+41+1000 {
		t.Errorf("sum = %g", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	// 100 uniform observations 1..100: p50 ≈ 50, p90 ≈ 90, p99 ≈ 99.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct {
		q, want, tol float64
	}{
		{0.50, 50, 5}, {0.90, 90, 5}, {0.99, 99, 5},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%g) = %g, want %g±%g", tc.q, got, tc.want, tc.tol)
		}
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %g, want min 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %g, want max 100", got)
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{10})
	for i := 0; i < 10; i++ {
		h.Observe(500)
	}
	if got := h.Quantile(0.99); got != 500 {
		t.Errorf("overflow quantile = %g, want 500 (max observed)", got)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var h *Histogram
	h.Observe(5) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("nil histogram should report zeros")
	}
	h2 := NewHistogram([]float64{1})
	if h2.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(16, 2, 4)
	want := []float64{16, 32, 64, 128}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestRegistryNameCollision(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Gauge("x", func() float64 { return 0 }); err != nil {
		t.Fatalf("first Gauge: %v", err)
	}
	if _, err := r.Gauge("x", func() float64 { return 0 }); err == nil {
		t.Error("duplicate gauge name should error")
	}
	// Collisions across kinds are also rejected.
	if _, err := r.Histogram("x", []float64{1}); err == nil {
		t.Error("histogram colliding with gauge should error")
	} else if !strings.Contains(err.Error(), "gauge") {
		t.Errorf("collision error should name the existing kind: %v", err)
	}
	if _, err := r.Gauge("", func() float64 { return 0 }); err == nil {
		t.Error("empty name should error")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Names = %v, want [x]", got)
	}
}

func TestSamplerIntervalEvenAdvance(t *testing.T) {
	s := NewSampler(100)
	var v float64
	s.Watch("v", func() float64 { return v })
	for now := uint64(1); now <= 1000; now++ {
		v = float64(now)
		s.Tick(now)
	}
	if s.Len() != 10 {
		t.Fatalf("samples = %d, want 10", s.Len())
	}
	cycles, values, ok := s.Samples("v")
	if !ok {
		t.Fatal("series v missing")
	}
	for i, c := range cycles {
		want := uint64(100 * (i + 1))
		if c != want {
			t.Errorf("sample %d at cycle %d, want %d", i, c, want)
		}
		if values[i] != float64(want) {
			t.Errorf("sample %d value %g, want %d", i, values[i], want)
		}
	}
}

func TestSamplerUnevenAdvance(t *testing.T) {
	s := NewSampler(100)
	s.Watch("v", func() float64 { return 1 })
	// A burst that jumps several boundaries records exactly one sample at
	// the observed cycle, and realigns to the next boundary after it.
	s.Tick(50)  // below first boundary: nothing
	s.Tick(473) // crosses 100,200,300,400: one sample at 473
	s.Tick(499) // before 500: nothing
	s.Tick(500) // boundary: sample
	s.Tick(500) // same cycle again: nothing (next realigned past 500)
	s.Tick(601) // crosses 600: sample
	if s.Len() != 3 {
		t.Fatalf("samples = %d, want 3", s.Len())
	}
	cycles, _, _ := s.Samples("v")
	want := []uint64{473, 500, 601}
	for i := range want {
		if cycles[i] != want[i] {
			t.Errorf("sample %d at cycle %d, want %d", i, cycles[i], want[i])
		}
	}
	// Samples are always >= interval apart only in boundary terms; the
	// recorded cycles must be strictly increasing.
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Errorf("cycles not strictly increasing: %v", cycles)
		}
	}
}

func TestSamplerDecimation(t *testing.T) {
	s := NewSampler(10)
	s.SetMaxSamples(8)
	s.Watch("v", func() float64 { return 2 })
	for now := uint64(10); now <= 2000; now += 10 {
		s.Tick(now)
	}
	if s.Len() >= 8 {
		t.Errorf("decimation failed: %d samples with cap 8", s.Len())
	}
	if s.Interval() <= 10 {
		t.Errorf("interval should have grown, still %d", s.Interval())
	}
	cycles, values, _ := s.Samples("v")
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Fatalf("cycles not increasing after decimation: %v", cycles)
		}
	}
	for _, v := range values {
		if v != 2 {
			t.Fatalf("values corrupted by decimation: %v", values)
		}
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	s.Tick(100) // must not panic
	if s.Len() != 0 {
		t.Error("nil sampler Len should be 0")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.MustGauge("occupancy", func() float64 { return 7.5 })
	h := r.MustHistogram("lat", ExponentialBuckets(16, 2, 8))
	h.Observe(20)
	h.Observe(300)

	s := NewSampler(100)
	x := 0.0
	s.Watch("x", func() float64 { x++; return x })
	s.Tick(100)
	s.Tick(200)

	snap := Snap(r, s)
	if snap.Gauges["occupancy"] != 7.5 {
		t.Errorf("gauge = %g, want 7.5", snap.Gauges["occupancy"])
	}
	hs := snap.Histogram("lat")
	if hs == nil || hs.Count != 2 {
		t.Fatalf("histogram snapshot missing or wrong: %+v", hs)
	}
	ser := snap.GetSeries("x")
	if ser == nil || len(ser.Samples) != 2 {
		t.Fatalf("series snapshot missing or wrong: %+v", ser)
	}
	if snap.GetSeries("nope") != nil {
		t.Error("unknown series should be nil")
	}

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Gauges["occupancy"] != 7.5 || len(back.Histograms) != 1 || len(back.Series) != 1 {
		t.Errorf("round-trip mismatch: %+v", back)
	}
}

func TestSnapshotNilInputs(t *testing.T) {
	snap := Snap(nil, nil)
	if snap == nil || len(snap.Series) != 0 {
		t.Error("Snap(nil,nil) should return an empty snapshot")
	}
	if snap.Histogram("x") != nil {
		t.Error("missing histogram should be nil")
	}
}

// TestHistogramQuantileEdgeCases is the table-driven sweep of the
// degenerate distributions the interpolating path used to mishandle:
// empty, a single sample, and all-equal samples (in interior and overflow
// buckets), across the full quantile range.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	bounds := []float64{4, 8, 16}
	cases := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
	}{
		{"empty p50", nil, 0.5, 0},
		{"empty p0", nil, 0, 0},
		{"empty p100", nil, 1, 0},
		{"one sample p0", []float64{6}, 0, 6},
		{"one sample p50", []float64{6}, 0.5, 6},
		{"one sample p99", []float64{6}, 0.99, 6},
		{"one sample p100", []float64{6}, 1, 6},
		{"one sample at bound", []float64{8}, 0.5, 8},
		{"one sample overflow", []float64{100}, 0.5, 100},
		{"one sample zero", []float64{0}, 0.5, 0},
		{"all equal p25", []float64{7, 7, 7, 7}, 0.25, 7},
		{"all equal p50", []float64{7, 7, 7, 7}, 0.5, 7},
		{"all equal p99", []float64{7, 7, 7, 7}, 0.99, 7},
		{"all equal at bound", []float64{16, 16, 16}, 0.9, 16},
		{"all equal overflow", []float64{42, 42, 42}, 0.5, 42},
		{"two equal one bucket", []float64{5, 5}, 0.75, 5},
	}
	for _, tc := range cases {
		h := NewHistogram(bounds)
		for _, v := range tc.samples {
			h.Observe(v)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%g) = %g, want %g", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileMonotonic: quantiles are nondecreasing in q and
// stay inside [min, max] for a spread distribution.
func TestHistogramQuantileMonotonic(t *testing.T) {
	h := NewHistogram(ExponentialBuckets(2, 2, 8))
	for _, v := range []float64{1, 3, 5, 9, 17, 33, 100, 300, 1000} {
		h.Observe(v)
	}
	prev := h.Quantile(0)
	for q := 0.05; q <= 1.0001; q += 0.05 {
		got := h.Quantile(q)
		if got < prev {
			t.Errorf("Quantile(%g) = %g < previous %g (not monotonic)", q, got, prev)
		}
		if got < 1 || got > 1000 {
			t.Errorf("Quantile(%g) = %g outside [min, max]", q, got)
		}
		prev = got
	}
}
