// Package metrics is the simulator's telemetry layer: a lightweight
// registry of named probe-backed gauges and fixed-bucket histograms, plus
// a cycle-driven sampler that snapshots selected series into an in-memory
// time series (see sampler.go) and a structured JSON exporter (see
// export.go).
//
// The design goal is zero cost on the simulator's hot path when telemetry
// is not attached: components hold nil pointers and guard instrumentation
// behind a single nil check, and Histogram.Observe is nil-safe so call
// sites need no guard of their own. Histograms are plain (non-atomic) —
// the simulation is single-goroutine — while the registry itself is
// mutex-guarded so registration and snapshotting are safe from auxiliary
// goroutines (exporters, tests under -race).
package metrics

import (
	"fmt"
	"sort"
	"sync"
)

// Gauge is a probe-backed instantaneous value: reading the gauge invokes
// the probe, so gauges always report live component state and cost nothing
// between reads.
type Gauge struct {
	probe func() float64
}

// Value invokes the probe. Safe on a nil receiver (returns 0).
func (g *Gauge) Value() float64 {
	if g == nil || g.probe == nil {
		return 0
	}
	return g.probe()
}

// Histogram is a fixed-bucket histogram. Bucket i counts observations v
// with bounds[i-1] < v <= bounds[i]; one implicit overflow bucket counts
// v > bounds[len-1]. Observation is allocation-free.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is overflow
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// It panics if bounds is empty or not strictly ascending (a bucket-layout
// bug is a programming error).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// ExponentialBuckets returns n ascending bounds start, start*factor, ...
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value. Safe on a nil receiver (no-op), so hot paths
// can call it unguarded when telemetry may be detached.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	// Linear scan: bucket counts are small (tens) and the common latencies
	// land in the first few buckets, so this beats binary search in
	// practice and keeps the path branch-predictable.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the arithmetic mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket; observations in the overflow bucket report
// the maximum observed value. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Degenerate distributions answer exactly, not by interpolation: one
	// sample (or all samples equal) has every quantile at that value.
	if h.count == 1 || h.min == h.max {
		return h.min
	}
	target := q * float64(h.count)
	var cum float64
	lower := h.min
	for i, b := range h.bounds {
		upper := b
		n := float64(h.counts[i])
		if cum+n >= target && n > 0 {
			if lower < h.min {
				lower = h.min
			}
			if upper > h.max {
				upper = h.max
			}
			frac := (target - cum) / n
			return lower + (upper-lower)*frac
		}
		cum += n
		lower = b
	}
	return h.max
}

// Kind distinguishes registry entries.
type Kind uint8

// Registry entry kinds.
const (
	KindGauge Kind = iota
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

type entry struct {
	kind Kind
	g    *Gauge
	h    *Histogram
}

// Registry is a named collection of gauges and histograms.
// Registration rejects duplicate names regardless of kind: every series
// name identifies exactly one instrument, so exports cannot silently
// shadow one series with another.
type Registry struct {
	mu      sync.Mutex
	entries map[string]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

func (r *Registry) register(name string, e entry) error {
	if name == "" {
		return fmt.Errorf("metrics: empty series name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[name]; ok {
		return fmt.Errorf("metrics: series %q already registered as %s", name, prev.kind)
	}
	r.entries[name] = e
	return nil
}

// Gauge registers a probe-backed gauge under name.
func (r *Registry) Gauge(name string, probe func() float64) (*Gauge, error) {
	g := &Gauge{probe: probe}
	if err := r.register(name, entry{kind: KindGauge, g: g}); err != nil {
		return nil, err
	}
	return g, nil
}

// Histogram registers a fixed-bucket histogram under name.
func (r *Registry) Histogram(name string, bounds []float64) (*Histogram, error) {
	h := NewHistogram(bounds)
	if err := r.register(name, entry{kind: KindHistogram, h: h}); err != nil {
		return nil, err
	}
	return h, nil
}

// MustGauge is Gauge but panics on collision; for wiring code where a
// duplicate name is a programming error.
func (r *Registry) MustGauge(name string, probe func() float64) *Gauge {
	g, err := r.Gauge(name, probe)
	if err != nil {
		panic(err)
	}
	return g
}

// MustHistogram is Histogram but panics on collision.
func (r *Registry) MustHistogram(name string, bounds []float64) *Histogram {
	h, err := r.Histogram(name, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// Names returns all registered series names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
