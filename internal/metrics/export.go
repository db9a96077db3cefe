package metrics

import (
	"encoding/json"
	"io"
	"sort"
)

// Point is one time-series sample.
type Point struct {
	Cycle uint64  `json:"cycle"`
	Value float64 `json:"value"`
}

// SeriesSnapshot is one sampled series.
type SeriesSnapshot struct {
	Name    string  `json:"name"`
	Samples []Point `json:"samples"`
}

// HistogramSnapshot is a frozen histogram with extracted percentiles.
type HistogramSnapshot struct {
	Name   string    `json:"name"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Snapshot is a frozen view of a registry and sampler, suitable for JSON
// export and for attaching to a run result after the simulation finishes.
type Snapshot struct {
	Gauges         map[string]float64  `json:"gauges,omitempty"`
	Histograms     []HistogramSnapshot `json:"histograms,omitempty"`
	SampleInterval uint64              `json:"sample_interval,omitempty"`
	Series         []SeriesSnapshot    `json:"series,omitempty"`
}

// Snap freezes the registry and sampler (either may be nil) into a
// Snapshot. Gauge probes are invoked once, so a snapshot taken after the
// run captures final component state.
func Snap(r *Registry, s *Sampler) *Snapshot {
	snap := &Snapshot{Gauges: map[string]float64{}}
	if r != nil {
		r.mu.Lock()
		names := make([]string, 0, len(r.entries))
		for n := range r.entries {
			names = append(names, n)
		}
		r.mu.Unlock()
		// Sorted for deterministic JSON output of the histogram list.
		sort.Strings(names)
		for _, n := range names {
			r.mu.Lock()
			e := r.entries[n]
			r.mu.Unlock()
			switch e.kind {
			case KindGauge:
				snap.Gauges[n] = e.g.Value()
			case KindHistogram:
				h := e.h
				snap.Histograms = append(snap.Histograms, HistogramSnapshot{
					Name: n, Count: h.Count(), Sum: h.Sum(),
					Min: h.min, Max: h.max, Mean: h.Mean(),
					P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
					Bounds: append([]float64(nil), h.bounds...),
					Counts: append([]uint64(nil), h.counts...),
				})
			}
		}
	}
	if s != nil && s.Len() > 0 {
		snap.SampleInterval = s.Interval()
		for _, w := range s.series {
			ss := SeriesSnapshot{Name: w.name, Samples: make([]Point, len(s.cycles))}
			for i, cyc := range s.cycles {
				ss.Samples[i] = Point{Cycle: cyc, Value: w.values[i]}
			}
			snap.Series = append(snap.Series, ss)
		}
	}
	return snap
}

// Histogram returns the named histogram snapshot, or nil.
func (s *Snapshot) Histogram(name string) *HistogramSnapshot {
	if s == nil {
		return nil
	}
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}

// GetSeries returns the named sampled series, or nil.
func (s *Snapshot) GetSeries(name string) *SeriesSnapshot {
	if s == nil {
		return nil
	}
	for i := range s.Series {
		if s.Series[i].Name == name {
			return &s.Series[i]
		}
	}
	return nil
}

// WriteJSON emits the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
