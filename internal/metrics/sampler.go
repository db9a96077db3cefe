package metrics

import "fmt"

// DefaultMaxSamples bounds the in-memory time series: when a run produces
// more samples than this, the sampler decimates (drops every other sample
// and doubles its interval), so arbitrarily long runs keep a bounded,
// evenly spaced series instead of growing without limit.
const DefaultMaxSamples = 8192

type watchedSeries struct {
	name   string
	probe  func() float64
	values []float64
}

// Sampler snapshots a set of probe-backed series every Interval cycles.
// Components drive it by calling Tick with the current simulated cycle;
// whenever a tick crosses an interval boundary one sample is recorded at
// that cycle. Under uneven cycle advancement (the simulator jumps time in
// bursts) at most one sample is recorded per Tick — the probes can only
// report present state, so replaying skipped boundaries would fabricate
// data — and the next boundary is realigned past the observed cycle, so
// consecutive samples are always at least Interval cycles apart.
//
// All series must be registered with Watch before the first Tick so every
// series has the same sample count.
type Sampler struct {
	interval   uint64
	next       uint64
	maxSamples int
	cycles     []uint64
	series     []watchedSeries
}

// NewSampler returns a sampler recording every interval cycles; interval 0
// defaults to 4096.
func NewSampler(interval uint64) *Sampler {
	if interval == 0 {
		interval = 4096
	}
	return &Sampler{interval: interval, next: interval, maxSamples: DefaultMaxSamples}
}

// SetMaxSamples overrides the decimation threshold (minimum 2).
func (s *Sampler) SetMaxSamples(n int) {
	if n < 2 {
		n = 2
	}
	s.maxSamples = n
}

// Interval returns the current sampling interval (it grows when the
// sampler decimates).
func (s *Sampler) Interval() uint64 { return s.interval }

// Watch adds a series. It panics if sampling has already begun: a series
// joining late would have fewer samples than its siblings and misalign the
// shared cycle axis.
func (s *Sampler) Watch(name string, probe func() float64) {
	if len(s.cycles) > 0 {
		panic(fmt.Sprintf("metrics: Watch(%q) after sampling began", name))
	}
	s.series = append(s.series, watchedSeries{name: name, probe: probe})
}

// Tick advances the sampler to cycle now, recording a sample if an
// interval boundary has been crossed. Safe on a nil receiver.
func (s *Sampler) Tick(now uint64) {
	if s == nil || now < s.next {
		return
	}
	s.cycles = append(s.cycles, now)
	for i := range s.series {
		w := &s.series[i]
		w.values = append(w.values, w.probe())
	}
	// Realign to the next boundary strictly after now, so a burst that
	// jumps several intervals yields one sample, not a backlog.
	s.next = now - now%s.interval + s.interval
	if s.next <= now {
		s.next += s.interval
	}
	if len(s.cycles) >= s.maxSamples {
		s.decimate()
	}
}

// decimate halves the series (keeping every other sample) and doubles the
// interval, preserving even spacing at half the resolution.
func (s *Sampler) decimate() {
	keep := (len(s.cycles) + 1) / 2
	for i := 0; i < keep; i++ {
		s.cycles[i] = s.cycles[2*i]
	}
	s.cycles = s.cycles[:keep]
	for j := range s.series {
		w := &s.series[j]
		for i := 0; i < keep; i++ {
			w.values[i] = w.values[2*i]
		}
		w.values = w.values[:keep]
	}
	s.interval *= 2
	if s.next < s.interval {
		s.next = s.interval
	}
}

// Len returns the number of samples recorded so far.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return len(s.cycles)
}

// Samples returns the cycle axis and the values of the named series; ok is
// false for an unknown name.
func (s *Sampler) Samples(name string) (cycles []uint64, values []float64, ok bool) {
	if s == nil {
		return nil, nil, false
	}
	for i := range s.series {
		if s.series[i].name == name {
			return s.cycles, s.series[i].values, true
		}
	}
	return nil, nil, false
}
