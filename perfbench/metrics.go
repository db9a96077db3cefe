package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

//go:embed manifest.json
var manifestJSON []byte

// metricDef is one metric of the catalogue.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// catalogue is the part of manifest.json the program needs.
type catalogue struct {
	Seeds struct {
		Default int64 `json:"default"`
	} `json:"seeds"`
	Workers   int `json:"workers"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalogue() (*catalogue, error) {
	var c catalogue
	if err := json.Unmarshal(manifestJSON, &c); err != nil {
		return nil, fmt.Errorf("manifest.json: %w", err)
	}
	for _, list := range [][]metricDef{c.EndToEnd, c.PerLayer} {
		for _, m := range list {
			if err := checkName(m.Name); err != nil {
				return nil, fmt.Errorf("manifest.json: %w", err)
			}
		}
	}
	return &c, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkName enforces the benchmark's naming rule for metrics and
// workloads: a letter or digit first, then at most 63 more letters,
// digits, '_', '.' or '-'.
func checkName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	return nil
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile: fewer make the percentile a reading of one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs, 0 < q < 1, and
// the number of samples strictly beyond that rank.
func percentile(xs []float64, q float64) (float64, int) {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile is percentile, refused unless at least minBeyond
// samples lie beyond it.
func tailPercentile(xs []float64, q float64) (float64, int, error) {
	v, beyond := percentile(xs, q)
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, len(xs), beyond, minBeyond)
	}
	return v, beyond, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// result is the final line every run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine builds the result for the metric list defs from the measured
// values. Every listed metric must have been measured and be finite.
func finalLine(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) (*result, error) {
	r := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

func (r *result) write(w io.Writer) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
