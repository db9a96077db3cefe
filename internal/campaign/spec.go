package campaign

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"grp/internal/core"
	"grp/internal/cpu"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// The campaign spec grammar describes a sweep grid as clauses joined by
// "×", "x", ";", or whitespace:
//
//	schemes=base,srp,grp/var × kernels=all × l2.size=512K,1M,2M
//
// Clause keys:
//
//	schemes=...   scheme list (names core.SchemeByName accepts); "all" =
//	              AllSchemes
//	kernels=...   benchmark list ("benches=" is accepted too); "all" =
//	              every workload
//
// Every other key is an overlay axis applied to core.Options; each axis
// with k values multiplies the grid by k. Axes (sizes accept K/M/G
// suffixes):
//
//	l1.size l1.assoc l2.size l2.assoc l2.mshrs dram.channels
//	prefetch.inflight depth srp.region openpage mru noprior corun
//
// The corun axis runs each cell multi-core: its value names the
// co-runner workload(s) sharing the L2 and DRAM with the cell's bench,
// '+'-joined for three or more cores ("corun=art,mcf+art" is a 2-core
// and a 3-core variant). "none" is the solo cell; "corun=all" expands to
// one co-runner per workload, so "kernels=all × corun=all" is the full
// co-run matrix.
//
// The expanded grid is ordered canonically: overlay combinations vary
// slowest (axes in declared order, values in declared order), then
// benches, then schemes — so output order never depends on completion
// order or worker count.

// Axis is one overlay dimension of a sweep grid.
type Axis struct {
	Key    string
	Values []string
}

// Setting is one applied overlay value.
type Setting struct {
	Key, Value string
}

// GridCell is one fully resolved cell of an expanded campaign.
type GridCell struct {
	Bench   string
	Scheme  core.Scheme
	Overlay []Setting // in axis order; empty for a plain suite
	Opt     core.Options
}

// OverlayString renders the cell's overlay as "k=v k=v", or "-" when the
// cell runs the base configuration.
func (c *GridCell) OverlayString() string {
	if len(c.Overlay) == 0 {
		return "-"
	}
	parts := make([]string, len(c.Overlay))
	for i, s := range c.Overlay {
		parts[i] = s.Key + "=" + s.Value
	}
	return strings.Join(parts, " ")
}

// Grid is an expanded campaign: benches × schemes × overlay axes.
type Grid struct {
	Benches []string
	Schemes []core.Scheme
	Axes    []Axis
	Cells   []GridCell
}

// Jobs converts the grid to engine jobs, preserving canonical order.
func (g *Grid) Jobs() []Job {
	jobs := make([]Job, len(g.Cells))
	for i, c := range g.Cells {
		jobs[i] = Job{Bench: c.Bench, Scheme: c.Scheme, Opt: c.Opt}
	}
	return jobs
}

// ParseSpec parses a sweep spec and expands it into a grid of cells, each
// carrying base options with its overlay applied.
func ParseSpec(spec string, base core.Options) (*Grid, error) {
	g := &Grid{}
	for _, clause := range splitClauses(spec) {
		k, v, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("campaign: clause %q is not key=value", clause)
		}
		k = strings.TrimSpace(k)
		vals := splitList(v)
		if len(vals) == 0 {
			return nil, fmt.Errorf("campaign: clause %q has no values", clause)
		}
		switch k {
		case "schemes", "scheme":
			schemes, err := parseSchemes(vals)
			if err != nil {
				return nil, err
			}
			g.Schemes = schemes
		case "kernels", "kernel", "benches", "bench":
			benches, err := parseBenches(vals)
			if err != nil {
				return nil, err
			}
			g.Benches = benches
		default:
			if _, ok := axisSetters[k]; !ok {
				return nil, fmt.Errorf("campaign: unknown spec key %q (axes: %s)", k, strings.Join(axisKeys(), ", "))
			}
			if k == "corun" && len(vals) == 1 && strings.EqualFold(vals[0], "all") {
				vals = workloads.Names()
			}
			g.Axes = append(g.Axes, Axis{Key: k, Values: vals})
		}
	}
	if g.Benches == nil {
		g.Benches = workloads.Names()
	}
	if g.Schemes == nil {
		g.Schemes = core.AllSchemes()
	}
	if err := g.expand(base); err != nil {
		return nil, err
	}
	return g, nil
}

// expand materializes the cartesian product into g.Cells in canonical
// order and resolves each cell's options.
func (g *Grid) expand(base core.Options) error {
	combos := [][]Setting{nil}
	for _, ax := range g.Axes {
		var next [][]Setting
		for _, c := range combos {
			for _, v := range ax.Values {
				nc := make([]Setting, len(c), len(c)+1)
				copy(nc, c)
				next = append(next, append(nc, Setting{Key: ax.Key, Value: v}))
			}
		}
		combos = next
	}
	g.Cells = make([]GridCell, 0, len(combos)*len(g.Benches)*len(g.Schemes))
	for _, combo := range combos {
		opt, err := applyOverlay(base, combo)
		if err != nil {
			return err
		}
		for _, b := range g.Benches {
			for _, sc := range g.Schemes {
				g.Cells = append(g.Cells, GridCell{Bench: b, Scheme: sc, Overlay: combo, Opt: opt})
			}
		}
	}
	return nil
}

// applyOverlay clones the base options (including pointed-to configs, so
// cells never alias each other's mutable state), applies the settings and
// rejects a combination Run would refuse, such as a cache above its size
// bound or a geometry whose set count is not a power of two, so a bad
// grid fails when it is parsed rather than cell by cell.
func applyOverlay(base core.Options, overlay []Setting) (core.Options, error) {
	opt := base
	if base.Mem != nil {
		m := *base.Mem
		opt.Mem = &m
	}
	if base.CPU != nil {
		c := *base.CPU
		opt.CPU = &c
	}
	for _, s := range overlay {
		set, ok := axisSetters[s.Key]
		if !ok {
			return opt, fmt.Errorf("campaign: unknown axis %q", s.Key)
		}
		if err := set(&opt, s.Value); err != nil {
			return opt, fmt.Errorf("campaign: axis %s=%s: %w", s.Key, s.Value, err)
		}
	}
	if err := opt.Validate(); err != nil {
		c := GridCell{Overlay: overlay}
		return opt, fmt.Errorf("campaign: overlay %s: %w", c.OverlayString(), err)
	}
	return opt, nil
}

// ensureMem gives the options a private memory config to mutate,
// defaulting to the paper's.
func ensureMem(o *core.Options) *sim.MemConfig {
	if o.Mem == nil {
		c := sim.DefaultMemConfig()
		o.Mem = &c
	}
	return o.Mem
}

// ensureCPU is ensureMem for the core config.
func ensureCPU(o *core.Options) *cpu.Config {
	if o.CPU == nil {
		c := cpu.Default()
		o.CPU = &c
	}
	return o.CPU
}

// ApplyAxis applies one overlay axis (a spec-grammar key like "l2.size"
// and a value like "512K") to the options in place. It is the single-axis
// entry other drivers (grpconform's -overlay flag) share with the spec
// parser, so overlay spellings mean the same thing everywhere.
func ApplyAxis(o *core.Options, key, value string) error {
	set, ok := axisSetters[key]
	if !ok {
		return fmt.Errorf("campaign: unknown axis %q (axes: %s)", key, strings.Join(axisKeys(), ", "))
	}
	if err := set(o, value); err != nil {
		return fmt.Errorf("campaign: axis %s=%s: %w", key, value, err)
	}
	return nil
}

// axisSetters applies one overlay axis value to a cell's options.
var axisSetters = map[string]func(*core.Options, string) error{
	"l1.size": func(o *core.Options, v string) error {
		n, err := parseSize(v)
		if err != nil {
			return err
		}
		ensureMem(o).L1.SizeBytes = n
		return nil
	},
	"l1.assoc": func(o *core.Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		ensureMem(o).L1.Assoc = n
		return nil
	},
	"l2.size": func(o *core.Options, v string) error {
		n, err := parseSize(v)
		if err != nil {
			return err
		}
		ensureMem(o).L2.SizeBytes = n
		return nil
	},
	"l2.assoc": func(o *core.Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		ensureMem(o).L2.Assoc = n
		return nil
	},
	"l2.mshrs": func(o *core.Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		ensureMem(o).L2.MSHRs = n
		return nil
	},
	"dram.channels": func(o *core.Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		ensureMem(o).DRAM.Channels = n
		return nil
	},
	"prefetch.inflight": func(o *core.Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		ensureMem(o).MaxInflightPrefetches = n
		return nil
	},
	"rob": func(o *core.Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		c := ensureCPU(o)
		c.ROBSize = n
		// Reject a size the core cannot build now, as Run would.
		return c.Validate()
	},
	"depth": func(o *core.Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		if n < 0 || n > 255 {
			return fmt.Errorf("depth %d out of range", n)
		}
		o.RecursionDepth = uint8(n)
		return nil
	},
	"srp.region": func(o *core.Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		o.SRPRegionBlocks = n
		// Reject a size the engine cannot build now, as Run would.
		return (&core.Options{SRPRegionBlocks: n}).Validate()
	},
	"openpage": func(o *core.Options, v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return err
		}
		o.OpenPageFirst = b
		return nil
	},
	"mru": func(o *core.Options, v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return err
		}
		o.PrefetchInsertMRU = b
		return nil
	},
	"noprior": func(o *core.Options, v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return err
		}
		o.DisablePrioritizer = b
		return nil
	},
	"corun": func(o *core.Options, v string) error {
		if strings.EqualFold(v, "none") || v == "-" {
			o.CoRun = nil
			return nil
		}
		var benches []string
		for _, p := range strings.Split(v, "+") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			if _, err := workloads.ByName(p); err != nil {
				return err
			}
			benches = append(benches, p)
		}
		if len(benches) == 0 {
			return fmt.Errorf("empty co-runner list")
		}
		o.CoRun = benches
		return nil
	},
}

func axisKeys() []string {
	keys := make([]string, 0, len(axisSetters))
	for k := range axisSetters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// splitClauses tokenizes a spec on whitespace, "×", "x", and ";". A bare
// "x" between clauses is a separator (the issue's grid notation); an "x"
// inside a clause is just a character.
func splitClauses(spec string) []string {
	spec = strings.ReplaceAll(spec, "×", " ")
	spec = strings.ReplaceAll(spec, ";", " ")
	var out []string
	for _, f := range strings.Fields(spec) {
		if f == "x" || f == "X" {
			continue
		}
		out = append(out, f)
	}
	return out
}

func splitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSchemes(vals []string) ([]core.Scheme, error) {
	if len(vals) == 1 && strings.EqualFold(vals[0], "all") {
		return core.AllSchemes(), nil
	}
	var out []core.Scheme
	for _, v := range vals {
		sc, err := core.SchemeByName(v)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		out = append(out, sc)
	}
	return out, nil
}

func parseBenches(vals []string) ([]string, error) {
	if len(vals) == 1 && strings.EqualFold(vals[0], "all") {
		return workloads.Names(), nil
	}
	for _, v := range vals {
		if _, err := workloads.ByName(v); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// parseSize parses "512K", "1M", "2M", "65536" into bytes.
func parseSize(v string) (int, error) {
	mult := 1
	s := v
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", v)
	}
	return n * mult, nil
}
