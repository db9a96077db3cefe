package campaign

import (
	"encoding/json"
	"fmt"
	"io"

	"grp/internal/core"
	"grp/internal/stats"
)

// The artifact writer is the single rendering path for a finished sweep:
// grpsweep (local and -remote) and the grpserve artifact endpoint all
// reduce through it, which is what makes a served artifact byte-identical
// to the CLI's for the same grid — there is only one set of bytes to
// produce.

// CellOut is one row of a sweep artifact. Error is set (and the metric
// fields zero) for a cell that failed for good under keep-going.
type CellOut struct {
	Bench      string  `json:"bench"`
	Scheme     string  `json:"scheme"`
	Overlay    string  `json:"overlay"`
	Instrs     uint64  `json:"instrs"`
	Cycles     uint64  `json:"cycles"`
	IPC        float64 `json:"ipc"`
	L2MissPct  float64 `json:"l2_miss_pct"`
	Traffic    uint64  `json:"traffic_bytes"`
	ArchDigest string  `json:"arch_digest"`
	Error      string  `json:"error,omitempty"`
}

// Artifact is a finished sweep ready to render: the grid that defines
// canonical row order, its positional results, and any per-cell failures.
type Artifact struct {
	Spec    string
	Factor  string
	Policy  string
	Grid    *Grid
	Results []*core.Result
	// Failures are keep-going cell failures; Results[i] is nil for each.
	Failures []CellFailure
}

// NewCellOut builds one artifact row from grid cell i and its result;
// a nil result leaves the metric fields zero (pair it with an Error for
// failed cells).
func NewCellOut(g *Grid, i int, r *core.Result) CellOut {
	c := CellOut{
		Bench:   g.Cells[i].Bench,
		Scheme:  g.Cells[i].Scheme.String(),
		Overlay: g.Cells[i].OverlayString(),
	}
	if r != nil {
		c.Instrs = r.CPU.Instrs
		c.Cycles = r.CPU.Cycles
		c.IPC = r.IPC()
		c.L2MissPct = r.L2.MissRate()
		c.Traffic = r.TrafficBytes
		c.ArchDigest = fmt.Sprintf("%016x", r.ArchDigest)
	}
	return c
}

// Cells flattens the artifact into its rows in canonical grid order.
func (a *Artifact) Cells() []CellOut {
	failed := map[int]*CellFailure{}
	for i := range a.Failures {
		f := &a.Failures[i]
		failed[f.Index] = f
	}
	cells := make([]CellOut, len(a.Results))
	for i, r := range a.Results {
		if f, ok := failed[i]; ok || r == nil {
			cells[i] = NewCellOut(a.Grid, i, nil)
			if ok {
				cells[i].Error = f.Err
			}
			continue
		}
		cells[i] = NewCellOut(a.Grid, i, r)
	}
	return cells
}

// ArtifactFormats lists the accepted format names.
var ArtifactFormats = []string{"ascii", "json", "csv"}

// ValidArtifactFormat reports whether format names a supported rendering.
func ValidArtifactFormat(format string) bool {
	return format == "ascii" || format == "json" || format == "csv"
}

// WriteArtifact renders the artifact in the given format ("ascii",
// "json", or "csv"). Output is deterministic: the same grid and results
// produce the same bytes whoever renders them.
func WriteArtifact(w io.Writer, format string, a *Artifact) error {
	cells := a.Cells()
	switch format {
	case "json":
		env := struct {
			Spec   string    `json:"spec"`
			Factor string    `json:"factor"`
			Policy string    `json:"policy"`
			Failed int       `json:"failed,omitempty"`
			Cells  []CellOut `json:"cells"`
		}{a.Spec, a.Factor, a.Policy, len(a.Failures), cells}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(env)
	case "ascii", "csv":
		t := &stats.Table{
			Title:   fmt.Sprintf("campaign: %s", a.Spec),
			Headers: []string{"benchmark", "scheme", "overlay", "instrs", "cycles", "IPC", "L2miss%", "traffic", "archdigest"},
		}
		for _, c := range cells {
			if c.Error != "" {
				t.Add(c.Bench, c.Scheme, c.Overlay, "-", "-", "-", "-", "-", "FAILED")
				continue
			}
			t.Add(c.Bench, c.Scheme, c.Overlay, fmt.Sprint(c.Instrs), fmt.Sprint(c.Cycles),
				stats.Fmt(c.IPC, 3), stats.Fmt(c.L2MissPct, 1), fmt.Sprint(c.Traffic), c.ArchDigest)
		}
		if format == "csv" {
			return t.WriteCSV(w)
		}
		_, err := fmt.Fprintln(w, t)
		return err
	default:
		return fmt.Errorf("campaign: unknown artifact format %q (want ascii, json, or csv)", format)
	}
}

// DryRun is the expansion summary of a sweep spec without simulating it:
// the grid's shape plus an estimate, probed from the store, of how many
// cells a submission would hit in the cache. Clients use it to size
// submissions before committing a server's worker pool to them.
type DryRun struct {
	Cells   int    `json:"cells"`
	Benches int    `json:"benches"`
	Schemes int    `json:"schemes"`
	Configs int    `json:"configs"`
	Axes    []Axis `json:"axes,omitempty"`
	// Cached is how many cells the store already holds (0 when the
	// engine has no probing backend); HitRate is Cached/Cells.
	Cached  int     `json:"cached"`
	HitRate float64 `json:"est_hit_rate"`
}

// DryRunGrid sizes a grid against the engine's store. Keying builds and
// digests each distinct program's image once, on the worker pool, which
// costs a fraction of simulating one cell of that program.
func (e *Engine) DryRunGrid(g *Grid) (*DryRun, error) {
	d := &DryRun{
		Cells:   len(g.Cells),
		Benches: len(g.Benches),
		Schemes: len(g.Schemes),
		Axes:    g.Axes,
	}
	if n := len(g.Benches) * len(g.Schemes); n > 0 {
		d.Configs = len(g.Cells) / n
	}
	p, ok := e.store.(Prober)
	if !ok || e.store == nil {
		return d, nil
	}
	keys, err := e.Keys(g.Jobs())
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if p.Contains(k) {
			d.Cached++
		}
	}
	if d.Cells > 0 {
		d.HitRate = float64(d.Cached) / float64(d.Cells)
	}
	return d, nil
}

// String renders the dry run as the human summary grpsweep prints.
func (d *DryRun) String() string {
	s := fmt.Sprintf("dry run: %d cells (%d benches × %d schemes × %d configs)\n",
		d.Cells, d.Benches, d.Schemes, d.Configs)
	for _, ax := range d.Axes {
		s += fmt.Sprintf("axis %s: %v\n", ax.Key, ax.Values)
	}
	s += fmt.Sprintf("cached: %d of %d (estimated hit rate %.0f%%)\n",
		d.Cached, d.Cells, 100*d.HitRate)
	return s
}
